package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// openTest opens a store on a fresh temp dir and lands every accepted
// write before the dir is removed.
func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { flush(t, s) })
	return s
}

// flush waits for s's accepted writes: tests that read the data dir, or
// reopen it, look only after the commits have landed.
func flush(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// putFlushed is Put followed by flush, for tests that need one write's
// commit to land before the next (eviction order follows commit order).
func putFlushed(t *testing.T, s *Store, key string, payload []byte) {
	t.Helper()
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
	flush(t, s)
}

// capFor bounds a store to n entries the size of (key, payload); the
// tests that count entries keep every frame that size.
func capFor(n int, key string, payload []byte) Options {
	return Options{MaxBytes: int64(n * len(appendFrame(nil, key, payload)))}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, Options{})
	payload := []byte("the plan bytes")
	if err := s.Put("graph:abc|cfg:1", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get("graph:abc|cfg:1")
	if !ok {
		t.Fatal("Get missed a just-written key")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	if _, ok := s.Get("graph:other|cfg:1"); ok {
		t.Fatal("Get hit a never-written key")
	}
	flush(t, s)
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 write / 1 entry", st)
	}
}

func TestOverwriteIsAtomicAndAccounted(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put("k", bytes.Repeat([]byte("a"), 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "short" {
		t.Fatalf("Get = %q/%v, want the overwritten value", got, ok)
	}
	flush(t, s)
	if got, ok := s.Get("k"); !ok || string(got) != "short" {
		t.Fatalf("after the commits Get = %q/%v, want the overwritten value", got, ok)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("%d entries after overwrite, want 1", st.Entries)
	}
}

func TestReopenSeesDurableEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, s)
	// A second Open over the same dir models the daemon restart: the
	// scan must tally every committed entry and serve them all.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("reopened store has %d entries, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("key-%d = %q/%v after reopen", i, got, ok)
		}
	}
}

// entryPath returns the one committed entry file in the store dir.
func entryPath(t *testing.T, s *Store) string {
	t.Helper()
	des, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), entrySuffix) {
			return filepath.Join(s.Dir(), de.Name())
		}
	}
	t.Fatal("no committed entry found")
	return ""
}

func TestTornWriteIsQuarantined(t *testing.T) {
	s := openTest(t, Options{})
	putFlushed(t, s, "k", bytes.Repeat([]byte("x"), 256))
	path := entryPath(t, s)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-payload: the classic torn write a non-atomic
	// writer would leave after a crash.
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get served a torn entry")
	}
	if _, err := os.Stat(path + badSuffix); err != nil {
		t.Fatalf("torn entry was not quarantined to %s: %v", badSuffix, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn entry still servable at %s", path)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt / 0 entries", st)
	}
	// The quarantined frame stays a miss on re-read, not an error loop.
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get served a quarantined entry")
	}
}

func TestBitFlipIsQuarantined(t *testing.T) {
	s := openTest(t, Options{})
	putFlushed(t, s, "k", bytes.Repeat([]byte("y"), 128))
	path := entryPath(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get served a bit-flipped entry")
	}
	if s.Stats().Corrupt != 1 {
		t.Fatal("bit flip was not counted as corruption")
	}
}

// TestLyingLengthFrame hand-crafts a frame whose payload-length field
// claims more bytes than the file holds, with the CRC recomputed so
// only the length check can catch it.
func TestLyingLengthFrame(t *testing.T) {
	s := openTest(t, Options{})
	key := "k"
	body := binary.AppendUvarint(nil, uint64(len(key)))
	body = append(body, key...)
	body = binary.AppendUvarint(body, 1<<20) // claims 1 MiB...
	body = append(body, "tiny"...)           // ...delivers 4 bytes
	frame := []byte{'P', 'C', 'S', frameVersion, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	frame = append(frame, body...)
	if err := os.WriteFile(filepath.Join(s.Dir(), fileName(key)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("Get served a lying-length frame")
	}
	if s.Stats().Corrupt != 1 {
		t.Fatal("lying-length frame was not counted as corruption")
	}
}

func TestKeyMismatchIsQuarantined(t *testing.T) {
	s := openTest(t, Options{})
	putFlushed(t, s, "real-key", []byte("payload"))
	// Copy the committed frame to the file name of a different key —
	// a misfiled entry (or a hash collision) must not be served.
	data, err := os.ReadFile(entryPath(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), fileName("other-key")), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("other-key"); ok {
		t.Fatal("Get served a frame recorded under a different key")
	}
}

func TestStaleTempFilesSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(stale, []byte("half a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
	if s.Len() != 0 {
		t.Fatalf("stale temp file was tallied as an entry: %d", s.Len())
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	s := openTest(t, capFor(3, "key-0", []byte("v")))
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("key-%d", i)
		putFlushed(t, s, key, []byte("v"))
		// Spread mtimes coarsely so LRU order is unambiguous even on
		// filesystems with coarse timestamps.
		mt := base.Add(time.Duration(i) * time.Minute)
		path := filepath.Join(s.Dir(), fileName(key))
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.entries[fileName(key)].mtime = mt
		s.mu.Unlock()
	}
	// key-0 is oldest; the fourth Put must evict exactly it.
	putFlushed(t, s, "key-3", []byte("v"))
	if _, ok := s.Get("key-0"); ok {
		t.Fatal("LRU entry survived an over-capacity Put")
	}
	for _, key := range []string{"key-1", "key-2", "key-3"} {
		if _, ok := s.Get(key); !ok {
			t.Fatalf("recent entry %s was evicted", key)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 entries", st)
	}
}

func TestHitRefreshesRecency(t *testing.T) {
	s := openTest(t, capFor(2, "a", []byte("v")))
	old := time.Now().Add(-time.Hour)
	for _, key := range []string{"a", "b"} {
		putFlushed(t, s, key, []byte("v"))
		path := filepath.Join(s.Dir(), fileName(key))
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.entries[fileName(key)].mtime = old
		s.mu.Unlock()
	}
	// Touch "a": the hit must refresh its recency so "b" becomes the
	// LRU victim when "c" arrives.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("warm-up Get missed")
	}
	putFlushed(t, s, "c", []byte("v"))
	if _, ok := s.Get("b"); ok {
		t.Fatal("unread entry b survived over recently-read a")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently-read entry a was evicted")
	}
}

func TestEvictionByBytes(t *testing.T) {
	s := openTest(t, Options{MaxBytes: 600})
	// Each frame is ~190 bytes (header + key + 150-byte payload), so
	// the cap holds three; the fourth Put evicts the oldest.
	for i := 0; i < 4; i++ {
		putFlushed(t, s, fmt.Sprintf("key-%d", i), bytes.Repeat([]byte("z"), 150))
		time.Sleep(5 * time.Millisecond) // separate mtimes
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("byte cap produced no evictions: %+v", st)
	}
	if st.Bytes > 600 {
		t.Fatalf("resident bytes %d exceed the 600-byte cap", st.Bytes)
	}
	if _, ok := s.Get("key-3"); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	s := openTest(t, Options{MaxBytes: 64})
	err := s.Put("k", bytes.Repeat([]byte("w"), 1024))
	if err == nil {
		t.Fatal("Put accepted an entry larger than the whole store")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 write error / 0 entries", st)
	}
}

func TestOpenEmptyDirErrors(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open accepted an empty dir")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openTest(t, capFor(16, "key-00", []byte("key-00")))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%02d", (w+i)%24)
				if i%3 == 0 {
					if err := s.Put(key, []byte(key)); err != nil {
						t.Errorf("Put(%s): %v", key, err)
						return
					}
				} else if got, ok := s.Get(key); ok && string(got) != key {
					t.Errorf("Get(%s) = %q", key, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	flush(t, s)
	if s.Len() > 16 {
		t.Fatalf("entry cap breached: %d", s.Len())
	}
}

// TestGetAfterPutHits: an accepted write is served from the moment Put
// returns, whether or not its commit has landed, and the bytes Get
// hands out are the caller's own.
func TestGetAfterPutHits(t *testing.T) {
	s := openTest(t, Options{})
	for i := 0; i < 64; i++ {
		key, payload := fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("payload-%d", i))
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Get(%s) right after Put = %q/%v, want %q", key, got, ok, payload)
		}
		got[0] ^= 0xff
		if again, _ := s.Get(key); !bytes.Equal(again, payload) {
			t.Fatalf("writing into one Get's bytes changed the next: %q", again)
		}
	}
	if st := s.Stats(); st.Hits != 128 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 128 hits / 0 misses", st)
	}
}

// TestFlushLandsEveryAcceptedWrite: concurrent writers, then Flush —
// every accepted write is a committed file, no more and no fewer.
func TestFlushLandsEveryAcceptedWrite(t *testing.T) {
	s := openTest(t, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("w%d-key-%d", w, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Errorf("Put(%s): %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	flush(t, s)
	files, err := filepath.Glob(filepath.Join(s.Dir(), "*"+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Writes != 100 || uint64(len(files)) != st.Writes || st.Entries != len(files) || st.WriteErrors != 0 {
		t.Fatalf("%d %s files after Flush; stats = %+v, want 100 writes, 100 entries, no errors", len(files), entrySuffix, st)
	}
}

// TestFailedCommitCountsAndMisses: a write accepted into a dir that can
// no longer take writes fails in its commit — counted in WriteErrors,
// and a miss afterwards, never a half-written entry.
func TestFailedCommitCountsAndMisses(t *testing.T) {
	s := openTest(t, Options{})
	if err := os.Chmod(s.Dir(), 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(s.Dir(), 0o755) })
	if s.Probe() == nil {
		// Permission bits do not bind this process (it runs as root):
		// take the dir away instead.
		if err := os.Chmod(s.Dir(), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(s.Dir()); err != nil {
			t.Fatal(err)
		}
		if s.Probe() == nil {
			t.Fatal("could not make the data dir refuse writes")
		}
	}
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatalf("Put refused a write it should accept and fail later: %v", err)
	}
	flush(t, s)
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get served a write whose commit failed")
	}
	if st := s.Stats(); st.Writes != 1 || st.WriteErrors != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 write / 1 write error / 0 entries", st)
	}
}

// TestCommitSlotsDefault: the store keeps as many commits in flight as
// it is given slots, GOMAXPROCS when the caller does not say.
func TestCommitSlotsDefault(t *testing.T) {
	for _, tc := range []struct{ slots, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{3, 3},
	} {
		s := openTest(t, Options{CommitSlots: tc.slots})
		if got := len(s.ring); got != tc.want {
			t.Errorf("CommitSlots %d: %d commit slots, want %d", tc.slots, got, tc.want)
		}
	}
}

// TestCommitsTrailPutByAtMostK: once Put of write n returns, write n-K
// has landed — a slow commit holds later Puts back instead of being
// overtaken by an unbounded number of them.
func TestCommitsTrailPutByAtMostK(t *testing.T) {
	const k = 2
	s := openTest(t, Options{CommitSlots: k})
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i < k {
			continue
		}
		name := fileName(fmt.Sprintf("key-%d", i-k))
		s.mu.Lock()
		_, pending := s.pending[name]
		_, landed := s.entries[name]
		s.mu.Unlock()
		if pending || !landed {
			t.Fatalf("after Put %d, write %d is pending=%v landed=%v; want landed", i, i-k, pending, landed)
		}
	}
}
