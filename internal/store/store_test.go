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
	"sync"
	"testing"
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
	if s2.Stats().Entries != 5 {
		t.Fatalf("reopened store has %d entries, want 5", s2.Stats().Entries)
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("key-%d = %q/%v after reopen", i, got, ok)
		}
	}
}

// segFiles returns the store's segment file paths, oldest first.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// lastSeg returns the newest segment file in the store's dir.
func lastSeg(t *testing.T, s *Store) string {
	t.Helper()
	files := segFiles(t, s.Dir())
	if len(files) == 0 {
		t.Fatal("no segment file found")
	}
	return files[len(files)-1]
}

// TestLyingLengthFrame hand-crafts a segment whose one frame claims
// more payload bytes than the file holds, with the CRC recomputed so
// only the length check can catch it: Open truncates it as a torn
// tail.
func TestLyingLengthFrame(t *testing.T) {
	dir := t.TempDir()
	key := "k"
	body := binary.AppendUvarint(nil, uint64(len(key)))
	body = append(body, key...)
	body = binary.AppendUvarint(body, 1<<20) // claims 1 MiB...
	body = append(body, "tiny"...)           // ...delivers 4 bytes
	frame := []byte{'P', 'C', 'S', frameVersion, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	frame = append(frame, body...)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x%s", 7, segSuffix)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("Get served a lying-length frame")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt / 0 entries / 0 bytes", st)
	}
}

// TestKeyMismatchIsQuarantined: a frame rewritten on disk under
// another key of the same length, CRC resealed, is not served under
// the key the index holds, and is dropped from the index.
func TestKeyMismatchIsQuarantined(t *testing.T) {
	s := openTest(t, Options{})
	putFlushed(t, s, "real-key", []byte("payload"))
	// Same key length, so the frame keeps its length and location.
	if err := os.WriteFile(lastSeg(t, s), appendFrame(nil, "fake-key", []byte("payload")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("real-key"); ok {
		t.Fatal("Get served a frame recorded under a different key")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt / 0 entries", st)
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
	if s.Stats().Entries != 0 {
		t.Fatalf("stale temp file was tallied as an entry: %d", s.Stats().Entries)
	}
}

func TestEvictionByBytes(t *testing.T) {
	s := openTest(t, Options{MaxBytes: 600})
	// Each frame is 166 bytes (header + key + 150-byte payload), past
	// the 150-byte rotation size, so each lands in its own segment and
	// the cap holds three; the fourth Put evicts the oldest.
	for i := 0; i < 4; i++ {
		putFlushed(t, s, fmt.Sprintf("key-%d", i), bytes.Repeat([]byte("z"), 150))
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
	if s.Stats().Entries > 16 {
		t.Fatalf("entry cap breached: %d", s.Stats().Entries)
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
// every accepted write is a committed entry that a reopen of the dir
// finds, no more and no fewer.
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
	reopened, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Writes != 100 || st.Entries != 100 || st.WriteErrors != 0 || reopened.Stats().Entries != 100 {
		t.Fatalf("after Flush: stats = %+v, reopened store holds %d; want 100 writes, 100 entries, no errors", st, reopened.Stats().Entries)
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
		key := fmt.Sprintf("key-%d", i-k)
		s.mu.Lock()
		_, pending := s.pending[key]
		_, landed := s.index[key]
		s.mu.Unlock()
		if pending || !landed {
			t.Fatalf("after Put %d, write %d is pending=%v landed=%v; want landed", i, i-k, pending, landed)
		}
	}
}

// TestSegmentLog is the log's crash suite: each case writes key-0 ..
// key-(writes-1), one flushed Put each, damages or drives the store,
// then checks which keys it serves and what it counted.
func TestSegmentLog(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 100)
	tests := []struct {
		name   string
		opts   Options
		writes int
		// act runs after the writes and returns the store to check: s
		// itself, or a reopen of its dir.
		act            func(t *testing.T, s *Store) *Store
		served, missed []int
		want           Stats // Corrupt, Evictions and WriteErrors are compared
	}{
		{
			name:   "torn tail is truncated at Open",
			writes: 3,
			act: func(t *testing.T, s *Store) *Store {
				path := lastSeg(t, s)
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				// Cut the last frame in half: what a crash mid-append
				// leaves.
				frame := int64(len(appendFrame(nil, "key-2", payload)))
				if err := os.Truncate(path, info.Size()-frame/2); err != nil {
					t.Fatal(err)
				}
				r := reopen(t, s)
				if info, err := os.Stat(path); err != nil || info.Size() != 2*frame {
					t.Fatalf("torn segment is %v bytes after Open (err %v), want the %d of its whole frames", info.Size(), err, 2*frame)
				}
				return r
			},
			served: []int{0, 1},
			missed: []int{2},
			want:   Stats{Corrupt: 1},
		},
		{
			name:   "bit flip is one corrupt miss, then a clean re-put",
			writes: 2,
			act: func(t *testing.T, s *Store) *Store {
				path := lastSeg(t, s)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0x01 // key-1's last payload byte
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if _, ok := s.Get("key-1"); ok {
						t.Fatal("Get served a bit-flipped frame")
					}
				}
				// The next request re-solves and re-puts the plan.
				putFlushed(t, s, "key-1", payload)
				return s
			},
			served: []int{0, 1},
			want:   Stats{Corrupt: 1},
		},
		{
			name:   "eviction drops the oldest segment first",
			opts:   capFor(3, "key-0", payload),
			writes: 3,
			act: func(t *testing.T, s *Store) *Store {
				// A hit does not reorder eviction: key-0 goes first.
				if _, ok := s.Get("key-0"); !ok {
					t.Fatal("warm-up Get missed")
				}
				putFlushed(t, s, "key-3", payload)
				if files := segFiles(t, s.Dir()); len(files) != 3 || filepath.Base(files[0]) != fmt.Sprintf("%016x%s", 1, segSuffix) {
					t.Fatalf("segments after eviction: %v; want ids 1..3", files)
				}
				return s
			},
			served: []int{1, 2, 3},
			missed: []int{0},
			want:   Stats{Evictions: 1},
		},
		{
			name:   "a batch with a failed write leaves no servable entry",
			writes: 1,
			act: func(t *testing.T, s *Store) *Store {
				// Swap the active segment for a read-only handle: the
				// append fails, and so does the truncate behind it.
				ro, err := os.Open(s.active.f.Name())
				if err != nil {
					t.Fatal(err)
				}
				s.active.f.Close()
				s.active.f = ro
				if err := s.Put("key-1", payload); err != nil {
					t.Fatal(err)
				}
				flush(t, s)
				// The next batch rotates to a fresh segment and lands.
				putFlushed(t, s, "key-2", payload)
				if n := len(segFiles(t, s.Dir())); n != 2 {
					t.Fatalf("%d segments after the failed batch, want 2", n)
				}
				return reopen(t, s)
			},
			served: []int{0, 2},
			missed: []int{1},
			want:   Stats{WriteErrors: 1},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, tc.opts)
			for i := 0; i < tc.writes; i++ {
				putFlushed(t, s, fmt.Sprintf("key-%d", i), payload)
			}
			got := tc.act(t, s)
			for _, i := range tc.served {
				if p, ok := got.Get(fmt.Sprintf("key-%d", i)); !ok || !bytes.Equal(p, payload) {
					t.Errorf("key-%d = %q/%v, want it served", i, p, ok)
				}
			}
			for _, i := range tc.missed {
				if _, ok := got.Get(fmt.Sprintf("key-%d", i)); ok {
					t.Errorf("key-%d served, want a miss", i)
				}
			}
			st := s.Stats()
			if got != s {
				st.Corrupt = got.Stats().Corrupt
			}
			if st.Corrupt != tc.want.Corrupt || st.Evictions != tc.want.Evictions || st.WriteErrors != tc.want.WriteErrors {
				t.Errorf("stats = %+v, want %d corrupt / %d evictions / %d write errors", st, tc.want.Corrupt, tc.want.Evictions, tc.want.WriteErrors)
			}
		})
	}
}

// reopen flushes s and opens a second store over its dir, as a
// restarted daemon does.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	flush(t, s)
	r, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return r
}
