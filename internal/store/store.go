// Package store is the durable, content-addressed blob store behind
// the in-memory plan cache.  Every entry is one file in a flat data
// dir, named by the SHA-256 of its key, holding a CRC-guarded frame
// around an opaque payload (internal/run stores wire-encoded plans).
//
// Durability invariants live in this package and nowhere else — the
// fsio vet pass bans direct os.Create/os.WriteFile/os.Rename outside
// it:
//
//   - writes are atomic: payload goes to a temp file in the same dir,
//     is fsynced, then renamed over the final name (the dir is fsynced
//     after the rename), so a crash leaves either the old entry or the
//     new one, never a torn file;
//   - writes are behind the caller, but bounded: Put hands the frame to
//     a commit goroutine and returns once the write accepted K writes
//     earlier has landed (K fixed at Open), Get serves an accepted write
//     before its commit lands, and Flush waits for every accepted write
//     — so a crash loses at most K entries, which the cache above simply
//     recomputes;
//   - reads are CRC-guarded: a frame failing its magic, version,
//     length, key, or CRC-32 check is quarantined (renamed to *.bad)
//     and reported as a miss, never served;
//   - capacity is bounded: when MaxBytes would be exceeded, the
//     least-recently-used entries (by file mtime, refreshed on every
//     hit) are evicted until the new entry fits.
//
// The only goroutines the store runs are its in-flight commits; a
// *Store is safe for concurrent use by any number of callers.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	// entrySuffix names committed entries; quarantined frames get
	// badSuffix appended, temp files carry tmpPrefix and are swept at
	// Open.
	entrySuffix = ".plan"
	badSuffix   = ".bad"
	tmpPrefix   = ".tmp-"

	// frame layout: magic 'P','C','S', version byte, 4-byte LE CRC-32
	// (IEEE) of everything after the CRC field, then uvarint key
	// length + key bytes + uvarint payload length + payload bytes,
	// ending exactly at the payload's last byte.
	frameVersion    = 1
	frameHeaderSize = 8
)

var frameMagic = [3]byte{'P', 'C', 'S'}

// Options tunes one store.  The zero value is fully durable and
// unbounded.
type Options struct {
	// MaxBytes caps the total on-disk size of committed entries;
	// 0 means unlimited.
	MaxBytes int64
	// CommitSlots is K, how far commits may trail Put: Put waits until
	// the write accepted K writes earlier has landed, so at most K
	// writes are committing at once and none is still pending once K
	// later ones are accepted.  0 means runtime.GOMAXPROCS(0).
	CommitSlots int
}

// Stats is a point-in-time snapshot of one store's counters.  Writes
// counts the writes Put accepted; a commit that then fails counts in
// WriteErrors as well.
type Stats struct {
	Entries     int
	Bytes       int64
	Hits        uint64
	Misses      uint64
	Writes      uint64
	WriteErrors uint64
	Corrupt     uint64
	Evictions   uint64
}

type entry struct {
	name  string // file name within dir
	size  int64
	mtime time.Time
}

// pendingWrite is a write Put accepted whose commit has not landed.
type pendingWrite struct {
	payload []byte
	done    chan struct{} // closed once the commit has landed or failed
}

// Store is a durable content-addressed blob store over one data dir.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*entry // file name -> committed entry
	pending map[string]*pendingWrite
	// ring holds the done channels of the last K accepted writes: write
	// seq takes ring[seq%K] and waits for the write there, seq-K.
	ring  []chan struct{}
	seq   uint64
	bytes int64
	stats Stats
}

// Open scans dir (creating it if needed) and returns a store over it.
// Leftover temp files from a crashed writer are removed; committed
// entries are tallied for the capacity bound but not CRC-verified
// until first read.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan data dir: %w", err)
	}
	if opts.CommitSlots <= 0 {
		opts.CommitSlots = runtime.GOMAXPROCS(0)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		ring:    make([]chan struct{}, opts.CommitSlots),
		entries: make(map[string]*entry),
		pending: make(map[string]*pendingWrite),
	}
	for _, de := range names {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			// A writer died between CreateTemp and rename; the
			// committed state never referenced this file.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.entries[name] = &entry{name: name, size: info.Size(), mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.publish()
	return s, nil
}

// Dir returns the data dir the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Len returns the committed entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}

// Probe verifies the store can still commit an entry: create a temp
// file in the data dir, write to it, rename it in-dir, remove it —
// exactly the syscall sequence writeAtomic needs, so a passing probe
// means the next write-through will not hit a full disk, a read-only
// remount, or a yanked data dir.  The daemon probes once at startup
// (fail fast on a misconfigured -data-dir) and /readyz probes on
// every poll.  Probe files carry tmpPrefix, so one orphaned by a
// crash mid-probe is swept by the next Open like any torn write.
func (s *Store) Probe() error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"probe-*")
	if err != nil {
		return fmt.Errorf("store: probe create: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write([]byte("probe")); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: probe write: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: probe close: %w", err)
	}
	dst := tmp + ".renamed"
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: probe rename: %w", err)
	}
	if err := os.Remove(dst); err != nil {
		return fmt.Errorf("store: probe cleanup: %w", err)
	}
	return nil
}

// publish mirrors the resident tallies to the shared gauges; callers
// hold s.mu or have exclusive access.
func (s *Store) publish() {
	obs.StoreEntries.Set(int64(len(s.entries)))
	obs.StoreBytes.Set(s.bytes)
}

// fileName returns the content-addressed file name for key: the
// SHA-256 of the key, hex-encoded, keeps arbitrary cache-key strings
// (which embed config dumps) out of the filesystem namespace.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + entrySuffix
}

// appendFrame builds the durable frame around key and payload.
func appendFrame(dst []byte, key string, payload []byte) []byte {
	dst = append(dst, frameMagic[0], frameMagic[1], frameMagic[2], frameVersion)
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC backpatched below
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[mark+4:])
	binary.LittleEndian.PutUint32(dst[mark:], crc)
	return dst
}

// parseFrame validates a frame read back from disk and returns its
// payload.  Any deviation — short header, wrong magic or version, CRC
// mismatch, a length field lying about the bytes that follow or padded
// past its minimal form, key mismatch, or trailing garbage — is an
// error; the caller quarantines.
func parseFrame(data []byte, key string) ([]byte, error) {
	if len(data) < frameHeaderSize {
		return nil, fmt.Errorf("store: frame is %d bytes, shorter than the %d-byte header", len(data), frameHeaderSize)
	}
	if data[0] != frameMagic[0] || data[1] != frameMagic[1] || data[2] != frameMagic[2] {
		return nil, errors.New("store: frame magic mismatch")
	}
	if data[3] != frameVersion {
		return nil, fmt.Errorf("store: frame version %d, want %d", data[3], frameVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(data[4:8])
	body := data[8:]
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("store: CRC mismatch: frame says %#x, payload hashes to %#x", wantCRC, got)
	}
	klen, n := binary.Uvarint(body)
	if n <= 0 || klen > uint64(len(body)-n) {
		return nil, errors.New("store: key length field lies about the bytes that follow")
	}
	if padded(body[:n]) {
		return nil, errors.New("store: key length field is a non-minimal varint")
	}
	body = body[n:]
	gotKey := body[:klen]
	body = body[klen:]
	if string(gotKey) != key {
		// Neither key is quoted: the stored one is whatever the disk
		// holds, and escaping either costs up to four bytes per byte.
		return nil, fmt.Errorf("store: entry holds a different %d-byte key than the %d-byte key asked for (hash collision or misfiled entry)", len(gotKey), len(key))
	}
	plen, n := binary.Uvarint(body)
	if n <= 0 || plen != uint64(len(body)-n) {
		return nil, errors.New("store: payload length field lies about the bytes that follow")
	}
	if padded(body[:n]) {
		return nil, errors.New("store: payload length field is a non-minimal varint")
	}
	return body[n:], nil
}

// padded reports whether a uvarint carries a redundant trailing zero
// group (0x80 0x00 for 0).  appendFrame never writes one; refusing it
// keeps every accepted frame the one encoding of its key and payload.
func padded(uvarint []byte) bool {
	return len(uvarint) > 1 && uvarint[len(uvarint)-1] == 0
}

// Get returns the payload stored under key, or false on miss.  A write
// Put accepted is served before its commit lands.  A corrupt entry is
// quarantined and reported as a miss.  A hit on a committed entry
// refreshes its mtime so the LRU sweep sees recency.  The caller owns
// the returned bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	name := fileName(key)
	s.mu.Lock()
	if w, ok := s.pending[name]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		obs.StoreHits.Inc()
		return append([]byte(nil), w.payload...), true
	}
	s.mu.Unlock()
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		obs.StoreMisses.Inc()
		return nil, false
	}
	payload, perr := parseFrame(data, key)
	if perr != nil {
		s.quarantine(name, int64(len(data)))
		obs.StoreMisses.Inc()
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort LRU recency
	s.mu.Lock()
	if e, ok := s.entries[name]; ok {
		e.mtime = now
	}
	s.stats.Hits++
	s.mu.Unlock()
	obs.StoreHits.Inc()
	return payload, true
}

// quarantine moves a corrupt entry aside (never deleting the evidence)
// and drops it from the resident tallies.
func (s *Store) quarantine(name string, size int64) {
	path := filepath.Join(s.dir, name)
	if err := os.Rename(path, path+badSuffix); err != nil {
		// The rename failing (e.g. read-only dir) must not leave the
		// corrupt frame servable; removing is the fallback.
		_ = os.Remove(path)
	}
	s.mu.Lock()
	if _, ok := s.entries[name]; ok {
		delete(s.entries, name)
		s.bytes -= size
	}
	s.stats.Corrupt++
	s.stats.Misses++
	s.publish()
	s.mu.Unlock()
	obs.StoreCorrupt.Inc()
}

// Put accepts payload for a durable write under key and returns once
// the write accepted K writes earlier has landed: the frame is built
// and size-checked here, then a commit goroutine lands it atomically,
// evicting least-recently-used entries as the capacity bound requires.
// Waiting for that one write, not for any free slot, keeps a stalled
// commit from falling ever further behind while later ones pass it.
// Get serves the payload from the moment Put returns; Flush waits for
// the commit.  Two writes of one key commit in the order their Puts
// returned.  The error reports only a rejected write (an entry larger
// than the whole store); a commit that fails later is counted and
// logged — callers treat the store as best-effort either way.
func (s *Store) Put(key string, payload []byte) error {
	name := fileName(key)
	frame := appendFrame(make([]byte, 0, frameHeaderSize+2*binary.MaxVarintLen64+len(key)+len(payload)), key, payload)
	if s.opts.MaxBytes > 0 && int64(len(frame)) > s.opts.MaxBytes {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		obs.StoreWriteErrors.Inc()
		return fmt.Errorf("store: %d-byte entry exceeds the %d-byte store capacity", len(frame), s.opts.MaxBytes)
	}

	w := &pendingWrite{payload: frame[len(frame)-len(payload):], done: make(chan struct{})}
	s.mu.Lock()
	slot := &s.ring[s.seq%uint64(len(s.ring))]
	s.seq++
	behind := *slot
	*slot = w.done
	s.mu.Unlock()
	if behind != nil {
		<-behind
	}
	s.mu.Lock()
	for prev, ok := s.pending[name]; ok; prev, ok = s.pending[name] {
		// An earlier write of this key is still committing; landing
		// after it keeps the newer payload on disk.
		s.mu.Unlock()
		<-prev.done
		s.mu.Lock()
	}
	s.pending[name] = w
	s.stats.Writes++
	s.mu.Unlock()
	obs.StoreWrites.Inc()
	go s.commit(name, frame, w)
	return nil
}

// commit lands one accepted write and accounts for it.
func (s *Store) commit(name string, frame []byte, w *pendingWrite) {
	err := s.writeAtomic(name, frame)
	size := int64(len(frame))
	s.mu.Lock()
	delete(s.pending, name)
	if err != nil {
		s.stats.WriteErrors++
	} else {
		// Room is made under the lock that admits the entry: commits
		// that each made room before writing could otherwise all land
		// past the bound.
		s.makeRoom(name, size)
		if old, ok := s.entries[name]; ok {
			s.bytes -= old.size
		}
		s.entries[name] = &entry{name: name, size: size, mtime: time.Now()}
		s.bytes += size
		s.publish()
	}
	s.mu.Unlock()
	close(w.done)
	if err != nil {
		obs.StoreWriteErrors.Inc()
		obs.Log().Warn("store write-behind commit failed", "file", name, "err", err)
	}
}

// Flush waits until every write Put accepted before the call has
// committed or failed, or until ctx ends.  The daemon's drain calls it
// so an accepted write is on disk before the process exits.
func (s *Store) Flush(ctx context.Context) error {
	s.mu.Lock()
	waits := make([]chan struct{}, 0, len(s.pending))
	for _, w := range s.pending {
		waits = append(waits, w.done)
	}
	s.mu.Unlock()
	for _, done := range waits {
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("store: flush: %w", ctx.Err())
		}
	}
	return nil
}

// makeRoom evicts LRU entries until an incoming entry of the given
// size (possibly replacing name) fits the bounds.  Caller holds s.mu.
func (s *Store) makeRoom(name string, size int64) {
	overBytes := func() bool {
		if s.opts.MaxBytes <= 0 {
			return false
		}
		b := s.bytes + size
		if old, ok := s.entries[name]; ok {
			b -= old.size
		}
		return b > s.opts.MaxBytes
	}
	if !overBytes() {
		return
	}
	// Oldest-first sweep; ties break by name so eviction order is
	// deterministic under coarse mtime clocks.
	victims := make([]*entry, 0, len(s.entries))
	for n, e := range s.entries {
		if n == name {
			continue // the entry being replaced is accounted above
		}
		victims = append(victims, e)
	}
	sort.Slice(victims, func(i, j int) bool {
		if !victims[i].mtime.Equal(victims[j].mtime) {
			return victims[i].mtime.Before(victims[j].mtime)
		}
		return victims[i].name < victims[j].name
	})
	for _, v := range victims {
		if !overBytes() {
			break
		}
		_ = os.Remove(filepath.Join(s.dir, v.name))
		delete(s.entries, v.name)
		s.bytes -= v.size
		s.stats.Evictions++
		obs.StoreEvictions.Inc()
	}
	s.publish()
}

// writeAtomic lands frame at name via temp-file + rename, fsyncing the
// file and the dir.
func (s *Store) writeAtomic(name string, frame []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: create temp entry: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(frame); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: write entry: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: sync entry: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: close entry: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: commit entry: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
