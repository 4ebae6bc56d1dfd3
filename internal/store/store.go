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
//   - reads are CRC-guarded: a frame failing its magic, version,
//     length, key, or CRC-32 check is quarantined (renamed to *.bad)
//     and reported as a miss, never served;
//   - capacity is bounded: when MaxBytes would be exceeded, the
//     least-recently-used entries (by file mtime, refreshed on every
//     hit) are evicted until the new entry fits.
//
// The store itself runs no goroutines; a *Store is safe for
// concurrent use by any number of callers.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	// NoSync skips the fsync calls on write (for tests that do not
	// need crash durability).
	NoSync bool
}

// Stats is a point-in-time snapshot of one store's counters.
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

// Store is a durable content-addressed blob store over one data dir.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*entry // file name -> entry
	bytes   int64
	stats   Stats
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
	s := &Store{dir: dir, opts: opts, entries: make(map[string]*entry)}
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
	gotKey := string(body[:klen])
	body = body[klen:]
	if gotKey != key {
		return nil, fmt.Errorf("store: entry holds key %q, want %q (hash collision or misfiled entry)", gotKey, key)
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

// Get returns the payload stored under key, or false on miss.  A
// corrupt entry is quarantined and reported as a miss.  A hit
// refreshes the entry's mtime so the LRU sweep sees recency.
func (s *Store) Get(key string) ([]byte, bool) {
	name := fileName(key)
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

// Put durably stores payload under key, evicting least-recently-used
// entries as the capacity bound requires.  Overwriting an
// existing key is atomic.  The error is informational — callers treat
// the store as best-effort — but the counters record it.
func (s *Store) Put(key string, payload []byte) error {
	name := fileName(key)
	frame := appendFrame(make([]byte, 0, frameHeaderSize+2*binary.MaxVarintLen64+len(key)+len(payload)), key, payload)
	size := int64(len(frame))
	if s.opts.MaxBytes > 0 && size > s.opts.MaxBytes {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		obs.StoreWriteErrors.Inc()
		return fmt.Errorf("store: %d-byte entry exceeds the %d-byte store capacity", size, s.opts.MaxBytes)
	}

	if err := s.writeAtomic(name, frame); err != nil {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		obs.StoreWriteErrors.Inc()
		return err
	}

	s.mu.Lock()
	// Room is made under the lock that admits the entry: Puts that each
	// made room before writing could otherwise all commit past the bound.
	s.makeRoom(name, size)
	if old, ok := s.entries[name]; ok {
		s.bytes -= old.size
	}
	s.entries[name] = &entry{name: name, size: size, mtime: time.Now()}
	s.bytes += size
	s.stats.Writes++
	s.publish()
	s.mu.Unlock()
	obs.StoreWrites.Inc()
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
// file and the dir unless NoSync.
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
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			_ = os.Remove(tmp)
			return fmt.Errorf("store: sync entry: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: close entry: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: commit entry: %w", err)
	}
	if !s.opts.NoSync {
		if d, err := os.Open(s.dir); err == nil {
			_ = d.Sync()
			d.Close()
		}
	}
	return nil
}
