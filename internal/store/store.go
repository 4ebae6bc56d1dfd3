// Package store is the durable, content-addressed blob store behind
// the in-memory plan cache: CRC-guarded frames around opaque payloads
// (wire-encoded plans), appended to segment files in a flat data dir
// and indexed in memory by key.
//
// Durability invariants live in this package and nowhere else — the
// fsio vet pass bans direct os.Create/os.WriteFile/os.Rename outside
// it:
//
//   - writes are group-committed and bounded: Put queues the frame and
//     returns once the write accepted K writes earlier has landed (K
//     fixed at Open); one committer appends everything queued with one
//     write and one fsync, and truncates a failed batch away, so a
//     write is either on disk and indexed or counted in WriteErrors;
//     Get serves an accepted write before it lands, Flush waits for
//     all of them, and a crash loses at most K entries, which the cache
//     above simply recomputes;
//   - reads are CRC-guarded: Open truncates each segment at its first
//     frame failing its magic, version, length or CRC check (a torn
//     tail), and Get re-checks the frame it reads, dropping one that
//     has rotted since and reporting a miss;
//   - capacity is bounded: the active segment rotates at
//     min(MaxBytes/4, 1 MiB), and past MaxBytes the oldest whole
//     segments are removed (FIFO).
//
// The only goroutines the store runs are its in-flight commits: one
// committer, started by a Put into an empty queue and gone once the
// queue is empty.  A *Store is safe for concurrent use.
package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/frame"
	"repro/internal/obs"
)

const (
	// Segment files are "<16 hex digit id>.seg", rotated at
	// min(MaxBytes/4, maxSegmentBytes); probe files carry tmpPrefix.
	segSuffix       = ".seg"
	tmpPrefix       = ".tmp-"
	maxSegmentBytes = 1 << 20
	// frame layout: internal/frame's envelope ('P','C','S', version),
	// 4-byte LE CRC-32 (IEEE) of everything after the CRC field, then
	// the key and the payload as length-prefixed byte strings, ending
	// exactly at the payload's last byte.
	frameKind       = 'S'
	frameVersion    = 1
	frameHeaderSize = 8
)

// Options tunes one store; the zero value is durable and unbounded.
type Options struct {
	// MaxBytes caps the segments' total size; 0 means unlimited.
	MaxBytes int64
	// CommitSlots is K, how far commits may trail Put: Put waits until
	// the write accepted K writes earlier has landed, so at most K
	// writes are pending at once.  0 means runtime.GOMAXPROCS(0).
	CommitSlots int
}

// Stats is a point-in-time snapshot of one store's counters.  Writes
// counts the writes Put accepted, WriteErrors those rejected or in a
// failed batch; Bytes is the segments' size, overwritten frames
// included; Evictions counts the entries removed with their segment.
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

// segment is one append-only file of frames.
type segment struct {
	id   uint64
	f    *os.File
	size int64    // bytes of whole frames; written by the committer only
	keys []string // keys of the frames indexed into it, guarded by mu
}

// location is where one committed frame lies.
type location struct {
	seg *segment
	off int64
	n   int
}

// pendingWrite is a write Put accepted whose commit has not landed;
// its payload is the frame's last plen bytes.
type pendingWrite struct {
	key   string
	frame []byte
	plen  int
	done  chan struct{} // closed once its batch has landed or failed
}

// Store is a durable content-addressed blob store over one data dir.
type Store struct {
	dir      string
	opts     Options
	segBytes int64 // the active segment rotates once it holds this much

	// segs, active and nextID belong to Open, then the committer.
	segs   []*segment // oldest first
	active *segment   // appends land here; nil until the next commit creates one
	nextID uint64

	mu         sync.Mutex
	index      map[string]location
	pending    map[string]*pendingWrite // each key's newest write not yet landed
	queue      []*pendingWrite          // accepted, not yet taken by the committer
	committing bool                     // a committer is running
	closed     bool                     // Close was called: no write is accepted
	tail       chan struct{}            // done of the newest accepted write
	// ring holds the done channels of the last K accepted writes: write
	// seq takes ring[seq%K] and waits for the write there, seq-K.
	ring  []chan struct{}
	seq   uint64
	bytes int64
	stats Stats
}

// Open scans dir (creating it if needed) and returns a store over it:
// segments in id order, every frame checked, a later frame of a key
// winning.  Leftover probe files from a crash are removed.
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
		dir:      dir,
		opts:     opts,
		segBytes: maxSegmentBytes,
		ring:     make([]chan struct{}, opts.CommitSlots),
		index:    make(map[string]location),
		pending:  make(map[string]*pendingWrite),
	}
	if opts.MaxBytes > 0 {
		s.segBytes = min(opts.MaxBytes/4, s.segBytes)
	}
	// ReadDir sorts by name, and fixed-width hex names sort by id.
	for _, de := range names {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil || name != filepath.Base(s.segPath(id)) || !de.Type().IsRegular() {
			continue
		}
		if err := s.scan(id); err != nil {
			return nil, err
		}
		s.nextID = id + 1
	}
	s.publish()
	return s, nil
}

// segPath returns the file path of segment id.
func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x%s", id, segSuffix))
}

// scan indexes every frame of segment id; the first frame that fails
// its checks counts one Corrupt, and the segment is truncated there.
func (s *Store) scan(id uint64) error {
	path := s.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: read segment: %w", err)
	}
	seg := &segment{id: id}
	for int(seg.size) < len(data) {
		key, _, n, err := nextFrame(data[seg.size:])
		if err != nil {
			s.stats.Corrupt++
			obs.StoreCorrupt.Inc()
			obs.Log().Warn("store segment has a torn or corrupt tail; truncating", "segment", path, "offset", seg.size, "err", err)
			if err := os.Truncate(path, seg.size); err != nil {
				return fmt.Errorf("store: truncate torn segment: %w", err)
			}
			break
		}
		k := string(key)
		s.index[k] = location{seg: seg, off: seg.size, n: n}
		seg.keys = append(seg.keys, k)
		seg.size += int64(n)
	}
	if seg.f, err = os.Open(path); err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	s.segs = append(s.segs, seg)
	s.bytes += seg.size
	return nil
}

// Dir returns the data dir the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.bytes
	return st
}

// Probe verifies the store can still commit: create a file in the
// data dir, write it, remove it — what a segment rotation and an
// eviction need — so a passing probe means the next commit will not
// hit a full disk, a read-only remount, or a yanked data dir.  The
// daemon probes at startup and /readyz on every poll.  A probe file
// orphaned by a crash carries tmpPrefix and is swept by the next Open.
func (s *Store) Probe() error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"probe-*")
	if err == nil {
		_, err = f.Write([]byte("probe"))
		err = errors.Join(err, f.Close(), os.Remove(f.Name()))
	}
	if err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	return nil
}

// publish mirrors the tallies to the shared gauges; callers hold s.mu
// or have exclusive access.
func (s *Store) publish() {
	obs.StoreEntries.Set(int64(len(s.index)))
	obs.StoreBytes.Set(s.bytes)
}

// appendFrame builds the durable frame around key and payload.
func appendFrame(dst []byte, key string, payload []byte) []byte {
	dst = frame.AppendHeader(dst, frameKind, frameVersion)
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC backpatched below
	dst = frame.AppendBytes(dst, key)
	dst = frame.AppendBytes(dst, payload)
	crc := crc32.ChecksumIEEE(dst[mark+4:])
	binary.LittleEndian.PutUint32(dst[mark:], crc)
	return dst
}

// nextFrame checks the frame at the head of data and returns its key,
// its payload and its length.  Any deviation — short header, wrong
// magic or version, a length field lying about the bytes that follow
// or padded past its minimal form, CRC mismatch — is an error.
func nextFrame(data []byte) (key, payload []byte, n int, err error) {
	r := frame.Open(data, "store: ", frameKind, frameVersion)
	want := r.Uint32("crc")
	key, payload = r.Bytes("key"), r.Bytes("payload")
	if err := r.Err(); err != nil {
		return nil, nil, 0, err
	}
	n = r.Offset()
	if got := crc32.ChecksumIEEE(data[frameHeaderSize:n]); got != want {
		return nil, nil, 0, fmt.Errorf("store: CRC mismatch: frame says %#x, its bytes hash to %#x", want, got)
	}
	return key, payload, n, nil
}

// parseFrame checks that data is exactly one frame recorded under key
// and returns its payload.
func parseFrame(data []byte, key string) ([]byte, error) {
	got, payload, n, err := nextFrame(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("store: %d trailing bytes after the frame", len(data)-n)
	}
	if string(got) != key {
		// Neither key is quoted: the stored one is whatever the disk
		// holds, and escaping either costs up to four bytes per byte.
		return nil, fmt.Errorf("store: frame holds a different %d-byte key than the %d-byte key asked for", len(got), len(key))
	}
	return payload, nil
}

// Get returns the payload stored under key, or false on miss.  A write
// Put accepted is served before its commit lands.  A committed frame
// is read with one pread and re-checked; one that fails is dropped
// from the index, counted Corrupt and reported as a miss.  The caller
// owns the returned bytes.
func (s *Store) Get(key string) (payload []byte, hit bool) {
	s.mu.Lock()
	w, hit := s.pending[key]
	loc, ok := s.index[key]
	s.mu.Unlock()
	var err error
	if hit {
		payload = append([]byte(nil), w.frame[len(w.frame)-w.plen:]...)
	} else if ok {
		data := make([]byte, loc.n)
		if _, err = loc.seg.f.ReadAt(data, loc.off); err == nil {
			payload, err = parseFrame(data, key)
		}
		hit = err == nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A closed segment was evicted under us; any other failure means
	// the frame on disk is no longer the one indexed: drop it, unless
	// the key has moved on since the lookup.
	if err != nil && !errors.Is(err, os.ErrClosed) && s.index[key] == loc {
		delete(s.index, key)
		s.stats.Corrupt++
		s.publish()
		obs.StoreCorrupt.Inc()
		obs.Log().Warn("store frame failed its re-check; dropped", "segment", s.segPath(loc.seg.id), "offset", loc.off, "err", err)
	}
	if hit {
		s.stats.Hits++
		obs.StoreHits.Inc()
	} else {
		s.stats.Misses++
		obs.StoreMisses.Inc()
	}
	return payload, hit
}

// Put accepts payload for a durable write under key: it builds and
// size-checks the frame, waits until the write accepted K writes
// earlier has landed (one write, not any free slot, so a stalled
// commit cannot be overtaken without bound), and queues the frame for
// the committer.  Get serves the payload from the moment Put returns.
// Writes land in queue order, so of two writes of one key the later
// wins.  The error reports only a rejected write (an entry larger than
// the whole store, or a closed store); a failed commit is counted and
// logged.
func (s *Store) Put(key string, payload []byte) error {
	frame := appendFrame(make([]byte, 0, frameHeaderSize+2*binary.MaxVarintLen64+len(key)+len(payload)), key, payload)
	if s.opts.MaxBytes > 0 && int64(len(frame)) > s.opts.MaxBytes {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		obs.StoreWriteErrors.Inc()
		return fmt.Errorf("store: %d-byte entry exceeds the %d-byte store capacity", len(frame), s.opts.MaxBytes)
	}

	w := &pendingWrite{key: key, frame: frame, plen: len(payload), done: make(chan struct{})}
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
	if s.closed {
		// Refused, so release the write that waits on this one.
		s.mu.Unlock()
		close(w.done)
		return errors.New("store: closed")
	}
	s.pending[key] = w
	s.queue = append(s.queue, w)
	s.tail = w.done
	s.stats.Writes++
	start := !s.committing
	s.committing = true
	s.mu.Unlock()
	obs.StoreWrites.Inc()
	if start {
		go s.commitLoop()
	}
	return nil
}

// commitLoop lands the queued writes batch by batch, each with one
// write and one fsync, and returns once the queue is empty.
func (s *Store) commitLoop() {
	var buf []byte
	for {
		s.mu.Lock()
		batch := s.queue
		s.queue = nil
		if len(batch) == 0 {
			s.committing = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		buf = buf[:0]
		for _, w := range batch {
			buf = append(buf, w.frame...)
		}
		seg, off, err := s.append(buf)
		s.mu.Lock()
		for _, w := range batch {
			close(w.done)
			if s.pending[w.key] == w {
				delete(s.pending, w.key)
			}
			if err != nil {
				s.stats.WriteErrors++
				continue
			}
			s.index[w.key] = location{seg: seg, off: off, n: len(w.frame)}
			seg.keys = append(seg.keys, w.key)
			off += int64(len(w.frame))
			s.bytes += int64(len(w.frame))
		}
		s.publish()
		s.mu.Unlock()
		if err != nil {
			obs.StoreWriteErrors.Add(int64(len(batch)))
			obs.Log().Warn("store batch commit failed", "writes", len(batch), "err", err)
		}
	}
}

// append lands buf on the active segment with one write and one fsync,
// rotating and evicting first as the bounds require, and returns where
// it landed.  A failed write is truncated away; if the truncate fails
// too, the next batch starts a new segment.
func (s *Store) append(buf []byte) (*segment, int64, error) {
	if s.active != nil && s.active.size >= s.segBytes {
		s.active = nil // rotate; the old segment stays open for reads
	}
	dirty := s.makeRoom(int64(len(buf)))
	if s.active == nil {
		f, err := os.OpenFile(s.segPath(s.nextID), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, 0, fmt.Errorf("store: create segment: %w", err)
		}
		s.active = &segment{id: s.nextID, f: f}
		s.segs = append(s.segs, s.active)
		s.nextID++
		dirty = true
	}
	if dirty {
		if d, err := os.Open(s.dir); err == nil {
			_ = d.Sync()
			d.Close()
		}
	}
	seg, off := s.active, s.active.size
	_, err := seg.f.WriteAt(buf, off)
	if err == nil {
		err = seg.f.Sync()
	}
	if err != nil {
		if seg.f.Truncate(off) != nil {
			s.active = nil
		}
		return nil, 0, fmt.Errorf("store: append %d bytes to segment %016x: %w", len(buf), seg.id, err)
	}
	seg.size += int64(len(buf))
	return seg, off, nil
}

// makeRoom removes the oldest segments until need more bytes fit the
// bound, and reports whether it removed any.
func (s *Store) makeRoom(need int64) bool {
	var victims []*segment
	s.mu.Lock()
	for s.opts.MaxBytes > 0 && len(s.segs) > 0 && s.bytes+need > s.opts.MaxBytes {
		v := s.segs[0]
		s.segs, victims = s.segs[1:], append(victims, v)
		if v == s.active {
			s.active = nil
		}
		for _, key := range v.keys {
			if s.index[key].seg == v {
				delete(s.index, key)
				s.stats.Evictions++
				obs.StoreEvictions.Inc()
			}
		}
		s.bytes -= v.size
	}
	s.publish()
	s.mu.Unlock()
	for _, v := range victims {
		v.f.Close()
		_ = os.Remove(s.segPath(v.id))
	}
	return len(victims) > 0
}

// Close refuses later writes, waits as Flush does for the accepted
// ones, then closes every segment file, so a later Put is an error and
// a Get a miss.  If ctx ends first, it closes nothing (a commit may
// still be writing).  The daemon's drain calls it.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if err := s.Flush(ctx); err != nil {
		return err
	}
	// No write is queued or landing, so no commit touches a segment.
	var errs []error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Flush waits until every write Put accepted before the call has
// landed or failed (writes land in queue order, so that is the newest
// one), or until ctx ends.
func (s *Store) Flush(ctx context.Context) error {
	s.mu.Lock()
	tail := s.tail
	s.mu.Unlock()
	if tail != nil {
		select {
		case <-tail:
		case <-ctx.Done():
			return fmt.Errorf("store: flush: %w", ctx.Err())
		}
	}
	return nil
}
