// Package span is the request-scoped tracing layer: a context-carried
// Trace whose cheap Start/End spans attribute a single request's
// latency to the pipeline stages it crossed — decode, fingerprint,
// cache lookup, singleflight, retiming, knapsack allocation,
// simulation — instead of folding everything into one aggregate
// histogram the way internal/obs does.
//
// The design is shaped by the serving hot path:
//
//   - Tracing is gated by one global atomic (SetEnabled).  When off,
//     Start performs a single atomic load and returns the zero Span,
//     whose End is a no-op: zero allocations, no clock read, no
//     context lookup — the disabled path sits inside the serving
//     layer's AllocsPerRun gates.
//   - A Span is a value (trace pointer + index), so starting and
//     ending spans never allocates; only the Trace itself and its
//     grow-on-demand record slice touch the heap, once per sampled
//     request.
//   - Span times are offsets from the trace's start on the monotonic
//     clock (time.Since), immune to wall-clock steps.
//   - A Trace is internally locked: the serving handler and the pool
//     worker that outlives a 504 may both append spans, and the debug
//     endpoints may export a trace that late spans are still landing
//     in.
//
// Completed traces are published to a fixed-size lock-striped Ring
// (ring.go) and served at /debug/traces (handler.go) as JSON and as
// Chrome trace-event documents (chrome.go) that open in the same
// viewer as the simulator's PE timelines.
package span

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global tracing gate: the one check every Start makes
// before touching the context.  Off is the default; the serving layer
// turns it on when a sampling rate is configured.
var enabled atomic.Bool

// Enabled reports whether tracing is globally on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns the tracing layer on or off globally.  When off,
// Start is a single atomic load returning a no-op Span.
func SetEnabled(on bool) { enabled.Store(on) }

// maxSpans bounds one trace's record count so a pathological request
// (a planner looping over thousands of stages) cannot grow a trace
// without limit; spans past the cap are counted in Dropped.
const maxSpans = 1024

// ID is a 128-bit trace identifier.
type ID struct {
	Hi, Lo uint64
}

// String renders the id as 32 lowercase hex digits.
func (id ID) String() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], id.Hi)
	binary.BigEndian.PutUint64(b[8:], id.Lo)
	return hex.EncodeToString(b[:])
}

// idState seeds the id generator once from the OS entropy pool; ids
// are then drawn by mixing an atomic counter (splitmix64), so minting
// an id is two atomic ops and never allocates or syscalls.
var idState struct {
	seed uint64
	ctr  atomic.Uint64
}

func init() {
	var b [16]byte
	if _, err := rand.Read(b[:]); err == nil {
		idState.seed = binary.LittleEndian.Uint64(b[:8])
		idState.ctr.Store(binary.LittleEndian.Uint64(b[8:]))
	} else {
		// Entropy failure: fall back to the clock.  Ids lose global
		// uniqueness but stay unique within the process, which is all
		// the ring and the debug endpoints need.
		idState.seed = uint64(time.Now().UnixNano())
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-distributed 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newID mints a process-unique 128-bit id.
func newID() ID {
	c := idState.ctr.Add(1)
	return ID{Hi: splitmix64(idState.seed + c), Lo: splitmix64(c ^ 0xa5a5a5a5a5a5a5a5)}
}

// Record is one completed (or still-open) span inside a trace.  Times
// are monotonic offsets from the trace's start.
type Record struct {
	// Name identifies the stage ("server.plan", "sched.knapsack", ...).
	Name string `json:"name"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Start and End are nanoseconds since the trace began; End is 0
	// for a span still open when the trace was exported.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Trace is one request's span log.  It is safe for concurrent use;
// the zero value is not usable — call New.
type Trace struct {
	id    ID
	wall  time.Time // wall-clock start, for display only
	began time.Time // carries the monotonic reading every span offsets from

	mu       sync.Mutex
	spans    []Record
	open     []int // stack of open span indices (for parent attribution)
	dropped  int
	duration time.Duration // set by Finish; 0 while in flight
}

// New starts a trace with a fresh id, clocked from now.
func New() *Trace {
	now := time.Now()
	return &Trace{id: newID(), wall: now, began: now}
}

// ID returns the trace's identifier.
func (t *Trace) ID() ID { return t.id }

// Started returns the trace's wall-clock start time.
func (t *Trace) Started() time.Time { return t.wall }

// Finish stamps the trace's total duration (idempotent: the first
// call wins) and returns it.
func (t *Trace) Finish() time.Duration {
	d := time.Since(t.began)
	t.mu.Lock()
	if t.duration == 0 {
		t.duration = d
	}
	d = t.duration
	t.mu.Unlock()
	return d
}

// Duration returns the finished trace's total duration (0 while the
// request is still in flight).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.duration
}

// start opens a span named name under the innermost open span.
func (t *Trace) start(name string) Span {
	offset := time.Since(t.began)
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return Span{}
	}
	idx := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, Record{Name: name, Parent: parent, Start: offset})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return Span{tr: t, idx: int32(idx)}
}

// end closes the span at idx and pops it from the open stack (wherever
// it sits: spans ended out of order do not corrupt the stack).
func (t *Trace) end(idx int32) {
	offset := time.Since(t.began)
	t.mu.Lock()
	if int(idx) < len(t.spans) && t.spans[idx].End == 0 {
		t.spans[idx].End = offset
	}
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == int(idx) {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// Export returns a consistent copy of the span records (late spans may
// still be appended by a worker that outlived its request's deadline;
// the copy is what the debug endpoints serialize).
func (t *Trace) Export() []Record {
	t.mu.Lock()
	out := append([]Record(nil), t.spans...)
	t.mu.Unlock()
	return out
}

// Len returns the current span count.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Span is one in-flight stage measurement.  The zero Span (returned
// when tracing is off, the context carries no trace, or the trace is
// full) is a valid no-op: End does nothing.
type Span struct {
	tr  *Trace
	idx int32
}

// End closes the span.  Calling End twice, or on the zero Span, is
// harmless.
func (s Span) End() {
	if s.tr != nil {
		s.tr.end(s.idx)
	}
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// NewContext returns ctx carrying tr.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// Start opens a span named name on the trace carried by ctx.  When
// tracing is globally off or ctx carries no trace, it returns the
// zero Span without reading the clock or touching the context value —
// the zero-alloc no-op path the serving gates measure.
func Start(ctx context.Context, name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	if tr == nil {
		return Span{}
	}
	return tr.start(name)
}

// Sampler decides which requests get a trace: 1-in-N up front, plus
// every request that turns out slower than the slow threshold (the
// caller traces the request either way and asks Admit at the end, so
// a slow outlier is never lost to the modulus).
type Sampler struct {
	// Every is the 1-in-N sampling rate; <= 0 disables tracing.
	Every int
	// Slow admits any request at least this slow regardless of the
	// counter; 0 disables the slow lane.
	Slow time.Duration

	ctr atomic.Uint64
}

// Tracing reports whether the sampler traces at all.
func (s *Sampler) Tracing() bool { return s != nil && s.Every > 0 }

// Sampled draws the up-front 1-in-N decision for one request.
func (s *Sampler) Sampled() bool {
	if !s.Tracing() {
		return false
	}
	return s.ctr.Add(1)%uint64(s.Every) == 0
}

// Admit decides whether a finished trace belongs in the ring: it was
// sampled up front, or it crossed the slow threshold.
func (s *Sampler) Admit(sampled bool, d time.Duration) bool {
	if !s.Tracing() {
		return false
	}
	return sampled || (s.Slow > 0 && d >= s.Slow)
}
