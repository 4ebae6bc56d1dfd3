// Package obs is the module's observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms and
// phase timers), a structured-logging setup built on log/slog, and an
// opt-in debug HTTP server exposing the registry in Prometheus text
// format and as a JSON snapshot alongside net/http/pprof.
//
// Every instrument the module records lives in one shared registry
// (Default), and the standard instruments are declared centrally in
// this package (see metrics.go) — the obsreg vet pass keeps ad-hoc
// metric creation (expvar, private registries) out of the rest of the
// tree.  Instrument writes are one atomic load (the global enable
// gate) plus one atomic add, so the hot layers can record
// unconditionally; SetEnabled(false) turns every write into the load
// alone, which is the "instrumented-off" path the overhead benchmarks
// compare against.
//
// Metric naming follows the Prometheus convention:
//
//	paraconv_<subsystem>_<metric>[_<unit>][_total]
//
// with subsystems plancache, plan, sched, sim and runner, and the
// small fixed label sets (variant, scheme, place) declared where the
// instrument is created.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global instrument gate.  Checked on every write; the
// exporters always read whatever has been recorded.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether instrument writes are currently recorded.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns instrument writes on or off globally.  Disabling is
// the reference "uninstrumented" path for overhead measurements; the
// registry and exporters keep working either way.
func SetEnabled(on bool) { enabled.Store(on) }

// Label is one metric dimension.  Labels are fixed at instrument
// creation — there is no dynamic label cardinality.
type Label struct {
	Key   string
	Value string
}

// Kind discriminates the instrument types of a registry.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta; negative deltas are ignored
// (counters are monotone by definition).
func (c *Counter) Add(delta int64) {
	if delta <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Fixed bucket layouts.  Keeping the layouts centralized means every
// latency histogram is comparable to every other and dashboards never
// chase per-metric bucket drift.
var (
	// DurationBuckets covers 100µs to 10s — wall-clock phases
	// (plan solves, queue waits) measured in seconds.
	DurationBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// TimeUnitBuckets covers schedule-time quantities (makespans,
	// periods, prologue lengths) in the simulator's abstract units.
	TimeUnitBuckets = []float64{
		1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
	}
)

// Histogram is a fixed-bucket distribution metric.  Observations are
// mutex-guarded: the module observes per solved plan or per job, never
// per simulated cycle, so contention is negligible.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1; last slot is the +Inf overflow
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistogramState is a point-in-time copy of a histogram's contents.
// BucketCounts[i] is the (non-cumulative) count of samples <=
// Bounds[i]; the final extra slot counts samples above every bound.
type HistogramState struct {
	Bounds       []float64
	BucketCounts []uint64
	Sum          float64
	Count        uint64
}

// State returns a consistent snapshot of the histogram.
func (h *Histogram) State() HistogramState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramState{
		Bounds:       append([]float64(nil), h.bounds...),
		BucketCounts: append([]uint64(nil), h.counts...),
		Sum:          h.sum,
		Count:        h.count,
	}
}

// Timer records elapsed wall-clock phases into a seconds histogram.
type Timer struct {
	h *Histogram
}

// Observe records one elapsed duration.
func (t *Timer) Observe(d time.Duration) { t.h.Observe(d.Seconds()) }

// Start begins a phase and returns the function that ends it.  When
// instrumentation is disabled the returned stop is a no-op and the
// clock is never read.
func (t *Timer) Start() func() {
	if !enabled.Load() {
		return func() {}
	}
	t0 := time.Now()
	return func() { t.Observe(time.Since(t0)) }
}

// Histogram exposes the timer's underlying distribution.
func (t *Timer) Histogram() *Histogram { return t.h }

// instrument is one registered metric: identity plus exactly one of
// the value holders, discriminated by kind.
type instrument struct {
	name     string
	help     string
	kind     Kind
	labels   []Label // sorted by key
	labelKey string  // canonical `k="v",...` rendering ("" if unlabeled)

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry is a concurrency-safe collection of instruments.  Creation
// methods are idempotent: asking for an existing (name, labels, kind)
// triple returns the already-registered instrument, so instruments can
// be looked up on demand without double registration.  A (name,
// labels) collision with a different kind returns a detached
// instrument that records but never exports — misuse cannot corrupt
// the export formats.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*instrument
	list  []*instrument
}

// NewRegistry returns an empty registry.  Most code should use the
// shared Default registry; private registries are for tests (the
// obsreg vet pass enforces this).
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*instrument)}
}

// canonLabels sorts a copy of the labels by key and renders the
// canonical `k="v",...` form used for identity and export.
func canonLabels(labels []Label) ([]Label, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return ls, b.String()
}

// lookup returns the instrument for (name, labels, kind), creating and
// registering it on first use.  A kind conflict yields a detached
// instrument (registered under no key, exported never).
func (r *Registry) lookup(name, help string, kind Kind, bounds []float64, labels []Label) *instrument {
	ls, labelKey := canonLabels(labels)
	key := name + "\x00" + labelKey
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byKey[key]; ok && in.kind == kind {
		return in
	}
	in := &instrument{name: name, help: help, kind: kind, labels: ls, labelKey: labelKey}
	switch kind {
	case KindCounter:
		in.counter = &Counter{}
	case KindGauge:
		in.gauge = &Gauge{}
	case KindHistogram:
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		in.hist = &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
	}
	if existing, ok := r.byKey[key]; ok && existing.kind != kind {
		return in // detached: identity already claimed by another kind
	}
	r.byKey[key] = in
	r.list = append(r.list, in)
	return in
}

// Counter returns the registered counter with the given identity,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, KindCounter, nil, labels).counter
}

// Gauge returns the registered gauge with the given identity, creating
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, KindGauge, nil, labels).gauge
}

// Histogram returns the registered histogram with the given identity,
// creating it (with the given fixed bucket bounds) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, KindHistogram, bounds, labels).hist
}

// Timer returns a phase timer over a seconds histogram with the
// standard DurationBuckets layout.
func (r *Registry) Timer(name, help string, labels ...Label) *Timer {
	return &Timer{h: r.Histogram(name, help, DurationBuckets, labels...)}
}

// Reset zeroes every registered instrument's recorded values, keeping
// the registrations (names, helps, bucket layouts) intact.  Tests use
// it to isolate assertions against the shared Default registry; the
// SLO evaluator clamps deltas at zero so a mid-window Reset reads as
// no traffic, never as negative traffic.
func (r *Registry) Reset() {
	r.mu.Lock()
	list := append([]*instrument(nil), r.list...)
	r.mu.Unlock()
	for _, in := range list {
		switch in.kind {
		case KindCounter:
			in.counter.v.Store(0)
		case KindGauge:
			in.gauge.v.Store(0)
		case KindHistogram:
			h := in.hist
			h.mu.Lock()
			for i := range h.counts {
				h.counts[i] = 0
			}
			h.sum = 0
			h.count = 0
			h.mu.Unlock()
		}
	}
}

// instruments returns a stable copy of the registered instruments,
// sorted by name then label key — the export order of both formats.
func (r *Registry) instruments() []*instrument {
	r.mu.Lock()
	out := append([]*instrument(nil), r.list...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labelKey < out[j].labelKey
	})
	return out
}
