package main

import "math"

// metricDef names one reported metric.  The two tables below are the
// benchmark's contract: BENCHMARK.json at the repository root lists
// exactly these names, units and directions (a unit test compares
// them), and later issues name their claim with these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an
	// end-to-end metric may get worse before a change counts as a
	// regression.  Per-layer metrics are informational and carry none.
	Bound float64
}

// endToEnd are the metrics a caller of the planning service sees, the
// same names on every workload.  The bounds come from the A/A runs
// recorded in README.md.  failed_share (always 0 on a passing run) is
// printed with them but travels as the result line's failed/attempted
// counts, because a gate cannot be a share of a zero median.
var endToEnd = []metricDef{
	{Name: "plans_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_plan", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the layer metrics, prefixed with the package they
// belong to.  A `_us` metric is the p50 of the named call's time over
// the traced pass unless its comment in README.md says "self".
var perLayer = []metricDef{
	{Name: "dag.decode_binary_us", Unit: "us", Better: "lower"},
	{Name: "dag.append_binary_us", Unit: "us", Better: "lower"},

	{Name: "wire.decode_request_us", Unit: "us", Better: "lower"},
	{Name: "wire.append_plan_response_us", Unit: "us", Better: "lower"},
	{Name: "wire.append_plan_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_plan_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_fill_plan_us", Unit: "us", Better: "lower"},
	{Name: "wire.request_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.response_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.plan_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.lean_frame_bytes", Unit: "B", Better: "lower"},

	{Name: "run.graph_fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "run.plan_hit_us", Unit: "us", Better: "lower"},
	{Name: "run.mem_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "run.solve_share", Unit: "ratio", Better: "lower"},
	{Name: "run.dedup_share", Unit: "ratio", Better: "lower"},

	{Name: "sched.paraconv_us", Unit: "us", Better: "lower"},
	{Name: "sched.objective_us", Unit: "us", Better: "lower"},
	{Name: "sched.validate_us", Unit: "us", Better: "lower"},
	{Name: "sched.self_us", Unit: "us", Better: "lower"},

	{Name: "retime.classify_us", Unit: "us", Better: "lower"},
	{Name: "retime.apply_us", Unit: "us", Better: "lower"},

	{Name: "core.build_items_us", Unit: "us", Better: "lower"},
	{Name: "core.knapsack_us", Unit: "us", Better: "lower"},
	{Name: "core.dp_rows_per_solve", Unit: "count", Better: "lower"},

	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.open_s", Unit: "s", Better: "lower"},
	{Name: "store.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "store.writes_per_plan", Unit: "ratio", Better: "lower"},
	{Name: "store.evictions_per_plan", Unit: "ratio", Better: "lower"},

	{Name: "cluster.fill_us", Unit: "us", Better: "lower"},
	{Name: "cluster.ring_owner_us", Unit: "us", Better: "lower"},
	{Name: "cluster.fill_share", Unit: "ratio", Better: "higher"},
	{Name: "cluster.fallback_share", Unit: "ratio", Better: "lower"},

	{Name: "server.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},

	{Name: "daemon.boot_s", Unit: "s", Better: "lower"},
	{Name: "daemon.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "loadgen.cpu_us_per_plan", Unit: "us", Better: "lower"},
	{Name: "loadgen.latency_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// exactLayer are the layer metrics that are counts or byte sizes, not
// timings: the same seed must reproduce them digit for digit, and -aa
// fails when two runs disagree on one.
var exactLayer = map[string]bool{
	"wire.request_bytes":     true,
	"wire.response_bytes":    true,
	"wire.plan_frame_bytes":  true,
	"wire.lean_frame_bytes":  true,
	"run.mem_hit_share":      true,
	"run.solve_share":        true,
	"run.dedup_share":        true,
	"core.dp_rows_per_solve": true,
	"store.hit_share":        true,
	"store.writes_per_plan":  true,
	"cluster.fill_share":     true,
	"cluster.fallback_share": true,
	"server.shed":            true,
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample: the smallest value with at least p of the
// sample at or below it.  An empty sample has none and yields 0.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps a product that is a whole number up to
	// floating-point error (0.99*100) on its own rank.
	rank := int(math.Ceil(float64(n)*p - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// micros converts nanoseconds to microseconds keeping every digit.
func micros(ns int64) float64 { return float64(ns) / 1e3 }
