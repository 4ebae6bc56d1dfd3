package obs

// This file declares every standard instrument of the module, all on
// the shared Default registry.  Centralizing creation here (instead of
// scattering registrations through the instrumented packages) keeps
// the metric namespace reviewable in one screen and lets the obsreg
// vet pass ban ad-hoc metric creation everywhere else.  Because the
// instruments exist from package init, both exporters always emit the
// full family set — a scrape taken before any work ran shows the
// names at zero rather than omitting them.

var defaultRegistry = NewRegistry()

// Default returns the module-wide shared registry.
func Default() *Registry { return defaultRegistry }

// Plan cache (internal/run): the content-keyed LRU behind Session.
var (
	PlanCacheHits      = Default().Counter("paraconv_plancache_hits_total", "plan-cache lookups served from the cache")
	PlanCacheMisses    = Default().Counter("paraconv_plancache_misses_total", "plan-cache lookups that required a fresh solve")
	PlanCacheEvictions = Default().Counter("paraconv_plancache_evictions_total", "plan-cache entries evicted by the LRU bound")
	PlanCacheDedupHits = Default().Counter("paraconv_plancache_dedup_hits_total", "concurrent cache misses that rode another caller's in-flight solve (singleflight)")
	PlanCacheEntries   = Default().Gauge("paraconv_plancache_entries", "current plan-cache entry count (most recently updated session)")
	PlanCacheCapacity  = Default().Gauge("paraconv_plancache_capacity", "plan-cache entry bound (most recently updated session; 0 = caching disabled)")
)

// Planning service (internal/server): admission control and request
// accounting for the paraconvd daemon.
var (
	ServerQueueDepth    = Default().Gauge("paraconv_server_queue_depth", "admitted requests waiting for a run slot")
	ServerQueueCapacity = Default().Gauge("paraconv_server_queue_capacity", "admission-queue capacity (requests beyond it are shed with 429)")
	ServerInflight      = Default().Gauge("paraconv_server_inflight", "requests currently holding a run slot")
	ServerShed          = Default().Counter("paraconv_server_shed_total", "requests rejected with 429 because the admission queue was full")
)

// Scheduler (internal/sched, internal/core).
var (
	SchedDPRows          = Default().Counter("paraconv_sched_dp_rows_total", "knapsack dynamic-program item rows evaluated")
	SchedRetimedVertices = Default().Counter("paraconv_sched_retimed_vertices_total", "vertices moved to an earlier kernel round by retiming (R(v) > 0)")
)

// Simulator (internal/sim).
var (
	SimRuns            = Default().Counter("paraconv_sim_runs_total", "simulation runs completed (closed-form and event-level share these counters)")
	SimPEBusyTime      = Default().Counter("paraconv_sim_pe_busy_time_units_total", "PE-time units spent executing tasks, summed over runs")
	SimPEIdleTime      = Default().Counter("paraconv_sim_pe_idle_time_units_total", "PE-time units spent idle (fill, drain, no ready task), summed over runs")
	SimProloguePeriods = Default().Counter("paraconv_sim_prologue_periods_total", "prologue (pipeline-fill) kernel periods executed, summed over runs")
)

// Experiment runner (internal/bench).
var (
	RunnerJobsStarted  = Default().Counter("paraconv_runner_jobs_started_total", "experiment-cell jobs dispatched to the worker pool")
	RunnerJobsFinished = Default().Counter("paraconv_runner_jobs_finished_total", "experiment-cell jobs completed without error")
	RunnerJobsFailed   = Default().Counter("paraconv_runner_jobs_failed_total", "experiment-cell jobs that returned an error")
	RunnerQueueWait    = Default().Timer("paraconv_runner_queue_wait_seconds", "time a parallel job waited for a free worker")
)

// Durable plan store (internal/store): the on-disk second cache tier
// behind the in-memory plan cache.
var (
	StoreHits        = Default().Counter("paraconv_store_hits_total", "store reads that returned a durable entry")
	StoreMisses      = Default().Counter("paraconv_store_misses_total", "store reads that found no durable entry")
	StoreWrites      = Default().Counter("paraconv_store_writes_total", "entries accepted for write-through to the data dir (committed behind the response; failed commits also count in write_errors)")
	StoreWriteErrors = Default().Counter("paraconv_store_write_errors_total", "write-through attempts that failed (store stays best-effort)")
	StoreCorrupt     = Default().Counter("paraconv_store_corrupt_total", "store frames dropped because they failed their magic/CRC/length/key checks: a torn segment tail at open, or a frame that no longer reads back")
	StoreEvictions   = Default().Counter("paraconv_store_evictions_total", "entries dropped with the oldest segment when the store passed its byte bound")
	StoreEntries     = Default().Gauge("paraconv_store_entries", "durable entries currently resident in the data dir")
	StoreBytes       = Default().Gauge("paraconv_store_bytes", "bytes of durable entries currently resident in the data dir")
)

// Sharded planning cluster (internal/cluster, wired through
// internal/run's peer tier and internal/server's /v1/plans endpoint).
var (
	ClusterRingMembers      = Default().Gauge("paraconv_cluster_ring_members", "configured cluster member count (including this node)")
	ClusterRingLive         = Default().Gauge("paraconv_cluster_ring_live", "members currently in the hash ring (self plus peers with a closed breaker)")
	ClusterBreakerOpen      = Default().Gauge("paraconv_cluster_breaker_open", "peers currently flipped out of the ring by the consecutive-failure breaker")
	ClusterPeerFills        = Default().Counter("paraconv_cluster_peer_fills_total", "plan-cache misses served by fetching the owner's plan over /v1/plans")
	ClusterPeerFillFailures = Default().Counter("paraconv_cluster_peer_fill_failures_total", "peer fill attempts that failed (timeout, transport error, or non-200)")
	ClusterFallbackSolves   = Default().Counter("paraconv_cluster_fallback_solves_total", "local solves run because a peer fill failed or returned an unusable frame (degraded mode)")
	ClusterForwards         = Default().Counter("paraconv_cluster_forwards_total", "peer fill requests this node served for other nodes at /v1/plans")
	ClusterProbeFailures    = Default().Counter("paraconv_cluster_probe_failures_total", "health probes of peers that failed")
)

// Request tracing (internal/obs/span, wired in internal/server).
var (
	TraceSampled = Default().Counter("paraconv_trace_sampled_total", "request traces admitted to the ring by the 1-in-N sampler")
	TraceSlow    = Default().Counter("paraconv_trace_slow_total", "request traces admitted to the ring by the slow-request lane alone")
)

// ServerRequests returns the request counter for one service endpoint
// ("plan", "simulate", "selectarch") and status class ("2xx", "4xx",
// "429", "499", "504", "5xx") — both label sets are small and fixed.
func ServerRequests(endpoint, class string) *Counter {
	return Default().Counter("paraconv_server_requests_total",
		"planning-service requests by endpoint and response status class",
		Label{Key: "endpoint", Value: endpoint}, Label{Key: "code", Value: class})
}

// ServerRequestTimer returns the end-to-end request latency timer for
// one service endpoint (admission wait plus solve plus encode).
func ServerRequestTimer(endpoint string) *Timer {
	return Default().Timer("paraconv_server_request_seconds",
		"wall-clock latency of one planning-service request",
		Label{Key: "endpoint", Value: endpoint})
}

// PlanSolveTimer returns the plan-latency phase timer for one planner
// variant ("para-conv", "sparta", ...).  The histogram's count doubles
// as a per-variant plans-solved counter.
func PlanSolveTimer(variant string) *Timer {
	return Default().Timer("paraconv_plan_solve_seconds",
		"wall-clock latency of one uncached plan solve", Label{Key: "variant", Value: variant})
}

// MakespanHistogram returns the schedule-makespan distribution for one
// scheme ("para-conv", "sparta", "naive"), in schedule time units.
func MakespanHistogram(scheme string) *Histogram {
	return Default().Histogram("paraconv_sched_makespan_time_units",
		"kernel-iteration makespan (schedule period) in time units", TimeUnitBuckets,
		Label{Key: "scheme", Value: scheme})
}

// TransferReads returns the IPR-fetch counter for one placement
// ("cache" or "edram").
func TransferReads(place string) *Counter {
	return Default().Counter("paraconv_sim_transfers_total",
		"IPR fetches by serving placement", Label{Key: "place", Value: place})
}

// TransferBytes returns the IPR-traffic byte counter for one placement
// ("cache" or "edram").
func TransferBytes(place string) *Counter {
	return Default().Counter("paraconv_sim_transfer_bytes_total",
		"IPR traffic volume by serving placement", Label{Key: "place", Value: place})
}
