// Package wire defines the planning service's exchange types and the
// negotiated codecs that carry them.
//
// Every payload has two byte-level representations: JSON (the default,
// human-debuggable) and a length-prefixed binary frame (varint-encoded,
// deterministic, built for the zero-alloc serving path).  Clients pick
// the request codec with the Content-Type header and the response
// codec with Accept; `application/x-paraconv-bin` selects the binary
// frames, anything JSON-ish falls back to text, and unknown media
// types are rejected with 415.  Error bodies are always JSON,
// whichever codec the payloads use — a client that cannot parse the
// frame it asked for must still be able to read why.
package wire

import (
	"repro/internal/pim"
	"repro/internal/sched"
)

// ContentTypeJSON and ContentTypeBinary are the media types the
// service negotiates between.  Requests with no Content-Type are
// treated as JSON.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-paraconv-bin"
)

// MaxBodyBytes is the default cap on a request body a daemon reads
// (-max-body), and the base of the cap on a response body its fill
// client reads from a peer (see cluster's roundTrip).
const MaxBodyBytes = 1 << 20

// Request is the body shared by the three solve endpoints.  Every
// field except the graph is optional.
type Request struct {
	// Graph is the task graph in the dag text format.  Binary-framed
	// requests carry the graph as a trailing dag binary frame instead
	// and leave this field empty.
	Graph string `json:"graph"`
	// Arch names an architecture preset: neurocube (default), prime,
	// hmc2 or edge.  Selectarch ignores it in favour of Archs.
	Arch string `json:"arch"`
	// Archs is the candidate list for /v1/selectarch; empty means
	// every preset.
	Archs []string `json:"archs"`
	// PEs is the processing-engine count (default 16).
	PEs int `json:"pes"`
	// Iterations sizes the predicted totals and the simulation
	// horizon (default 100).
	Iterations int `json:"iterations"`
	// Variant picks the planner: para-conv (default),
	// para-conv-single, sparta or naive.
	Variant string `json:"variant"`
	// TimeoutMS caps this request's solve time; 0 uses the server's
	// default request timeout.
	TimeoutMS int `json:"timeout_ms"`
}

// PlanResponse is the /v1/plan result: the Para-CONV decision plus
// its predicted cost over the requested iteration count.
type PlanResponse struct {
	Scheme               string  `json:"scheme"`
	Arch                 string  `json:"arch"`
	PEs                  int     `json:"pes"`
	Period               int     `json:"period"`
	ConcurrentIterations int     `json:"concurrent_iterations"`
	RMax                 int     `json:"r_max"`
	PrologueTime         int     `json:"prologue_time"`
	CachedIPRs           int     `json:"cached_iprs"`
	CacheLoadUnits       int     `json:"cache_load_units"`
	Vertices             int     `json:"vertices"`
	Edges                int     `json:"edges"`
	Iterations           int     `json:"iterations"`
	TotalTime            int     `json:"total_time"`
	Throughput           float64 `json:"throughput"`
	VertexRetiming       []int   `json:"vertex_retiming,omitempty"`
	CachedEdges          []int   `json:"cached_edges,omitempty"`
}

// NewPlanResponse summarises plan, solved for the architecture named
// arch, over a horizon of iterations.  Only Iterations, TotalTime and
// Throughput depend on the horizon (see PlanResponseFrame).
func NewPlanResponse(plan *sched.Plan, arch string, iterations int) *PlanResponse {
	resp := &PlanResponse{
		Scheme:               plan.Scheme,
		Arch:                 arch,
		PEs:                  plan.Iter.PEs,
		Period:               plan.Iter.Period,
		ConcurrentIterations: plan.ConcurrentIterations,
		RMax:                 plan.RMax,
		PrologueTime:         plan.PrologueTime(),
		CachedIPRs:           plan.CachedIPRs,
		CacheLoadUnits:       plan.CacheLoadUnits,
		Vertices:             plan.Iter.Graph.NumNodes(),
		Edges:                plan.Iter.Graph.NumEdges(),
		Iterations:           iterations,
		TotalTime:            plan.TotalTime(iterations),
		Throughput:           plan.Throughput(iterations),
	}
	if len(plan.LogicalRetiming.R) > 0 {
		resp.VertexRetiming = append([]int(nil), plan.LogicalRetiming.R...)
	}
	for i, place := range plan.Iter.Assignment {
		if place == pim.InCache {
			resp.CachedEdges = append(resp.CachedEdges, i)
		}
	}
	return resp
}

// SimulateResponse is the /v1/simulate result: the closed-form
// simulator's statistics for the planned schedule.
type SimulateResponse struct {
	Scheme            string  `json:"scheme"`
	Arch              string  `json:"arch"`
	Iterations        int     `json:"iterations"`
	Cycles            int     `json:"cycles"`
	TasksExecuted     int     `json:"tasks_executed"`
	CacheReads        int     `json:"cache_reads"`
	EDRAMReads        int     `json:"edram_reads"`
	CacheBytes        int64   `json:"cache_bytes"`
	EDRAMBytes        int64   `json:"edram_bytes"`
	EnergyPJ          float64 `json:"energy_pj"`
	Utilization       float64 `json:"utilization"`
	OffChipFetchRatio float64 `json:"offchip_fetch_ratio"`
	PeakCacheLoad     int     `json:"peak_cache_load"`
}

// ArchResult is one /v1/selectarch ranking entry.
type ArchResult struct {
	Arch         string `json:"arch"`
	PEs          int    `json:"pes"`
	Period       int    `json:"period"`
	PrologueTime int    `json:"prologue_time"`
	TotalTime    int    `json:"total_time"`
}

// SelectArchResponse is the /v1/selectarch result: the best candidate
// and the full ranking, best first.
type SelectArchResponse struct {
	Best    ArchResult   `json:"best"`
	Ranking []ArchResult `json:"ranking"`
}

// ErrorResponse is the structured error body every non-2xx response
// carries.  It has no binary form: errors are always JSON.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind is machine-checkable: bad_request, bad_graph,
	// graph_too_large, too_large, unsupported_media_type, unplannable,
	// timeout, canceled, shed or internal.
	Kind string `json:"kind"`
	// TraceID is the request's trace id when the server sampled a
	// trace for it — quote it when reporting a failure and the
	// operator can pull the exact request from /debug/traces.
	TraceID string `json:"trace_id,omitempty"`
}
