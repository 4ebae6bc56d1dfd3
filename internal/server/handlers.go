package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/pim"
	"repro/internal/run"
	"repro/internal/sched"
	"repro/internal/wire"
)

// solveFunc computes one endpoint's response under a request-scoped
// session.
type solveFunc func(sess *run.Session, in *decoded) (any, error)

// statusRecorder captures the status written to a ResponseWriter so
// the request counter can label by outcome class, and carries the
// request's trace id (when one was sampled) down to writeError so
// every structured error body names the trace that explains it.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	traceID string
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// route wraps h in the skeleton every /v1 route shares: the endpoint's
// latency timer, a statusRecorder, and the outcome-class counter.
func route(endpoint string, h func(sr *statusRecorder, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		stop := obs.ServerRequestTimer(endpoint).Start()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			stop()
			obs.ServerRequests(endpoint, statusClass(sr.status)).Inc()
		}()
		h(sr, r)
	}
}

// beginTrace gives sr's request a trace, named in the response header
// and in every error body, attaches it to ctx and opens its root span
// server.<endpoint>; end closes the root and offers the finished trace
// to the sampler.  When tracing is on EVERY request carries one (a span
// costs two atomic ops and a locked append); the sampler decides at the
// end which the ring keeps, so a request that only turned out slow is
// never lost to the 1-in-N counter.  With tracing off it does nothing.
func (s *Server) beginTrace(ctx context.Context, sr *statusRecorder, endpoint string) (_ context.Context, end func()) {
	if !s.sampler.Tracing() {
		return ctx, func() {}
	}
	tr, sampled := span.New(), s.sampler.Sampled()
	sr.traceID = tr.ID().String()
	sr.Header().Set("X-Paraconv-Trace", sr.traceID)
	ctx = span.NewContext(ctx, tr)
	rootSpan := span.Start(ctx, "server."+endpoint)
	return ctx, func() {
		rootSpan.End()
		if d := tr.Finish(); s.sampler.Admit(sampled, d) {
			if sampled {
				obs.TraceSampled.Inc()
			} else {
				obs.TraceSlow.Inc()
			}
			s.ring.Add(tr)
		}
	}
}

// requestTimeout derives a request's solve deadline from timeout_ms:
// the server default when absent, capped at MaxTimeout — in
// milliseconds, before the multiplication, which a timeout_ms near
// MaxInt would overflow into the past.
func (s *Server) requestTimeout(timeoutMS int) time.Duration {
	switch {
	case timeoutMS <= 0:
		return s.cfg.DefaultTimeout
	case int64(timeoutMS) > s.cfg.MaxTimeout.Milliseconds():
		return s.cfg.MaxTimeout
	default:
		return time.Duration(timeoutMS) * time.Millisecond
	}
}

// admitted runs fn inside the admission gate, on the caller's own
// goroutine, and reports whether it ran; if not, the shed (429) or the
// deadline that expired waiting for a run slot (504) is answered.
func (s *Server) admitted(ctx context.Context, sr *statusRecorder, endpoint string, fn func()) bool {
	switch err := s.gate.enter(ctx); {
	case err == nil:
		defer s.gate.leave()
		fn()
		return true
	case errors.Is(err, errShed):
		s.shed(sr, endpoint)
	default:
		writeSolveError(sr, err)
	}
	return false
}

// shed counts and answers a request turned away at a full admission
// queue.
func (s *Server) shed(sr *statusRecorder, endpoint string) {
	obs.ServerShed.Inc()
	obs.Log().Warn("request shed", "endpoint", endpoint, "queue", "admission",
		"queue_depth", s.cfg.QueueDepth, "trace_id", sr.traceID)
	sr.Header().Set("Retry-After", "1")
	writeError(sr, http.StatusTooManyRequests, "shed", "admission queue full (%d deep); retry later", s.cfg.QueueDepth)
}

// solve is the shared request path of the three POST endpoints:
// decode, derive the deadline, pass the admission gate, then run fn
// right here on the connection's goroutine.  Nothing races the solver
// to the response: a deadline that expires mid-solve answers 504 at
// the solver's next context check.
func (s *Server) solve(sr *statusRecorder, r *http.Request, endpoint string, fn solveFunc) {
	ctx, endTrace := s.beginTrace(r.Context(), sr, endpoint)
	defer endTrace()

	// Held until the response is written: a binary request's graph
	// frame is read in place (see decoded) and aliases this buffer.
	bs := bodyStatePool.Get().(*bodyState)
	defer putBodyState(bs)
	decodeSpan := span.Start(ctx, "server.decode")
	in, ok := s.decodeRequest(sr, r, bs)
	decodeSpan.End()
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, s.requestTimeout(in.req.TimeoutMS))
	defer cancel()

	var payload any
	var err error
	if !s.admitted(ctx, sr, endpoint, func() {
		payload, err = fn(s.session.WithContext(ctx), in)
	}) {
		return
	}
	if err != nil {
		writeSolveError(sr, err)
		return
	}
	writeResponse(sr, http.StatusOK, payload, in.respBinary)
}

// bodyState is the per-request decode scratch recycled by
// bodyStatePool: the body lands in buf in one read, then rd replays it
// to the JSON decoder without another copy.  A decoded request's
// strings are fresh allocations (neither codec aliases its input), but
// a binary request's graph frame stays in buf undecoded, so whoever
// Gets a bodyState Puts it back only once nothing will read that frame
// again (see decoded).
type bodyState struct {
	buf bytes.Buffer
	rd  bytes.Reader
}

var bodyStatePool = sync.Pool{New: func() any { return new(bodyState) }}

// maxPooledBodyBytes caps what a recycled body buffer may retain, so
// one oversized request does not pin its high-water mark forever.
const maxPooledBodyBytes = 1 << 20

func putBodyState(bs *bodyState) {
	if bs.buf.Cap() > maxPooledBodyBytes {
		return
	}
	bs.rd.Reset(nil)
	bodyStatePool.Put(bs)
}

// readBody reads r's body into bs under the server's size cap.  false
// means the read failed and has been answered (413 past the cap).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, bs *bodyState, what string) bool {
	bs.buf.Reset()
	_, err := bs.buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			"%s body exceeds %d bytes", what, tooBig.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "bad_request", "reading %s body: %v", what, err)
	}
	return false
}

// writeDecodeError answers a request or peer-fill frame (what) that
// failed to decode: every case a 400, told apart by kind.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	var lim *dag.LimitError
	var graphErr *wire.GraphError
	switch {
	case errors.As(err, &lim):
		writeError(w, http.StatusBadRequest, "graph_too_large", "%v", lim)
	case errors.Is(err, wire.ErrNoGraph):
		writeError(w, http.StatusBadRequest, "bad_graph", "%s has no graph", what)
	case errors.As(err, &graphErr):
		writeError(w, http.StatusBadRequest, "bad_graph", "%v", graphErr.Err)
	default:
		writeError(w, http.StatusBadRequest, "bad_request", "decoding %s: %v", what, err)
	}
}

// limits is the graph size cap applied to every graph off the network.
func (s *Server) limits() dag.Limits {
	return dag.Limits{MaxNodes: s.cfg.MaxGraphNodes, MaxEdges: s.cfg.MaxGraphEdges}
}

// decoded is one request after decodeRequest: scalar fields normalized
// and range-checked, response codec negotiated, and the graph either
// parsed (a JSON request) or still the undecoded trailing dag frame of
// a binary body.  The frame's bytes identify the graph — dag's decoder
// accepts only the canonical encoding — so a binary request is
// fingerprinted, and on a plan-cache hit answered, without its graph
// ever being built; graph() decodes it for whoever does need it.
type decoded struct {
	req        request
	respBinary bool
	lim        dag.Limits
	g          *dag.Graph
	// frame aliases the pooled body buffer the request was read into.
	frame []byte
	fp    string
}

// graphFP returns the graph's content fingerprint (a
// run.GraphFingerprint value): a hash of the frame where there is one,
// of the parsed graph's encoding otherwise.
func (in *decoded) graphFP() string {
	if in.fp == "" {
		if in.frame != nil {
			in.fp = run.FrameFingerprint(in.frame)
		} else {
			in.fp = run.GraphFingerprint(in.g)
		}
	}
	return in.fp
}

// graph returns the request's graph, decoding and size-checking a
// binary frame on first use.  A failure is a *wire.GraphError, which
// writeSolveError answers as the 400 it is.
func (in *decoded) graph() (*dag.Graph, error) {
	if in.g == nil {
		g, err := wire.DecodeGraph(in.frame, in.lim)
		if err != nil {
			return nil, err
		}
		in.g = g
	}
	return in.g, nil
}

// decodeRequest negotiates the request codec from Content-Type (415
// for anything that is neither JSON nor the binary wire format), reads
// the body into bs under the size cap, decodes it — a JSON request's
// graph is parsed and size-checked here, a binary one's stays in bs as
// bytes — and normalizes defaults.  The negotiated response codec
// follows the Accept header, mirroring the request codec when absent;
// errors themselves are always JSON.
//
//paraconv:hotpath
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, bs *bodyState) (*decoded, bool) {
	reqBinary, supported := requestCodec(r)
	if !supported {
		writeError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
			"unsupported Content-Type %q (want %s or %s)", r.Header.Get("Content-Type"),
			wire.ContentTypeJSON, wire.ContentTypeBinary)
		return nil, false
	}
	if !s.readBody(w, r, bs, "request") {
		return nil, false
	}

	in := &decoded{respBinary: responseBinary(r, reqBinary), lim: s.limits()}
	req := &in.req
	var err error
	if reqBinary {
		in.frame, err = wire.SplitRequest(bs.buf.Bytes(), req)
	} else {
		bs.rd.Reset(bs.buf.Bytes())
		dec := json.NewDecoder(&bs.rd)
		dec.DisallowUnknownFields()
		if err = dec.Decode(req); err == nil {
			in.g, err = s.parseGraph(req)
		}
	}
	if err != nil {
		writeDecodeError(w, "request", err)
		return nil, false
	}

	if req.PEs == 0 {
		req.PEs = 16
	}
	if req.Iterations == 0 {
		req.Iterations = 100
	}
	switch {
	case req.PEs < 1 || req.PEs > 4096:
		err = fmt.Errorf("pes %d out of range [1, 4096]", req.PEs)
	case req.Iterations < 1 || req.Iterations > 1_000_000_000:
		err = fmt.Errorf("iterations %d out of range [1, 1e9]", req.Iterations)
	case req.TimeoutMS < 0:
		err = fmt.Errorf("timeout_ms %d is negative", req.TimeoutMS)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return nil, false
	}
	return in, true
}

// planFor resolves the request's architecture preset and runs its
// planner variant — the step /v1/plan and /v1/simulate share.  The
// plan cache is probed by fingerprint first; in.graph runs only on a
// miss.
func planFor(sess *run.Session, in *decoded) (run.Answer, pim.Config, error) {
	cfg, err := pim.Preset(in.req.Arch, in.req.PEs)
	if err != nil {
		return run.Answer{}, cfg, err
	}
	a, err := sess.PlanVariantHashed(in.req.Variant, in.graphFP(), cfg, in.graph)
	return a, cfg, err
}

// planFrame is a /v1/plan answer already in binary form: a memory
// entry's cached frame plus the request's horizon.
type planFrame struct {
	frame      wire.PlanResponseFrame
	iterations int
	totalTime  int
	throughput float64
}

// solvePlan implements POST /v1/plan.
func (s *Server) solvePlan(sess *run.Session, in *decoded) (any, error) {
	a, cfg, err := planFor(sess, in)
	if err != nil {
		return nil, err
	}
	n := in.req.Iterations
	if in.respBinary && a.Frame.Built() {
		return &planFrame{a.Frame, n, a.Plan.TotalTime(n), a.Plan.Throughput(n)}, nil
	}
	return wire.NewPlanResponse(a.Plan, cfg.Name, n), nil
}

// solveSimulate implements POST /v1/simulate: plan, then run the
// closed-form simulator over the requested horizon.
func (s *Server) solveSimulate(sess *run.Session, in *decoded) (any, error) {
	a, cfg, err := planFor(sess, in)
	if err != nil {
		return nil, err
	}
	plan := a.Plan
	stats, err := sess.Simulate(plan, cfg, in.req.Iterations)
	if err != nil {
		return nil, err
	}
	return &simulateResponse{
		Scheme:            plan.Scheme,
		Arch:              cfg.Name,
		Iterations:        stats.Iterations,
		Cycles:            stats.Cycles,
		TasksExecuted:     stats.TasksExecuted,
		CacheReads:        stats.CacheReads,
		EDRAMReads:        stats.EDRAMReads,
		CacheBytes:        stats.CacheBytes,
		EDRAMBytes:        stats.EDRAMBytes,
		EnergyPJ:          stats.EnergyPJ,
		Utilization:       stats.Utilization(),
		OffChipFetchRatio: stats.OffChipFetchRatio(),
		PeakCacheLoad:     stats.PeakCacheLoad,
	}, nil
}

// solveSelectArch implements POST /v1/selectarch: plan the graph on
// every candidate architecture and rank by total time.
func (s *Server) solveSelectArch(sess *run.Session, in *decoded) (any, error) {
	req := &in.req
	g, err := in.graph()
	if err != nil {
		return nil, err
	}
	candidates := pim.Presets(req.PEs)
	if len(req.Archs) > 0 {
		candidates = candidates[:0]
		for _, name := range req.Archs {
			cfg, err := pim.Preset(name, req.PEs)
			if err != nil {
				return nil, err
			}
			candidates = append(candidates, cfg)
		}
	}
	best, ranking, err := sess.SelectArch(g, candidates, req.Iterations)
	if err != nil {
		return nil, err
	}
	toResult := func(c sched.Candidate) archResult {
		return archResult{
			Arch:         c.Config.Name,
			PEs:          c.Config.NumPEs,
			Period:       c.Plan.Iter.Period,
			PrologueTime: c.Plan.PrologueTime(),
			TotalTime:    c.TotalTime,
		}
	}
	resp := &selectArchResponse{Best: toResult(best)}
	for _, c := range ranking {
		resp.Ranking = append(resp.Ranking, toResult(c))
	}
	return resp, nil
}
