// Package server is the planning service: Para-CONV's retiming +
// allocation decision (PAPER.md §3) served as a long-running HTTP
// daemon that many accelerator clients query concurrently, in the
// host-planner role Neurocube-style PIM deployments assume.
//
// The service is shaped for sustained load rather than a toy mux:
//
//   - one request, one goroutine: a solve runs on the goroutine of the
//     connection that asked for it, behind a two-stage admission gate
//     (see gate) — at most Workers requests solve at once, at most
//     QueueDepth more wait for a run slot, and the next is shed
//     immediately with 429 + Retry-After instead of queueing
//     unboundedly (counts exported as paraconv_server_* metrics);
//   - per-request deadlines (server default, client-overridable)
//     propagated through run.Session contexts into every DP row and
//     scheduling loop.  Nothing races the solver to the response, so a
//     deadline that expires mid-solve is answered 504 when the solver
//     reaches its next context check (one DP row away), not before;
//   - concurrent identical requests ride one solve via the plan
//     cache's singleflight, then the shared content-keyed cache;
//   - http.MaxBytesReader input caps and dag.ReadTextLimits graph
//     caps, both mapped to structured JSON client errors;
//   - graceful drain: Running.Drain stops intake and waits, up to a
//     timeout, for every connection's in-flight request to finish —
//     http.Server.Shutdown does that, there is no second request
//     queue to empty — and for the durable store's write-behind
//     commits to land, then releases the port.
//
// Endpoints: POST /v1/plan, POST /v1/simulate, POST /v1/selectarch,
// GET /v1/plans/{fp}, GET /healthz, GET /readyz, plus the obs debug
// endpoints (/metrics, /metrics.json, /debug/pprof/, /debug/traces,
// /debug/slo) mounted on the same listener.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/obs/span"
	"repro/internal/run"
	"repro/internal/wire"
)

// Config parameterizes a Server.  The zero value is usable: every
// field has a production-shaped default.
type Config struct {
	// Workers is how many requests may solve at once (default:
	// GOMAXPROCS).
	Workers int
	// QueueDepth is how many more may wait for a run slot; requests
	// arriving beyond Workers+QueueDepth are shed with 429 (default 64).
	QueueDepth int
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout bounds a request's solve when the client does
	// not send timeout_ms (default 30s).  MaxTimeout caps what a
	// client may ask for (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxGraphNodes and MaxGraphEdges cap graphs accepted from the
	// network (defaults 20000 and 200000).
	MaxGraphNodes int
	MaxGraphEdges int
	// CacheBound is the shared plan cache's entry bound (default
	// run.DefaultCacheBound).
	CacheBound int
	// Store, when non-nil, is attached to the shared session as the
	// durable second cache tier (see run.AttachStore): consulted on
	// plan-cache miss, written through on solve.  The daemon passes a
	// *store.Store opened on its -data-dir.
	Store run.BlobStore
	// TraceSample turns on request tracing at a 1-in-N sampling rate
	// (1 traces everything, 0 — the default — disables tracing
	// entirely and keeps the serving path's zero-alloc no-op spans).
	TraceSample int
	// TraceSlow, when tracing is on, admits any request at least this
	// slow to the trace ring regardless of the sampling counter, so a
	// tail-latency outlier is never lost to the modulus (default 0:
	// slow lane off).
	TraceSlow time.Duration
	// SLOInterval is the burn-rate evaluator's sampling cadence
	// (default slo.DefaultInterval).
	SLOInterval time.Duration
}

// traceRingSize caps the completed traces resident at /debug/traces.
const traceRingSize = 256

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = wire.MaxBodyBytes
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxGraphNodes <= 0 {
		c.MaxGraphNodes = 20000
	}
	if c.MaxGraphEdges <= 0 {
		c.MaxGraphEdges = 200000
	}
	if c.CacheBound == 0 {
		c.CacheBound = run.DefaultCacheBound
	}
	if c.TraceSample < 0 {
		c.TraceSample = 0
	}
	return c
}

// StoreWriters is how many goroutines can write to the durable store
// at once under c: one per run slot, since every solve — a peer's fill
// included — runs inside the admission gate.  It is also the resolved
// Workers count.  The daemon gives its store this many commit slots.
func (c Config) StoreWriters() int {
	return c.withDefaults().Workers
}

// Server is the planning service: one shared Session (cache +
// singleflight), one admission gate, one mux.
type Server struct {
	cfg      Config
	session  *run.Session
	gate     *gate
	mux      *http.ServeMux
	draining atomic.Bool
	sampler  *span.Sampler
	ring     *span.Ring
	sloEval  *slo.Evaluator
	// cluster is the attached fleet view, when this node runs sharded
	// (see AttachCluster).  Atomic because attachment happens after
	// Start: the daemon needs its bound address to know its own member
	// id when the operator asked for port 0.
	cluster atomic.Pointer[cluster.Cluster]
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		session: run.NewWithCacheBound(context.Background(), cfg.CacheBound),
		gate:    newGate(cfg.Workers, cfg.QueueDepth),
		sampler: &span.Sampler{Every: cfg.TraceSample, Slow: cfg.TraceSlow},
		ring:    span.NewRing(traceRingSize),
		sloEval: slo.NewEvaluator(obs.Default(), slo.Standard(), cfg.SLOInterval),
	}
	if cfg.Store != nil {
		// Attached before the listener exists, so no request can race
		// the unsynchronized store-field write.
		s.session.AttachStore(cfg.Store)
	}
	if s.sampler.Tracing() {
		// The gate is global and one-way here: another live server with
		// tracing off still serves zero-alloc no-op spans for its own
		// requests (they carry no trace), so never flip it back off.
		span.SetEnabled(true)
	}
	mux := http.NewServeMux()
	for op, fn := range map[string]solveFunc{
		"plan":       s.solvePlan,
		"simulate":   s.solveSimulate,
		"selectarch": s.solveSelectArch,
	} {
		mux.HandleFunc("POST /v1/"+op, route(op, func(sr *statusRecorder, r *http.Request) {
			s.solve(sr, r, op, fn)
		}))
	}
	// Content-addressed plan lookup + the cluster fill protocol's
	// server side.  Registered unconditionally: without a cluster it
	// is still a useful cache probe, and an owner must answer fills
	// even when its own breaker view disagrees about ownership.
	mux.HandleFunc("GET /v1/plans/{fp}", route("plans", s.planByFingerprint))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		// A durable store that can no longer write is a readiness
		// failure: every solve would limp through failed write-throughs
		// and a restart would lose the cache.  (Readiness, not health —
		// /healthz stays 200 so the cluster's peers keep probing a node
		// whose disk filled, and pick it back up when space returns.)
		if p, ok := cfg.Store.(storeProber); ok {
			if err := p.Probe(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "store: %v\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ready")
		// Ring degradation is surfaced but never fails readiness:
		// every fill failure falls back to a local solve, so a node
		// alone in its ring still serves correctly.
		if cl := s.cluster.Load(); cl != nil {
			live, total := cl.Health()
			fmt.Fprintf(w, "cluster: %d/%d members live\n", live, total)
		}
	})
	// The obs debug endpoints share the daemon's listener so a
	// deployment scrapes one port.
	debug := obs.DefaultHandler()
	mux.Handle("GET /metrics", debug)
	mux.Handle("GET /metrics.json", debug)
	mux.Handle("GET /debug/pprof/", debug)
	traces := span.Handler(s.ring)
	mux.Handle("GET /debug/traces", traces)
	mux.Handle("GET /debug/traces/", traces)
	mux.Handle("GET /debug/slo", slo.Handler(s.sloEval))
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
// Every response names the serving node in X-Paraconv-Node once a
// cluster is attached, so a client of the sharded fleet can see which
// member answered without correlating ports.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cl := s.cluster.Load(); cl != nil {
			w.Header().Set("X-Paraconv-Node", cl.Self())
		}
		s.mux.ServeHTTP(w, r)
	})
}

// storeProber is the optional readiness hook a durable store exposes
// (satisfied by *store.Store).
type storeProber interface{ Probe() error }

// storeFlusher is the drain hook of a write-behind store (satisfied by
// *store.Store): Flush returns once every accepted write has landed.
type storeFlusher interface {
	Flush(ctx context.Context) error
}

// AttachCluster installs cl as this node's fleet view: the shared
// session gains the cluster miss tier, /readyz surfaces ring health,
// and responses carry the node id.  Called after Start (the member id
// must match the bound address when the operator asked for port 0);
// the fields involved are atomic, so requests already in flight
// simply miss the tier.  AttachCluster does not take ownership — the
// caller still closes cl.
func (s *Server) AttachCluster(cl *cluster.Cluster) {
	if cl == nil {
		s.cluster.Store(nil)
		s.session.AttachPeers(nil)
		return
	}
	s.cluster.Store(cl)
	s.session.AttachPeers(cl)
}

// CacheStats exposes the shared plan cache's counters.
func (s *Server) CacheStats() run.CacheStats { return s.session.CacheStats() }

// Running is a listening planning server.
type Running struct {
	s       *Server
	ln      net.Listener
	srv     *http.Server
	sloStop chan struct{}
	stop    sync.Once
}

// Start listens on addr and serves s until Drain.  Like the obs debug
// server, an address without a host (":8080") binds loopback — the
// service is unauthenticated, so exposing it beyond the machine must
// be an explicit choice ("0.0.0.0:8080").  Port 0 picks a free port;
// Addr reports the bound address.
func (s *Server) Start(addr string) (*Running, error) {
	if addr == "" {
		return nil, errors.New("server: empty listen address")
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen address %q: %w", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			obs.Log().Warn("planning server stopped", "err", err)
		}
	}()
	// The burn-rate evaluator samples for as long as the daemon
	// listens; Drain closes sloStop first.
	sloStop := make(chan struct{})
	go s.sloEval.Run(sloStop)
	return &Running{s: s, ln: ln, srv: srv, sloStop: sloStop}, nil
}

// Addr returns the bound address (with the real port when the request
// asked for :0).
func (r *Running) Addr() string { return r.ln.Addr().String() }

// Drain performs the graceful shutdown sequence: flip /readyz to 503,
// stop accepting connections, and wait up to timeout for every request
// already inside the gate — solving or waiting for a run slot — to
// finish on its own connection, then for the durable store's accepted
// writes to commit.  A nil return means every accepted request
// completed and every write it handed the store is on disk; a non-nil
// return means the timeout expired and remaining connections were cut
// or writes left uncommitted.
func (r *Running) Drain(timeout time.Duration) error {
	r.s.draining.Store(true)
	r.stop.Do(func() { close(r.sloStop) })
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if err != nil {
		// Shutdown gave up waiting; cut the stragglers so their solves
		// see the request contexts die.
		r.srv.Close()
	}
	// Every solve has now returned, so no write is accepted after this:
	// land the ones still committing inside the same deadline.
	if f, ok := r.s.cfg.Store.(storeFlusher); ok {
		if ferr := f.Flush(ctx); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}
