// Package run is the module's execution layer: a Session scopes a
// batch of planning and simulation work under one context.Context and
// one memoized plan cache.  Every long computation reached through a
// Session — the knapsack DP, the group-count search, list scheduling,
// the simulators, architecture sweeps — checks the session's context
// at iteration boundaries and returns a wrapped context error when
// cancelled, so callers can bound wall-clock time with
// context.WithTimeout or a signal-cancelled context.
//
// The plan cache is keyed by content (graph fingerprint, configuration
// fingerprint, planner variant), so re-planning the same benchmark on
// the same architecture — which the experiment suite does constantly
// across tables and figures — is a map lookup instead of a DP solve.
package run

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Planner variants: the names requests and cache keys use.
const (
	variantParaCONV = "para-conv"
	variantSingle   = "para-conv-single"
	variantGiven    = "para-conv-given"
	variantSPARTA   = "sparta"
	variantNaive    = "naive"
)

// solvers is the one variant table: every planner a variant name alone
// selects (the given-schedule variant also needs its schedule, so it
// is reachable only through PlanWithSchedule).
var solvers = map[string]func(context.Context, *dag.Graph, pim.Config) (*sched.Plan, error){
	variantParaCONV: sched.ParaCONVCtx,
	variantSingle:   sched.ParaCONVSingleCtx,
	variantSPARTA:   sched.SPARTACtx,
	variantNaive:    sched.NaiveCtx,
}

// schemeOf names the plan scheme of variant's solver.
func schemeOf(variant string) string {
	if variant == variantSPARTA || variant == variantNaive {
		return variant
	}
	return variantParaCONV
}

// ErrUnknownVariant is wrapped by PlanVariant's error for a variant
// name outside the table — the caller's mistake, not a planner
// rejection.
var ErrUnknownVariant = errors.New("unknown variant")

// canonicalVariant maps the empty variant to the default full
// Para-CONV planner, so clients and servers key identically.
func canonicalVariant(variant string) string {
	if variant == "" {
		return variantParaCONV
	}
	return variant
}

// Session scopes planning and simulation work: one context governing
// cancellation, one bounded plan cache shared by every call.  A
// Session is safe for concurrent use; the bench worker pool shares one
// across all its workers.
type Session struct {
	// ctx scopes every solve and simulation the Session runs.  This
	// is the module's one sanctioned context-in-struct (enforced by
	// the ctxfield vet pass): a Session is itself a cancellation
	// scope — it exists exactly as long as the run it governs — so
	// the usual "pass ctx as a parameter" rule collapses into it.
	ctx   context.Context
	cache *planCache
	// noPeer suppresses the cluster tier for this handle (see
	// WithoutPeerFill); the shared cache is unaffected.
	noPeer bool
}

// New returns a Session scoped to ctx with the default plan-cache
// bound.  A nil ctx means context.Background().
func New(ctx context.Context) *Session {
	return NewWithCacheBound(ctx, DefaultCacheBound)
}

// NewWithCacheBound returns a Session whose plan cache holds at most
// bound entries; bound <= 0 disables caching entirely (every lookup
// misses, nothing is stored).
func NewWithCacheBound(ctx context.Context, bound int) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Session{ctx: ctx, cache: newPlanCache(bound)}
}

// Context returns the context scoping this session.
func (s *Session) Context() context.Context {
	return s.ctx
}

// WithContext returns a Session scoped to ctx that shares this
// session's plan cache (and its in-flight solve dedup).  This is how
// a long-lived owner — the planning daemon — gives each request its
// own deadline while every request still benefits from, and feeds,
// one shared cache.  A nil ctx means context.Background().
func (s *Session) WithContext(ctx context.Context) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Session{ctx: ctx, cache: s.cache, noPeer: s.noPeer}
}

// WithoutPeerFill returns a Session sharing this session's cache and
// context that never consults the cluster tier.  This is the owner's
// side of the fill protocol: a solve run on behalf of a peer must
// terminate locally — two nodes with divergent breaker views of ring
// ownership could otherwise bounce one fill between each other until
// both time out.
func (s *Session) WithoutPeerFill() *Session {
	return &Session{ctx: s.ctx, cache: s.cache, noPeer: true}
}

// CacheStats returns a snapshot of the plan cache's counters.
func (s *Session) CacheStats() CacheStats {
	return s.cache.stats()
}

// plan runs one planning problem through the tier chain: one
// fingerprint, composed from graphFP (GraphFingerprint of the problem
// graph, or FrameFingerprint of its undecoded frame) and, for the
// given-schedule variant, the given schedule's, then memory →
// flight → store → peer → solver, each keyed by that fingerprint.  The
// memory tier is probed before anything needs the graph itself: graph
// is called only on a miss, at most once, and its error is returned
// as-is — so a caller holding just the graph's bytes decodes them only
// when some tier behind memory has to read them.  Failed solves are not
// cached (they are cheap — validation rejects before the DP runs — and
// the error should be re-derived fresh for each caller).
func (s *Session) plan(variant, graphFP string, given *sched.IterationSchedule, cfg pim.Config,
	graph func() (*dag.Graph, error),
	solve func(context.Context, *dag.Graph) (*sched.Plan, error)) (Answer, error) {
	if graphFP == nilGraphFP {
		// Nothing to key: let the planner produce its own nil-graph
		// error.
		p, err := solve(s.ctx, nil)
		return Answer{Plan: p}, err
	}
	fpSpan := span.Start(s.ctx, "run.fingerprint")
	extra := ""
	if given != nil {
		extra = ScheduleFingerprint(*given)
	}
	fp := PlanFingerprintHashed(variant, extra, graphFP, cfg)
	fpSpan.End()
	lookupSpan := span.Start(s.ctx, "run.cache")
	e, ok := s.cache.lookup(fp, true)
	lookupSpan.End()
	if ok {
		obs.Log().Debug("plan cache hit", "variant", variant, "fp", fp)
		return e.Answer, nil
	}
	graphSpan := span.Start(s.ctx, "run.graph")
	g, err := graph()
	graphSpan.End()
	if err != nil {
		return Answer{}, err
	}
	// Miss: collapse concurrent solves of the same problem into one
	// (singleflight) — under the concurrent server, a burst of
	// identical requests otherwise all reach this point before the
	// first solve can populate the cache.  The span covers leadership
	// and follower waits alike: a trace showing a wide run.singleflight
	// with no solve stages below it is a request that rode someone
	// else's solve.
	flightSpan := span.Start(s.ctx, "run.singleflight")
	defer flightSpan.End()
	p, err := s.cache.doFlight(s.ctx, fp, func() (*sched.Plan, error) {
		// Double-check under flight leadership: a solve finishing
		// between our miss and our registration has already stored
		// the plan, and returning it keeps the pointer shared.
		if e, ok := s.cache.lookup(fp, false); ok {
			return e.Plan, nil
		}
		// Second tier: the durable store (when attached).  A hit skips
		// the solver entirely — this is the warm-restart path.
		if p, ok := s.storeTier(fp, variant, g, cfg, given); ok {
			return p, nil
		}
		// Third tier: the cluster (when attached).  Only for problems
		// the peer-fill frame can express: the given schedule has no
		// wire form, so the given-schedule variant always solves
		// locally.  A (nil, nil) return is the degradation path: fall
		// through to the solver.
		if given == nil {
			if p, err := s.peerTier(fp, variant, g, cfg); p != nil || err != nil {
				return p, err
			}
		}
		stop := obs.PlanSolveTimer(variant).Start()
		p, err := solve(s.ctx, g)
		stop()
		if err != nil {
			return nil, err
		}
		obs.Log().Debug("plan solved", "variant", variant, "fp", fp, "period", p.Iter.Period)
		s.cache.promote(fp, cfg.Name, p, nil, true)
		return p, nil
	})
	return Answer{Plan: p}, err
}

// PlanVariant runs the planner named by variant ("" is the default
// full Para-CONV flow) for g on cfg.  An unknown name is an error
// wrapping ErrUnknownVariant.
func (s *Session) PlanVariant(variant string, g *dag.Graph, cfg pim.Config) (*sched.Plan, error) {
	a, err := s.PlanVariantHashed(variant, GraphFingerprint(g), cfg,
		func() (*dag.Graph, error) { return g, nil })
	return a.Plan, err
}

// PlanVariantHashed is PlanVariant for a caller that knows the graph's
// fingerprint (GraphFingerprint, or FrameFingerprint of its undecoded
// dag frame) and can produce the graph on demand: graph is called only
// if the memory tier misses, and an error from it is returned unwrapped.
// This is the planning daemon's entry — it hashes a request's graph
// bytes in place and decodes them only for a plan it has not got.
func (s *Session) PlanVariantHashed(variant, graphFP string, cfg pim.Config,
	graph func() (*dag.Graph, error)) (Answer, error) {
	variant = canonicalVariant(variant)
	solver, ok := solvers[variant]
	if !ok {
		return Answer{}, fmt.Errorf("%w %s (want para-conv, para-conv-single, sparta or naive)", ErrUnknownVariant, variant)
	}
	return s.plan(variant, graphFP, nil, cfg, graph,
		func(ctx context.Context, g *dag.Graph) (*sched.Plan, error) { return solver(ctx, g, cfg) })
}

// Plan runs the full Para-CONV flow (group-count search, retiming,
// knapsack cache allocation, objective schedule) for g on cfg.
func (s *Session) Plan(g *dag.Graph, cfg pim.Config) (*sched.Plan, error) {
	return s.PlanVariant(variantParaCONV, g, cfg)
}

// PlanWithSchedule runs the Para-CONV reallocation on a fixed
// iteration schedule (retiming + cache allocation only).  The cache
// key incorporates a fingerprint of the given schedule.
func (s *Session) PlanWithSchedule(g *dag.Graph, iter sched.IterationSchedule, cfg pim.Config) (*sched.Plan, error) {
	a, err := s.plan(variantGiven, GraphFingerprint(g), &iter, cfg,
		func() (*dag.Graph, error) { return g, nil },
		func(ctx context.Context, g *dag.Graph) (*sched.Plan, error) {
			return sched.ParaCONVGivenScheduleCtx(ctx, g, iter, cfg)
		})
	return a.Plan, err
}

// Baseline runs the SPARTA baseline scheduler.
func (s *Session) Baseline(g *dag.Graph, cfg pim.Config) (*sched.Plan, error) {
	return s.PlanVariant(variantSPARTA, g, cfg)
}

// BaselineNaive runs the round-robin, all-eDRAM floor scheduler.
func (s *Session) BaselineNaive(g *dag.Graph, cfg pim.Config) (*sched.Plan, error) {
	return s.PlanVariant(variantNaive, g, cfg)
}

// Simulate runs the closed-form simulator on a plan under the
// session's context.
func (s *Session) Simulate(plan *sched.Plan, cfg pim.Config, iterations int) (sim.Stats, error) {
	return sim.RunCtx(s.ctx, plan, cfg, iterations)
}

// SimulateTrace runs the event-level simulator on a plan under the
// session's context.
func (s *Session) SimulateTrace(plan *sched.Plan, cfg pim.Config, iterations int) (sim.Stats, *sim.Trace, error) {
	return sim.TraceRunCtx(s.ctx, plan, cfg, iterations)
}

// SelectArch plans g on every candidate architecture and returns the
// best by total time plus the full ranking, under the session's
// context.
func (s *Session) SelectArch(g *dag.Graph, candidates []pim.Config, iterations int) (sched.Candidate, []sched.Candidate, error) {
	return sched.SelectConfigCtx(s.ctx, g, candidates, iterations)
}
