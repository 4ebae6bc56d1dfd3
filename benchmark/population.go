package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/run"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/wire"
)

// The request population: W graphs of the `protein` shape, the largest
// row of the paper's Table 1, planned on the default architecture.
// Client 0 cycles the first half and client 1 the second, so the two
// never dedup on each other and an 8-entry LRU never still holds a
// graph when its turn comes round again.
const (
	populationSize = 48
	graphVertices  = 546
	graphEdges     = 1449
	requestPEs     = 16
	// requestIterations is what the server substitutes for the
	// request's zero Iterations field.
	requestIterations = 100
	// smallCacheBound is the -cache-bound of the three miss workloads.
	smallCacheBound = 8
)

// graphLimits are paraconvd's default -max-nodes / -max-edges.
var graphLimits = dag.Limits{MaxNodes: 20000, MaxEdges: 200000}

// problem is one member of the population with everything the harness
// derives from it before any clock starts.
type problem struct {
	g   *dag.Graph
	fp  string // run.PlanFingerprint: store key and cluster routing key
	raw []byte // the complete pre-serialised HTTP request
	// body is the wire request frame inside raw; its trailing
	// graphFrame bytes are the dag binary frame.
	body       []byte
	graphFrame []byte

	// The harness's own solve, verified against the problem graph, and
	// what the daemon must answer.
	plan      *sched.Plan
	want      wire.PlanResponse
	planFrame []byte // wire.AppendPlan: what the store holds
	leanFrame []byte // wire.AppendLeanPlan: what a warm fill ships

	// Solver intermediates, kept so the traced pass can time each
	// stage on the input the whole solve saw.
	groupPEs int
	capacity int
	tm       retime.Timing
	order    []dag.NodeID
	classes  []retime.EdgeClass
	items    []core.Item
	assign   retime.Assignment // the group's placement, one entry per problem edge
}

// buildPopulation draws graphs from seed*10000+i for i = 0, 1, ... and
// keeps the first n whose plan fingerprint accept admits (nil admits
// all), solving and verifying each kept graph.
func buildPopulation(ctx context.Context, seed int64, n int, accept func(fp string) bool) ([]*problem, error) {
	cfg := pim.Neurocube(requestPEs)
	pop := make([]*problem, 0, n)
	for i := 0; len(pop) < n; i++ {
		if i >= 64*n {
			return nil, fmt.Errorf("population: %d draws admitted only %d of %d graphs", i, len(pop), n)
		}
		g, err := synth.Generate(synth.Params{Vertices: graphVertices, Edges: graphEdges, Seed: seed*10000 + int64(i)})
		if err != nil {
			return nil, fmt.Errorf("population: generating graph %d: %w", i, err)
		}
		fp := run.PlanFingerprint("", "", g, cfg)
		if accept != nil && !accept(fp) {
			continue
		}
		p, err := newProblem(ctx, g, fp, cfg)
		if err != nil {
			return nil, fmt.Errorf("population: graph %d: %w", i, err)
		}
		pop = append(pop, p)
	}
	return pop, nil
}

// newProblem solves g in the harness, checks the plan against the
// problem graph, and serialises the request and the expected answer.
func newProblem(ctx context.Context, g *dag.Graph, fp string, cfg pim.Config) (*problem, error) {
	p := &problem{g: g, fp: fp}
	if err := p.solveAndVerify(ctx, cfg); err != nil {
		return nil, err
	}
	p.want = planResponse(p.plan, cfg, requestIterations)
	p.planFrame = wire.AppendPlan(nil, p.plan)
	p.leanFrame = wire.AppendLeanPlan(nil, p.plan)

	p.body = wire.AppendRequest(nil, &wire.Request{PEs: requestPEs}, g)
	frame := dag.AppendBinary(nil, g)
	if !bytes.HasSuffix(p.body, frame) {
		return nil, fmt.Errorf("request frame does not end in the graph's binary frame")
	}
	p.graphFrame = p.body[len(p.body)-len(frame):]
	p.raw = rawPlanRequest(p.body)
	return p, nil
}

// solveAndVerify runs the reference solve and proves it correct
// without trusting the solver's own bookkeeping: the retiming is legal
// on the problem graph (Definition 3.1, Theorem 3.1), the kernel
// schedule fits the array, the allocation's footprint matches its
// claim, and the cached profit equals the full-table knapsack optimum.
func (p *problem) solveAndVerify(ctx context.Context, cfg pim.Config) error {
	g := p.g
	plan, err := sched.ParaCONVCtx(ctx, g, cfg)
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	groups := plan.ConcurrentIterations
	if groups < 1 || cfg.NumPEs%groups != 0 || plan.Iter.Graph.NumEdges() != groups*g.NumEdges() {
		return fmt.Errorf("reference solve: %d groups do not tile %d PEs and %d edges", groups, cfg.NumPEs, g.NumEdges())
	}
	p.plan = plan
	p.groupPEs = cfg.NumPEs / groups
	p.capacity = p.groupPEs * cfg.CacheUnitsPerPE
	p.assign = plan.Iter.Assignment[:g.NumEdges()]

	if err := check.CheckRetiming(g, plan.LogicalRetiming.R, plan.LogicalRetiming.REdge); err != nil {
		return err
	}
	kernel := plan.Iter.Graph
	exec := make([]int, kernel.NumNodes())
	slots := make([]check.Slot, len(plan.Iter.Tasks))
	for i, t := range plan.Iter.Tasks {
		exec[i] = kernel.Node(dag.NodeID(i)).Exec
		slots[i] = check.Slot{PE: int(t.PE), Start: t.Start, Finish: t.Finish}
	}
	if err := check.CheckSchedule(plan.Iter.PEs, plan.Iter.Period, exec, slots, plan.CacheLoadUnits, cfg.TotalCacheUnits()); err != nil {
		return err
	}
	claim := check.Claim{CacheUsed: plan.CacheLoadUnits / groups, CachedCount: plan.CachedIPRs, RMax: plan.RMax}
	if err := check.CheckAllocation(g, p.assign, p.capacity, claim, plan.LogicalRetiming.R); err != nil {
		return err
	}

	obj, err := sched.Objective(g, p.groupPEs)
	if err != nil {
		return err
	}
	if obj.Period != plan.Iter.Period {
		return fmt.Errorf("objective period %d differs from the plan's %d", obj.Period, plan.Iter.Period)
	}
	p.tm = obj.Timing()
	if p.order, err = g.TopoSort(); err != nil {
		return err
	}
	if p.classes, err = retime.Classify(g, p.tm); err != nil {
		return err
	}
	if p.items, err = core.BuildItems(g, p.classes, p.tm); err != nil {
		return err
	}
	_, optimum := core.KnapsackFullTable(p.items, p.capacity)
	profit := 0
	for e, place := range p.assign {
		if place == pim.InCache {
			profit += max(p.classes[e].DeltaR(), 0)
		}
	}
	if profit != optimum {
		return fmt.Errorf("plan caches profit %d; the full-table knapsack optimum is %d", profit, optimum)
	}
	return nil
}

// planResponse is the /v1/plan answer for plan, field for field what
// the server's handler builds.
func planResponse(plan *sched.Plan, cfg pim.Config, iterations int) wire.PlanResponse {
	resp := wire.PlanResponse{
		Scheme:               plan.Scheme,
		Arch:                 cfg.Name,
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

// rawPlanRequest pre-serialises the HTTP exchange the clients write
// verbatim.  The daemon never looks at Host, so one request serves
// every daemon address.
func rawPlanRequest(body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST /v1/plan HTTP/1.1\r\nHost: paraconvd\r\nContent-Type: %s\r\nAccept: %s\r\nContent-Length: %d\r\n\r\n",
		wire.ContentTypeBinary, wire.ContentTypeBinary, len(body))
	b.Write(body)
	return b.Bytes()
}

// answers checks every response against the reference.  The first
// response for a graph is decoded and compared field for field; its
// bytes are then kept, and because the wire codec is deterministic
// every later response must equal them byte for byte.  The clients own
// disjoint halves of the population, so no entry is shared.
type answers struct {
	pop  []*problem
	seen [][]byte
}

func newAnswers(pop []*problem) *answers {
	return &answers{pop: pop, seen: make([][]byte, len(pop))}
}

func (a *answers) check(k int, body []byte) error {
	if a.seen[k] != nil {
		if !bytes.Equal(body, a.seen[k]) {
			return fmt.Errorf("graph %d: response differs from the verified first response (%d vs %d bytes)", k, len(body), len(a.seen[k]))
		}
		return nil
	}
	var got wire.PlanResponse
	if err := wire.DecodePlanResponse(body, &got); err != nil {
		return fmt.Errorf("graph %d: decoding response: %w", k, err)
	}
	if !reflect.DeepEqual(got, a.pop[k].want) {
		return fmt.Errorf("graph %d: daemon answered %+v; the reference solve gives %+v", k, got, a.pop[k].want)
	}
	a.seen[k] = append([]byte(nil), body...)
	return nil
}
