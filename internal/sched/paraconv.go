package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/obs/span"
	"repro/internal/pim"
	"repro/internal/retime"
)

// planScratch pools every intermediate of one Para-CONV solve — the
// group-search execution multiset, packing loads, topological order,
// objective tasks and timing, edge classification, DP allocation and
// retiming propagation — so a steady-state plan construction touches
// the heap only for the outputs the returned *Plan retains.  It is
// the sched-layer counterpart of core's KnapsackInto scratch.
type planScratch struct {
	execs   []int
	loads   []int
	order   []dag.NodeID
	tasks   []Task
	start   []int
	finish  []int
	assign  retime.Assignment
	classes []retime.EdgeClass
	alloc   core.Allocation
	res     retime.Result
	cands   []groupCand
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// ints returns s resized to n without allocation when capacity
// suffices; contents are unspecified.
func ints(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// groupCand is one divisor candidate of the group search: u groups at
// packed period p.
type groupCand struct{ u, p int }

// checkSchedule re-verifies an iteration schedule through the
// invariant layer when checks are enabled: PE exclusivity, window
// bounds and the cache footprint against the given capacity.
func checkSchedule(s *IterationSchedule, cacheLoad, cacheCap int) error {
	if !check.Enabled() {
		return nil
	}
	exec := make([]int, s.Graph.NumNodes())
	slots := make([]check.Slot, len(s.Tasks))
	for i := range s.Tasks {
		exec[i] = s.Graph.Node(dag.NodeID(i)).Exec
		slots[i] = check.Slot{PE: int(s.Tasks[i].PE), Start: s.Tasks[i].Start, Finish: s.Tasks[i].Finish}
	}
	return check.CheckSchedule(s.PEs, s.Period, exec, slots, cacheLoad, cacheCap)
}

// transferWindowFactor sizes the minimum kernel period relative to the
// largest eDRAM transfer time.  Theorem 3.1 only needs c_{i,j} <= p,
// but a period that barely covers one transfer leaves no within-period
// windows, forcing nearly every eDRAM edge to a dedicated prologue
// iteration; keeping p >= 3x the largest transfer preserves usable
// head/tail windows at every PE count (the group-unroll search
// reclaims the idle capacity this would otherwise waste).
const transferWindowFactor = 3

// periodFloor returns the smallest admissible kernel period for the
// graph: the largest execution time and transferWindowFactor times the
// largest eDRAM transfer.
func periodFloor(g *dag.Graph) int {
	floor := g.MaxExec()
	for i := range g.Edges() {
		if t := transferWindowFactor * g.Edge(dag.EdgeID(i)).EDRAMTime; t > floor {
			floor = t
		}
	}
	return floor
}

// Objective builds Para-CONV's objective schedule (§3.3.3: "an initial
// objective task schedule, which is known-priori"): the fully
// compacted kernel.  Vertices are packed onto the PEs greedily in
// topological order with no transfer stalls — the packing keeps
// producers ahead of consumers wherever load balance allows, so a
// cache-resident IPR usually flows to its consumer within the same
// kernel round and only eDRAM placements pay prologue iterations;
// retiming legalizes the residual violations.  The period is the
// packing makespan, raised to the period floor so Theorem 3.1's
// precondition holds with usable transfer windows.
func Objective(g *dag.Graph, numPEs int) (IterationSchedule, error) {
	return ObjectiveWithPolicy(g, numPEs, PackTopo)
}

// buildObjective is the one objective builder behind Objective and
// paraCONVKernel: the topological order, the greedy packing onto
// numPEs PEs (its period raised to floor, g's periodFloor) and the
// all-eDRAM assignment, all written into sc, then the invariant
// check.  g must already be valid.
//
//paraconv:hotpath
func buildObjective(sc *planScratch, g *dag.Graph, numPEs, floor int) (IterationSchedule, error) {
	order, err := g.TopoSortInto(sc.order)
	sc.order = order
	if err != nil {
		return IterationSchedule{}, err
	}
	n := g.NumNodes()
	sc.loads = ints(sc.loads, numPEs)
	if cap(sc.tasks) < n {
		sc.tasks = make([]Task, n)
	}
	tasks := sc.tasks[:n]
	period := packObjective(g, order, numPEs, tasks, sc.loads, floor)
	if cap(sc.assign) < g.NumEdges() {
		sc.assign = make(retime.Assignment, g.NumEdges())
	}
	assign := sc.assign[:g.NumEdges()]
	for i := range assign {
		assign[i] = pim.InEDRAM
	}
	iter := IterationSchedule{Graph: g, PEs: numPEs, Period: period, Tasks: tasks, Assignment: assign}
	if err := checkSchedule(&iter, 0, 0); err != nil {
		return IterationSchedule{}, err
	}
	return iter, nil
}

// packObjective fills tasks (len |V|) and loads (len numPEs, used as
// scratch) by placing the vertices in order onto the least loaded PE,
// back to back, and returns the resulting period, raised to floor.
//
//paraconv:hotpath
func packObjective(g *dag.Graph, order []dag.NodeID, numPEs int, tasks []Task, loads []int, floor int) int {
	clear(loads)
	for _, v := range order {
		pe := 0
		for i := 1; i < numPEs; i++ {
			if loads[i] < loads[pe] {
				pe = i
			}
		}
		exec := g.Node(v).Exec
		tasks[v] = Task{Node: v, PE: pim.PEID(pe), Start: loads[pe], Finish: loads[pe] + exec}
		loads[pe] += exec
	}
	period := floor
	for _, l := range loads {
		if l > period {
			period = l
		}
	}
	return period
}

// packedMakespan computes the LPT makespan of the execution-time
// multiset (already sorted descending) on numPEs PEs — the cheap inner
// loop of the group search.  loads is caller scratch of length numPEs.
func packedMakespan(execs []int, numPEs int, loads []int) int {
	clear(loads)
	for _, e := range execs {
		pe := 0
		for i := 1; i < numPEs; i++ {
			if loads[i] < loads[pe] {
				pe = i
			}
		}
		loads[pe] += e
	}
	m := 0
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}

// chooseGroups picks how many identical PE groups the array is split
// into.  One iteration of a small graph cannot fill a large array —
// the period bottoms out at the floor — so Para-CONV replicates the
// kernel across U equal groups of numPEs/U PEs, each running its own
// iterations, and the steady-state cost per iteration becomes
// period/U.  The search walks the divisors of numPEs, minimizing that
// ratio while preferring the smallest U within 2% of the optimum
// (fewer groups mean less filter-weight duplication and, for graphs
// that already fill the array, U = 1: the paper's single-kernel
// configuration).
func chooseGroups(ctx context.Context, sc *planScratch, g *dag.Graph, numPEs, floor int) (int, error) {
	sc.execs = ints(sc.execs, g.NumNodes())
	execs := sc.execs
	for i := range g.Nodes() {
		execs[i] = g.Nodes()[i].Exec
	}
	slices.SortFunc(execs, func(a, b int) int { return b - a })

	sc.loads = ints(sc.loads, numPEs)
	cands := sc.cands[:0]
	bestU, bestP := 0, 0
	for u := 1; u <= numPEs; u++ {
		if numPEs%u != 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			sc.cands = cands
			return 0, fmt.Errorf("sched: group search cancelled at %d/%d PEs per group: %w", numPEs/u, numPEs, err)
		}
		p := packedMakespan(execs, numPEs/u, sc.loads[:numPEs/u])
		if p < floor {
			p = floor
		}
		cands = append(cands, groupCand{u, p})
		if bestU == 0 || p*bestU < bestP*u {
			bestU, bestP = u, p
		}
	}
	sc.cands = cands
	for _, c := range cands {
		// c.p/c.u <= 1.02 * bestP/bestU, in integers.
		if c.p*bestU*50 <= bestP*c.u*51 {
			return c.u, nil
		}
	}
	return bestU, nil
}

// ParaCONVCtx runs the full Para-CONV pipeline on the graph for the given
// PIM configuration: group selection, objective schedule, Figure-4
// classification, optimal DP cache allocation under the group's cache
// capacity, and the minimal legal retiming for the chosen allocation.
// The returned plan's ConcurrentIterations field holds the group count
// (iterations completed per kernel period).  The group search, the DP
// allocation and the retiming stages check ctx at iteration boundaries
// and return its error cleanly when cancelled mid-solve.
func ParaCONVCtx(ctx context.Context, g *dag.Graph, cfg pim.Config) (*Plan, error) {
	if err := checkProblem("para-conv", g, cfg); err != nil {
		return nil, err
	}
	sc := planPool.Get().(*planScratch)
	defer planPool.Put(sc)
	floor := periodFloor(g)
	groupSpan := span.Start(ctx, "sched.groups")
	groups, err := chooseGroups(ctx, sc, g, cfg.NumPEs, floor)
	groupSpan.End()
	if err != nil {
		return nil, err
	}
	return paraCONVKernel(ctx, sc, g, cfg, groups, floor)
}

// ParaCONVSingleCtx runs Para-CONV with a single group spanning the
// whole array — one application iteration per kernel, the
// configuration the paper's motivational example uses.  Ablation
// benches compare it against the adaptive ParaCONVCtx.
func ParaCONVSingleCtx(ctx context.Context, g *dag.Graph, cfg pim.Config) (*Plan, error) {
	if err := checkProblem("para-conv", g, cfg); err != nil {
		return nil, err
	}
	sc := planPool.Get().(*planScratch)
	defer planPool.Put(sc)
	return paraCONVKernel(ctx, sc, g, cfg, 1, periodFloor(g))
}

// checkProblem is the argument check every planner entry point
// shares: a valid configuration and a non-empty, valid graph.  A graph
// a decoder already proved is not re-proved (dag.Graph.Revalidate).
// scheme names the planner in the error.
func checkProblem(scheme string, g *dag.Graph, cfg pim.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sched: %s: %w", scheme, err)
	}
	if g.NumNodes() == 0 {
		return fmt.Errorf("sched: %s: empty graph %q", scheme, g.Name())
	}
	return g.Revalidate()
}

// ParaCONVGivenScheduleCtx runs Para-CONV's allocation stage against
// an objective schedule supplied by the caller.  §3.3.3 prescribes
// exactly this: "Para-CONV first obtains an initial objective task
// schedule, which is known a-priori" — the schedule is a property of
// the periodically-executed application (its iteration period p and
// per-operation start times/deadlines, §2.2), while the PIM
// configuration enters the optimization only through the PE-array
// cache capacity S that bounds the dynamic program.  Sweeping the
// array size at a fixed schedule therefore isolates the capacity
// effect: more PEs mean more aggregate cache, more IPRs promoted, and
// a smaller maximum retiming value — the paper's Table 2 trend.
func ParaCONVGivenScheduleCtx(ctx context.Context, g *dag.Graph, iter IterationSchedule, cfg pim.Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sched: para-conv: %w", err)
	}
	if iter.Graph != g {
		return nil, fmt.Errorf("sched: para-conv: schedule was built for a different graph")
	}
	if err := iter.Validate(); err != nil {
		return nil, fmt.Errorf("sched: para-conv: invalid objective schedule: %w", err)
	}
	sc := planPool.Get().(*planScratch)
	defer planPool.Put(sc)
	if err := allocate(ctx, sc, g, iter.Timing(), cfg.TotalCacheUnits(), nil); err != nil {
		return nil, err
	}
	iter.Assignment = slices.Clone(sc.alloc.Assignment)
	res := sc.retained()
	return recordPlan(&Plan{
		Scheme:               "para-conv",
		Iter:                 iter,
		ConcurrentIterations: 1,
		RMax:                 res.RMax,
		Retiming:             res,
		LogicalRetiming:      res,
		CachedIPRs:           sc.alloc.CachedCount,
		CacheLoadUnits:       sc.alloc.CacheUsed,
	}), nil
}

// allocate is the allocation stage both Para-CONV entry points share:
// Figure-4 classification of the objective timing, the §3.3.2 DP under
// the cache capacity, the minimal retiming for the chosen placement
// and its legality and allocation checks.  Every result lands in the
// pooled scratch (sc.classes, sc.alloc, sc.res); a non-nil order is
// g's topological order, saving the retiming pass a re-sort.
func allocate(ctx context.Context, sc *planScratch, g *dag.Graph, tm retime.Timing, capacity int, order []dag.NodeID) error {
	classes, err := retime.ClassifyInto(sc.classes, g, tm)
	if err != nil {
		return fmt.Errorf("sched: para-conv classify: %w", err)
	}
	sc.classes = classes
	if err := core.OptimizeInto(ctx, &sc.alloc, g, classes, tm, capacity); err != nil {
		return fmt.Errorf("sched: para-conv allocate: %w", err)
	}
	retimeSpan := span.Start(ctx, "sched.retime")
	err = retime.ApplyInto(&sc.res, g, classes, sc.alloc.Assignment, tm.Period, order)
	retimeSpan.End()
	if err != nil {
		return fmt.Errorf("sched: para-conv retime: %w", err)
	}
	if err := retime.CheckLegal(g, sc.res); err != nil {
		return fmt.Errorf("sched: para-conv produced illegal retiming: %w", err)
	}
	if check.Enabled() {
		if err := check.CheckAllocation(g, sc.alloc.Assignment, capacity,
			check.Claim{CacheUsed: sc.alloc.CacheUsed, CachedCount: sc.alloc.CachedCount, RMax: sc.res.RMax}, sc.res.R); err != nil {
			return fmt.Errorf("sched: para-conv: %w", err)
		}
	}
	return nil
}

// retained copies the scratch retiming out for a plan to keep.
func (sc *planScratch) retained() retime.Result {
	return retime.Result{
		R:      append([]int(nil), sc.res.R...),
		REdge:  append([]int(nil), sc.res.REdge...),
		RMax:   sc.res.RMax,
		Period: sc.res.Period,
	}
}

// paraCONVKernel builds the Para-CONV plan for a fixed group count
// (which must divide cfg.NumPEs): one iteration of the application is
// scheduled on a group of NumPEs/groups PEs, then replicated
// symmetrically across the groups.  Every group has identical timing,
// so the classification, the DP allocation (against the group's own
// cache capacity — each group holds its own IPR instances) and the
// retiming are computed once on the original graph.
//
// Every intermediate — topological order, objective timing, edge
// classes, DP allocation, retiming propagation — lives in the pooled
// scratch; only the replicated graph (none for one group), final task
// list, expanded assignment and fresh retiming copies (the state the
// returned *Plan retains) are allocated.
//
//paraconv:hotpath
func paraCONVKernel(ctx context.Context, sc *planScratch, g *dag.Graph, cfg pim.Config, groups, floor int) (*Plan, error) {
	if groups < 1 || cfg.NumPEs%groups != 0 {
		return nil, fmt.Errorf("sched: para-conv: %d groups does not divide %d PEs", groups, cfg.NumPEs)
	}
	groupPEs := cfg.NumPEs / groups

	objSpan := span.Start(ctx, "sched.objective")
	iter, err := buildObjective(sc, g, groupPEs, floor)
	objSpan.End()
	if err != nil {
		return nil, fmt.Errorf("sched: para-conv objective: %w", err)
	}
	tasks, n := iter.Tasks, g.NumNodes()

	// Timing straight out of the packed tasks (tasks[v].Node == v).
	sc.start = ints(sc.start, n)
	sc.finish = ints(sc.finish, n)
	for v := 0; v < n; v++ {
		sc.start[v] = tasks[v].Start
		sc.finish[v] = tasks[v].Finish
	}
	tm := retime.Timing{Start: sc.start[:n], Finish: sc.finish[:n], Period: iter.Period}

	if err := allocate(ctx, sc, g, tm, groupPEs*cfg.CacheUnitsPerPE, sc.order); err != nil {
		return nil, err
	}

	// Replicate the group schedule across the array.  Everything from
	// here down is retained by the returned plan, so it is built fresh
	// rather than from the scratch.  One group's kernel is the problem
	// graph itself, aliased as wire.DecodeLeanPlan and
	// ParaCONVGivenScheduleCtx alias it, so a planned graph is read-only.
	gu := g
	if groups > 1 {
		if gu, err = dag.Replicate(g, groups); err != nil {
			return nil, fmt.Errorf("sched: para-conv replicate: %w", err)
		}
	}
	fullTasks := make([]Task, 0, gu.NumNodes())
	for k := 0; k < groups; k++ {
		for i := range tasks {
			t := tasks[i]
			t.Node += dag.NodeID(k * n)
			t.PE += pim.PEID(k * groupPEs)
			fullTasks = append(fullTasks, t)
		}
	}
	full := IterationSchedule{
		Graph:      gu,
		PEs:        cfg.NumPEs,
		Period:     iter.Period,
		Tasks:      fullTasks,
		Assignment: retime.ExpandAssignment(sc.alloc.Assignment, groups),
	}
	if err := checkSchedule(&full, groups*sc.alloc.CacheUsed, cfg.TotalCacheUnits()); err != nil {
		return nil, fmt.Errorf("sched: para-conv replicated kernel: %w", err)
	}
	return recordPlan(&Plan{
		Scheme:               "para-conv",
		Iter:                 full,
		ConcurrentIterations: groups,
		RMax:                 sc.res.RMax,
		Retiming:             expandRetiming(sc.res, groups),
		LogicalRetiming:      sc.retained(),
		CachedIPRs:           sc.alloc.CachedCount,
		CacheLoadUnits:       groups * sc.alloc.CacheUsed,
	}), nil
}

// expandRetiming replicates a single-group retiming result onto the
// replicated kernel graph: every group's copy of vertex v inherits
// R(v) and every copy of edge e inherits its required rrv.  Legality
// carries over because the groups' schedules are identical.
func expandRetiming(res retime.Result, groups int) retime.Result {
	out := retime.Result{
		R:      make([]int, 0, len(res.R)*groups),
		REdge:  make([]int, 0, len(res.REdge)*groups),
		RMax:   res.RMax,
		Period: res.Period,
	}
	for k := 0; k < groups; k++ {
		out.R = append(out.R, res.R...)
		out.REdge = append(out.REdge, res.REdge...)
	}
	return out
}
