package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"

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
// all-eDRAM assignment, all written into sc.  g must already be
// valid.
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
	return IterationSchedule{Graph: g, PEs: numPEs, Period: period, Tasks: tasks, Assignment: assign}, nil
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
	if err := iter.Validate(); err != nil {
		return nil, fmt.Errorf("sched: para-conv: invalid objective schedule: %w", err)
	}
	sc := planPool.Get().(*planScratch)
	defer planPool.Put(sc)
	p, err := assemble(ctx, sc, g, iter, 1, cfg.TotalCacheUnits(), nil)
	if err != nil {
		return nil, err
	}
	// The timing is spent: its n start slots serve as the check's scratch.
	if err := checkPlan(p, g, cfg, sc.start); err != nil {
		return nil, err
	}
	return recordPlan(p), nil
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
// scratch; only what assemble builds for the returned *Plan is
// allocated.
//
//paraconv:hotpath
func paraCONVKernel(ctx context.Context, sc *planScratch, g *dag.Graph, cfg pim.Config, groups, floor int) (*Plan, error) {
	if groups < 1 || cfg.NumPEs%groups != 0 {
		return nil, fmt.Errorf("sched: para-conv: %d groups does not divide %d PEs", groups, cfg.NumPEs)
	}
	groupPEs := cfg.NumPEs / groups

	objSpan := span.Start(ctx, "sched.objective")
	group, err := buildObjective(sc, g, groupPEs, floor)
	objSpan.End()
	if err != nil {
		return nil, fmt.Errorf("sched: para-conv objective: %w", err)
	}
	p, err := assemble(ctx, sc, g, group, groups, groupPEs*cfg.CacheUnitsPerPE, sc.order)
	if err != nil {
		return nil, err
	}
	// The timing is spent: its n start slots serve as the check's scratch.
	if err := checkPlan(p, g, cfg, sc.start); err != nil {
		return nil, err
	}
	return recordPlan(p), nil
}

// assemble is the assembly step both Para-CONV entry points end in
// (§3.3): group is one iteration of g on group.PEs PEs (the objective
// schedule), whose edges are classified under its timing (Figure 4)
// and whose IPRs the §3.3.2 DP places under capacity.  The plan runs
// group on each of ci identical PE groups: group k is group 0 shifted
// by k·|V| vertices and k·group.PEs PEs on the kernel Replicate(g, ci)
// — g itself, aliased, at one group, so a planned graph is read-only —
// and places its IPRs as group 0 does.  The cache counts are read off
// that placement, and the plan carries the minimal retiming it implies
// under the group's timing (Definition 3.1), repeated per group; a
// non-nil order is g's topological order, saving the retiming pass a
// re-sort.  Every intermediate lives in sc and everything the plan
// retains is built fresh, so group may live in sc too; the caller
// proves the plan with checkPlan.
//
//paraconv:hotpath
func assemble(ctx context.Context, sc *planScratch, g *dag.Graph, group IterationSchedule, ci, capacity int, order []dag.NodeID) (*Plan, error) {
	n := len(group.Tasks)
	sc.start, sc.finish = ints(sc.start, n), ints(sc.finish, n)
	for v := range group.Tasks {
		sc.start[v], sc.finish[v] = group.Tasks[v].Start, group.Tasks[v].Finish
	}
	tm := retime.Timing{Start: sc.start, Finish: sc.finish, Period: group.Period}
	classes, err := retime.ClassifyInto(sc.classes, g, tm)
	if err != nil {
		return nil, fmt.Errorf("sched: para-conv classify: %w", err)
	}
	sc.classes = classes
	if err := core.OptimizeInto(ctx, &sc.alloc, g, classes, tm, capacity); err != nil {
		return nil, fmt.Errorf("sched: para-conv allocate: %w", err)
	}
	group.Assignment = sc.alloc.Assignment
	retimeSpan := span.Start(ctx, "sched.retime")
	err = retime.ApplyInto(&sc.res, g, classes, group.Assignment, group.Period, order)
	retimeSpan.End()
	if err != nil {
		return nil, fmt.Errorf("sched: para-conv retime: %w", err)
	}

	kernel := g
	if ci > 1 {
		if kernel, err = dag.Replicate(g, ci); err != nil {
			return nil, fmt.Errorf("sched: para-conv replicate: %w", err)
		}
	}
	tasks := make([]Task, 0, ci*n)
	for k := 0; k < ci; k++ {
		for v, t := range group.Tasks {
			t.Node = dag.NodeID(k*n + v)
			t.PE += pim.PEID(k * group.PEs)
			tasks = append(tasks, t)
		}
	}
	p := &Plan{
		Scheme: "para-conv",
		Iter: IterationSchedule{
			Graph:      kernel,
			PEs:        ci * group.PEs,
			Period:     group.Period,
			Tasks:      tasks,
			Assignment: retime.ExpandAssignment(group.Assignment, ci),
		},
		ConcurrentIterations: ci,
		RMax:                 sc.res.RMax,
		LogicalRetiming:      sc.retained(),
	}
	p.Retiming = expandRetiming(p.LogicalRetiming, ci)
	for i, pl := range group.Assignment {
		if pl == pim.InCache {
			p.CachedIPRs++
			p.CacheLoadUnits += ci * g.Edges()[i].Size
		}
	}
	return p, nil
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
