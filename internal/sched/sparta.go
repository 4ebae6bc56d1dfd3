package sched

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
)

// SPARTACtx implements the baseline scheme of the paper's evaluation:
// SPARTA [6], a runtime task-allocation approach for many-core
// platforms.  SPARTA "collects sensor data to characterize tasks and
// uses this information to prioritize tasks when performing
// allocation"; the reimplementation characterizes every task by its
// observed execution time and communication volume, prioritizes by
// upward rank (critical-path-to-sink including transfer times), and
// list-schedules one iteration of the application across the full PE
// array, respecting every intra-iteration dependency.  As a runtime
// allocator it neither retimes nor software-pipelines: successive
// iterations execute back-to-back, so the iteration interval is the
// whole makespan, including every data-movement stall — the cost
// Para-CONV's joint optimization eliminates.  The list scheduler
// checks ctx at task-placement boundaries and returns its error when
// cancelled.
func SPARTACtx(ctx context.Context, g *dag.Graph, cfg pim.Config) (*Plan, error) {
	if err := checkProblem("sparta", g, cfg); err != nil {
		return nil, err
	}
	assignment := greedyCache(g, cfg.TotalCacheUnits())
	iter, err := listSchedule(ctx, g, cfg.NumPEs, assignment)
	if err != nil {
		return nil, fmt.Errorf("sched: sparta: %w", err)
	}
	cached, load := 0, 0
	for i, p := range assignment {
		if p == pim.InCache {
			cached++
			load += g.Edge(dag.EdgeID(i)).Size
		}
	}
	p := &Plan{
		Scheme:               "sparta",
		Iter:                 iter,
		ConcurrentIterations: 1,
		CachedIPRs:           cached,
		CacheLoadUnits:       load,
	}
	if err := CheckPlan(p, g, cfg); err != nil {
		return nil, err
	}
	return recordPlan(p), nil
}

// greedyCache is SPARTA's cache policy: tasks' traffic volumes are the
// sensor signal, so the largest intermediate results are pinned to
// cache first until capacity runs out.
func greedyCache(g *dag.Graph, capacity int) retime.Assignment {
	order := make([]dag.EdgeID, g.NumEdges())
	for i := range order {
		order[i] = dag.EdgeID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := g.Edge(order[a]), g.Edge(order[b])
		// Primary signal: raw traffic (bytes if annotated, else the
		// capacity footprint); ties by saved transfer time, then ID.
		ta := trafficOf(ea)
		tb := trafficOf(eb)
		if ta != tb {
			return ta > tb
		}
		sa, sb := ea.EDRAMTime-ea.CacheTime, eb.EDRAMTime-eb.CacheTime
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	a := retime.AllEDRAM(g.NumEdges())
	left := capacity
	for _, id := range order {
		if sz := g.Edge(id).Size; sz <= left {
			a[id] = pim.InCache
			left -= sz
		}
	}
	return a
}

func trafficOf(e *dag.Edge) int64 {
	if e.Bytes > 0 {
		return e.Bytes
	}
	return int64(e.Size)
}

// listSchedule performs priority list scheduling of one iteration on
// `pes` processing engines, honouring every dependency with the
// transfer time implied by the IPR placement.
func listSchedule(ctx context.Context, g *dag.Graph, pes int, assignment retime.Assignment) (IterationSchedule, error) {
	if pes < 1 {
		return IterationSchedule{}, fmt.Errorf("sched: %d PEs; want >= 1", pes)
	}
	n := g.NumNodes()
	transfer := func(eid dag.EdgeID) int { return retime.TransferTime(g.Edge(eid), assignment[eid]) }

	// Upward rank: longest path from each vertex to any sink, counting
	// execution and transfer times — the task characterization signal.
	order, err := g.TopoSort()
	if err != nil {
		return IterationSchedule{}, err
	}
	rank := make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		r := 0
		for _, eid := range g.Out(v) {
			e := g.Edge(eid)
			if cand := transfer(eid) + rank[e.To]; cand > r {
				r = cand
			}
		}
		rank[v] = g.Node(v).Exec + r
	}

	indeg := make([]int, n)
	dataReady := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = g.InDegree(dag.NodeID(v))
	}
	var frontier []dag.NodeID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, dag.NodeID(v))
		}
	}

	peFree := make([]int, pes)
	tasks := make([]Task, n)
	scheduled := 0
	for scheduled < n {
		if err := ctx.Err(); err != nil {
			return IterationSchedule{}, fmt.Errorf("sched: list scheduling cancelled with %d/%d tasks placed: %w", scheduled, n, err)
		}
		if len(frontier) == 0 {
			return IterationSchedule{}, fmt.Errorf("sched: list scheduling stalled with %d/%d tasks placed", scheduled, n)
		}
		// Highest rank first; ties by ID for determinism.
		sort.Slice(frontier, func(a, b int) bool {
			ra, rb := rank[frontier[a]], rank[frontier[b]]
			if ra != rb {
				return ra > rb
			}
			return frontier[a] < frontier[b]
		})
		v := frontier[0]
		frontier = frontier[1:]

		// Earliest-available PE.
		pe := 0
		for i := 1; i < pes; i++ {
			if peFree[i] < peFree[pe] {
				pe = i
			}
		}
		start := peFree[pe]
		if dataReady[v] > start {
			start = dataReady[v]
		}
		finish := start + g.Node(v).Exec
		tasks[v] = Task{Node: v, PE: pim.PEID(pe), Start: start, Finish: finish}
		peFree[pe] = finish
		scheduled++

		for _, eid := range g.Out(v) {
			e := g.Edge(eid)
			if arr := finish + transfer(eid); arr > dataReady[e.To] {
				dataReady[e.To] = arr
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				frontier = append(frontier, e.To)
			}
		}
	}
	makespan := 0
	for i := range tasks {
		if tasks[i].Finish > makespan {
			makespan = tasks[i].Finish
		}
	}
	return IterationSchedule{
		Graph:      g,
		PEs:        pes,
		Period:     makespan,
		Tasks:      tasks,
		Assignment: assignment,
	}, nil
}
