package sched

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
)

// NaiveCtx builds the weakest sensible plan: tasks are assigned to PEs
// round-robin in vertex order (no load awareness, no priorities), all
// intermediate results live in eDRAM (no cache management at all),
// dependencies are honoured inside one iteration, and iterations run
// back-to-back.  It brackets the design space from below — SPARTA's
// improvement over Naive shows what task characterization buys, and
// Para-CONV's improvement over SPARTA shows what joint reallocation
// buys on top.  ctx is checked once up front (the round-robin
// placement itself is linear and near-instant).
func NaiveCtx(ctx context.Context, g *dag.Graph, cfg pim.Config) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sched: naive: %w", err)
	}
	if err := checkProblem("naive", g, cfg); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	assignment := retime.AllEDRAM(g.NumEdges())
	n := g.NumNodes()
	peFree := make([]int, cfg.NumPEs)
	dataReady := make([]int, n)
	tasks := make([]Task, n)
	for idx, v := range order {
		pe := idx % cfg.NumPEs // round-robin, oblivious to load
		start := peFree[pe]
		if dataReady[v] > start {
			start = dataReady[v]
		}
		exec := g.Node(v).Exec
		tasks[v] = Task{Node: v, PE: pim.PEID(pe), Start: start, Finish: start + exec}
		peFree[pe] = start + exec
		for _, eid := range g.Out(v) {
			e := g.Edge(eid)
			if arr := start + exec + e.EDRAMTime; arr > dataReady[e.To] {
				dataReady[e.To] = arr
			}
		}
	}
	makespan := 0
	for i := range tasks {
		if tasks[i].Finish > makespan {
			makespan = tasks[i].Finish
		}
	}
	return recordPlan(&Plan{
		Scheme: "naive",
		Iter: IterationSchedule{
			Graph:      g,
			PEs:        cfg.NumPEs,
			Period:     makespan,
			Tasks:      tasks,
			Assignment: assignment,
		},
		ConcurrentIterations: 1,
	}), nil
}
