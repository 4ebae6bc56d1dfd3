package sched

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/retime"
)

// PackPolicy selects how the objective kernel packs vertices onto PEs.
// The choice shapes the retiming classification: packings that keep
// producers ahead of consumers leave most IPRs at relative retiming 0,
// while compaction-first packings scatter instances and lean harder on
// the prologue.  The ablation benches quantify the difference.
type PackPolicy uint8

const (
	// PackTopo packs greedily in topological order onto the least
	// loaded PE — Para-CONV's default (see Objective).
	PackTopo PackPolicy = iota
	// PackLPT packs longest-processing-time-first, the classic
	// makespan heuristic, ignoring dependencies entirely.
	PackLPT
	// PackLevel packs level by level with a barrier between levels:
	// every level-k vertex finishes before any level-k+1 vertex
	// starts.  Zero backwards edges, at the price of barrier idle
	// time (a longer period).
	PackLevel
)

// String implements fmt.Stringer.
func (p PackPolicy) String() string {
	switch p {
	case PackTopo:
		return "topo"
	case PackLPT:
		return "lpt"
	case PackLevel:
		return "level"
	default:
		return fmt.Sprintf("packpolicy(%d)", uint8(p))
	}
}

// ObjectiveWithPolicy is Objective with an explicit packing policy.
func ObjectiveWithPolicy(g *dag.Graph, numPEs int, policy PackPolicy) (IterationSchedule, error) {
	if numPEs < 1 {
		return IterationSchedule{}, fmt.Errorf("sched: %d PEs; want >= 1", numPEs)
	}
	if g.NumNodes() == 0 {
		return IterationSchedule{}, fmt.Errorf("sched: empty graph %q", g.Name())
	}
	if err := g.Validate(); err != nil {
		return IterationSchedule{}, err
	}
	switch policy {
	case PackTopo:
		// A fresh scratch: the caller keeps the schedule's slices.
		iter, err := buildObjective(new(planScratch), g, numPEs, periodFloor(g))
		if err != nil {
			return IterationSchedule{}, fmt.Errorf("sched: objective: %w", err)
		}
		return iter, nil
	case PackLPT:
		order := make([]dag.NodeID, g.NumNodes())
		for i := range order {
			order[i] = dag.NodeID(i)
		}
		sortLPT(g, order)
		tasks := make([]Task, g.NumNodes())
		period := packObjective(g, order, numPEs, tasks, make([]int, numPEs), periodFloor(g))
		return IterationSchedule{
			Graph:      g,
			PEs:        numPEs,
			Period:     period,
			Tasks:      tasks,
			Assignment: retime.AllEDRAM(g.NumEdges()),
		}, nil
	case PackLevel:
		return packLevels(g, numPEs)
	default:
		return IterationSchedule{}, fmt.Errorf("sched: unknown packing policy %d", policy)
	}
}

// sortLPT orders vertices longest execution time first, ties by ID.
func sortLPT(g *dag.Graph, order []dag.NodeID) {
	sort.Slice(order, func(a, b int) bool {
		ea, eb := g.Node(order[a]).Exec, g.Node(order[b]).Exec
		if ea != eb {
			return ea > eb
		}
		return order[a] < order[b]
	})
}

// packLevels schedules each ASAP level as a synchronized block: the
// level is packed longest-first for balance, and its block starts once
// the previous level's has finished.
func packLevels(g *dag.Graph, numPEs int) (IterationSchedule, error) {
	levels, err := g.Levels()
	if err != nil {
		return IterationSchedule{}, err
	}
	tasks := make([]Task, g.NumNodes())
	loads := make([]int, numPEs)
	t := 0
	for _, level := range levels {
		sortLPT(g, level)
		blockLen := packObjective(g, level, numPEs, tasks, loads, 0)
		for _, v := range level {
			tasks[v].Start += t
			tasks[v].Finish += t
		}
		t += blockLen
	}
	return IterationSchedule{
		Graph:      g,
		PEs:        numPEs,
		Period:     max(t, periodFloor(g)),
		Tasks:      tasks,
		Assignment: retime.AllEDRAM(g.NumEdges()),
	}, nil
}
