package sched

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/pim"
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
	if policy == PackTopo {
		return Objective(g, numPEs) // runs the same checks itself
	}
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
	case PackLPT:
		order := make([]dag.NodeID, g.NumNodes())
		for i := range order {
			order[i] = dag.NodeID(i)
		}
		sort.Slice(order, func(a, b int) bool {
			ea, eb := g.Node(order[a]).Exec, g.Node(order[b]).Exec
			if ea != eb {
				return ea > eb
			}
			return order[a] < order[b]
		})
		return packOrder(g, numPEs, order), nil
	case PackLevel:
		return packLevels(g, numPEs)
	default:
		return IterationSchedule{}, fmt.Errorf("sched: unknown packing policy %d", policy)
	}
}

// packOrder places vertices in the given order onto the least loaded
// PE, back to back.
func packOrder(g *dag.Graph, numPEs int, order []dag.NodeID) IterationSchedule {
	loads := make([]int, numPEs)
	tasks := make([]Task, g.NumNodes())
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
	period := 0
	for _, l := range loads {
		if l > period {
			period = l
		}
	}
	if floor := periodFloor(g); floor > period {
		period = floor
	}
	return IterationSchedule{
		Graph:      g,
		PEs:        numPEs,
		Period:     period,
		Tasks:      tasks,
		Assignment: retime.AllEDRAM(g.NumEdges()),
	}
}

// packLevels schedules each ASAP level as a synchronized block.
func packLevels(g *dag.Graph, numPEs int) (IterationSchedule, error) {
	levels, err := g.Levels()
	if err != nil {
		return IterationSchedule{}, err
	}
	tasks := make([]Task, g.NumNodes())
	t := 0
	for _, level := range levels {
		// LPT within the level for balance.
		order := append([]dag.NodeID(nil), level...)
		sort.Slice(order, func(a, b int) bool {
			ea, eb := g.Node(order[a]).Exec, g.Node(order[b]).Exec
			if ea != eb {
				return ea > eb
			}
			return order[a] < order[b]
		})
		loads := make([]int, numPEs)
		blockLen := 0
		for _, v := range order {
			pe := 0
			for i := 1; i < numPEs; i++ {
				if loads[i] < loads[pe] {
					pe = i
				}
			}
			exec := g.Node(v).Exec
			tasks[v] = Task{Node: v, PE: pim.PEID(pe), Start: t + loads[pe], Finish: t + loads[pe] + exec}
			loads[pe] += exec
			if loads[pe] > blockLen {
				blockLen = loads[pe]
			}
		}
		t += blockLen
	}
	period := t
	if floor := periodFloor(g); floor > period {
		period = floor
	}
	return IterationSchedule{
		Graph:      g,
		PEs:        numPEs,
		Period:     period,
		Tasks:      tasks,
		Assignment: retime.AllEDRAM(g.NumEdges()),
	}, nil
}
