package sim

import (
	"container/heap"
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
)

// DynamicStats reports a self-timed dataflow execution.
type DynamicStats struct {
	// Makespan is the completion time of the last iteration.
	Makespan int
	// Iterations echoes the run length.
	Iterations int
	// Throughput is iterations per time unit.
	Throughput float64
	// BusyPE is aggregate PE-busy time; utilization is
	// BusyPE/(Makespan*NumPEs).
	BusyPE int
	// MaxInFlight is the peak number of concurrent iterations.
	MaxInFlight int
}

// Utilization returns the fraction of PE time spent computing.
func (s DynamicStats) Utilization(numPEs int) float64 {
	if s.Makespan == 0 || numPEs == 0 {
		return 0
	}
	return float64(s.BusyPE) / float64(s.Makespan*numPEs)
}

// QueueStats reports an arrival-driven execution: inference requests
// arrive every `interval` time units and queue until the window
// admits them; the latency of a request is completion minus arrival.
type QueueStats struct {
	Iterations int
	Interval   int
	// MeanLatency, P95Latency and MaxLatency summarize request
	// latencies in time units.
	MeanLatency float64
	P95Latency  int
	MaxLatency  int
	// Makespan is the completion time of the last request.
	Makespan int
}

// Dynamic executes the application as a self-timed dataflow machine:
// no static schedule, no retiming — any task instance whose operands
// have arrived is dispatched to the first free PE, with up to `window`
// application iterations in flight at once.  This is the execution
// model a fully dynamic PIM runtime would implement; its throughput
// upper-bounds what a static scheduler can reach under the same IPR
// placement, at the price of hardware the paper's architecture does
// not have (global dispatch, per-instance scoreboards).  The ablation
// benches report how close Para-CONV's static kernel comes to this
// bound.
func Dynamic(g *dag.Graph, cfg pim.Config, assignment retime.Assignment, iterations, window int) (DynamicStats, error) {
	run, err := selfTimed(g, cfg, assignment, 0, iterations, window)
	if err != nil {
		return DynamicStats{}, fmt.Errorf("sim: dynamic: %w", err)
	}
	return DynamicStats{
		Makespan:    run.makespan,
		Iterations:  iterations,
		Throughput:  float64(iterations) / float64(run.makespan),
		BusyPE:      run.busy,
		MaxInFlight: run.maxInFlight,
	}, nil
}

// Queueing executes `iterations` requests arriving every `interval`
// time units under self-timed dataflow dispatch with the given IPR
// placement and pipelining window, and reports latency statistics.
// An interval below the sustainable service time makes latencies grow
// linearly (the queue diverges); above it, latency settles at the
// pipeline traversal time — the knee locates the system's capacity.
// At interval 0 every request arrives at once and the run is
// Dynamic's.
func Queueing(g *dag.Graph, cfg pim.Config, assignment retime.Assignment, interval, iterations, window int) (QueueStats, error) {
	run, err := selfTimed(g, cfg, assignment, interval, iterations, window)
	if err != nil {
		return QueueStats{}, fmt.Errorf("sim: queueing: %w", err)
	}
	sorted := run.latencies
	slices.Sort(sorted)
	sum := 0
	for _, l := range sorted {
		sum += l
	}
	return QueueStats{
		Iterations:  iterations,
		Interval:    interval,
		MeanLatency: float64(sum) / float64(iterations),
		P95Latency:  sorted[(len(sorted)*95)/100],
		MaxLatency:  sorted[len(sorted)-1],
		Makespan:    run.makespan,
	}, nil
}

// selfTimedRun is what one self-timed execution records.
type selfTimedRun struct {
	makespan    int
	busy        int   // aggregate PE-busy time
	maxInFlight int   // peak concurrent iterations
	latencies   []int // per iteration: completion minus arrival
}

// dynEvent is a completion event in the self-timed executor.
type dynEvent struct {
	time int
	kind uint8 // 0 = task finished, 1 = transfer arrived, 2 = arrival tick
	node dag.NodeID
	edge dag.EdgeID
	iter int
}

type dynHeap []dynEvent

func (h dynHeap) Len() int { return len(h) }
func (h dynHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].iter != h[j].iter {
		return h[i].iter < h[j].iter
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	if h[i].node != h[j].node {
		return h[i].node < h[j].node
	}
	return h[i].edge < h[j].edge
}
func (h dynHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dynHeap) Push(x any)   { *h = append(*h, x.(dynEvent)) }
func (h *dynHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// iterSlot is the scoreboard of one in-flight iteration.
type iterSlot struct {
	iter    int
	pending []int // unarrived operand count per vertex
	done    int   // vertices completed
	used    bool
}

// selfTimed is the one self-timed dataflow executor behind Dynamic
// and Queueing: iteration k arrives at k*interval (all at time zero
// for interval 0), is admitted once the window has room, and each of
// its task instances is dispatched to the first free PE as soon as its
// operands have arrived.
func selfTimed(g *dag.Graph, cfg pim.Config, assignment retime.Assignment, interval, iterations, window int) (selfTimedRun, error) {
	if err := cfg.Validate(); err != nil {
		return selfTimedRun{}, err
	}
	if err := g.Validate(); err != nil {
		return selfTimedRun{}, err
	}
	if g.NumNodes() == 0 {
		return selfTimedRun{}, fmt.Errorf("empty graph")
	}
	if len(assignment) != g.NumEdges() {
		return selfTimedRun{}, fmt.Errorf("assignment covers %d/%d edges", len(assignment), g.NumEdges())
	}
	if interval < 0 || iterations < 1 || window < 1 {
		return selfTimedRun{}, fmt.Errorf("interval %d, iterations %d, window %d; want interval >= 0, iterations and window >= 1",
			interval, iterations, window)
	}

	n := g.NumNodes()
	slots := make([]iterSlot, window)
	started, completed := 0, 0
	run := selfTimedRun{latencies: make([]int, iterations)}

	var events dynHeap
	var readyQ []dynEvent
	peFree := make([]int, cfg.NumPEs)

	// admit starts arrived iterations while the window has room and
	// the target slot is reusable; sources of a fresh iteration become
	// ready immediately.
	admit := func(now int) {
		for started < iterations && started-completed < window && started*interval <= now {
			slot := &slots[started%window]
			if slot.used && slot.done < n {
				break
			}
			*slot = iterSlot{iter: started, pending: make([]int, n), used: true}
			for v := 0; v < n; v++ {
				slot.pending[v] = g.InDegree(dag.NodeID(v))
				if slot.pending[v] == 0 {
					readyQ = append(readyQ, dynEvent{time: now, node: dag.NodeID(v), iter: started})
				}
			}
			started++
		}
		if f := started - completed; f > run.maxInFlight {
			run.maxInFlight = f
		}
		// Wake up for the next arrival even if nothing else happens.
		if started < iterations {
			if next := started * interval; next > now {
				heap.Push(&events, dynEvent{time: next, kind: 2, iter: started})
			}
		}
	}

	// dispatch assigns ready tasks to free PEs at time `now`.
	dispatch := func(now int) {
		i := 0
		for i < len(readyQ) {
			pe := -1
			for p := 0; p < cfg.NumPEs; p++ {
				if peFree[p] <= now {
					pe = p
					break
				}
			}
			if pe < 0 {
				break
			}
			ev := readyQ[i]
			exec := g.Node(ev.node).Exec
			peFree[pe] = now + exec
			run.busy += exec
			heap.Push(&events, dynEvent{time: now + exec, kind: 0, node: ev.node, iter: ev.iter})
			readyQ = append(readyQ[:i], readyQ[i+1:]...)
		}
	}

	admit(0)
	dispatch(0)
	for completed < iterations {
		if events.Len() == 0 {
			return selfTimedRun{}, fmt.Errorf("executor stalled at %d/%d iterations", completed, iterations)
		}
		ev := heap.Pop(&events).(dynEvent)
		now := ev.time
		switch ev.kind {
		case 0: // task finished
			slot := &slots[ev.iter%window]
			slot.done++
			if slot.done == n {
				completed++
				run.latencies[ev.iter] = now - ev.iter*interval
				if now > run.makespan {
					run.makespan = now
				}
			}
			for _, eid := range g.Out(ev.node) {
				heap.Push(&events, dynEvent{time: now + retime.TransferTime(g.Edge(eid), assignment[eid]), kind: 1, edge: eid, iter: ev.iter})
			}
		case 1: // transfer arrived
			e := g.Edge(ev.edge)
			slot := &slots[ev.iter%window]
			if slot.used && slot.iter == ev.iter && slot.done < n {
				slot.pending[e.To]--
				if slot.pending[e.To] == 0 {
					readyQ = append(readyQ, dynEvent{time: now, node: e.To, iter: ev.iter})
				}
			}
		case 2: // arrival tick — admission handled below
		}
		admit(now)
		dispatch(now)
	}
	return run, nil
}
