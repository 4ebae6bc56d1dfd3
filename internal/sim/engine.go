package sim

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dag"
	"repro/internal/obs/span"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
)

// EventKind tags one simulation event.
type EventKind uint8

const (
	// EvTaskStart and EvTaskEnd bracket one vertex instance's
	// execution on a PE.
	EvTaskStart EventKind = iota
	EvTaskEnd
	// EvTransferStart and EvTransferEnd bracket one IPR transfer
	// (cache forward or eDRAM round trip).
	EvTransferStart
	EvTransferEnd
	// EvIterationDone marks the completion of one application
	// iteration (all its sinks executed).
	EvIterationDone
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvTaskStart:
		return "task-start"
	case EvTaskEnd:
		return "task-end"
	case EvTransferStart:
		return "xfer-start"
	case EvTransferEnd:
		return "xfer-end"
	case EvIterationDone:
		return "iter-done"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one timestamped simulation event.
type Event struct {
	Time int
	Kind EventKind
	// PE is set for task events.
	PE pim.PEID
	// Node is the vertex (task events) indexed into the kernel graph.
	Node dag.NodeID
	// Edge is the IPR (transfer events) indexed into the kernel graph.
	Edge dag.EdgeID
	// Iter is the application iteration the event serves.
	Iter int
	// Place is the IPR's placement (transfer events).
	Place pim.Placement
}

// Trace is the full event log of a simulation run plus derived
// resource-usage profiles.
type Trace struct {
	Events []Event

	// PeakConcurrentEDRAM is the maximum number of eDRAM transfers in
	// flight at any time unit — compare against the vault count to
	// judge TSV contention.
	PeakConcurrentEDRAM int

	// PeakLiveCachedIPRs is the maximum number of cached IPR
	// instances simultaneously live (produced but not yet consumed);
	// with statically reserved slots this is bounded by the slot
	// count times the instances a slot must hold (Theorem 3.1: ≤ 3).
	PeakLiveCachedIPRs int

	// PEBusy is the total busy time per PE over the run, derived from
	// the task events; the spread across entries shows load balance.
	PEBusy []int
}

// BusySpread returns max(PEBusy) - min(PEBusy), the load imbalance in
// time units (0 for an empty trace).
func (tr *Trace) BusySpread() int {
	if len(tr.PEBusy) == 0 {
		return 0
	}
	min, max := tr.PEBusy[0], tr.PEBusy[0]
	for _, b := range tr.PEBusy[1:] {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	return max - min
}

// TraceRunCtx simulates the plan event by event for `iterations`
// application iterations, emitting the full event log.  It performs
// the same legality checks as RunCtx (and returns the same Stats), but
// derives everything from the generated events rather than closed
// forms — the two paths cross-check each other in tests.
//
// The event volume is proportional to iterations x (|V|+|E|), so use
// modest iteration counts (the steady state repeats exactly).  The
// event generators check ctx at round (pipelined) and iteration
// (sequential) boundaries and return the context's error when
// cancelled, discarding the partial trace.
//
//paraconv:hotpath
func TraceRunCtx(ctx context.Context, plan *sched.Plan, cfg pim.Config, iterations int) (Stats, *Trace, error) {
	sp := span.Start(ctx, "sim.trace_run")
	defer sp.End()
	tr := new(Trace)
	stats, err := simulate(ctx, plan, cfg, iterations, tr)
	if err != nil {
		return Stats{}, nil, err
	}
	return stats, tr, nil
}

// replaySequential replays back-to-back iterations of a dependency-
// complete schedule: iteration k occupies [k*Period, (k+1)*Period).
//
//paraconv:hotpath
func replaySequential(ctx context.Context, plan *sched.Plan, iterations int, tr *Trace) error {
	g, p := plan.Iter.Graph, plan.Iter.Period
	for it := 0; it < iterations; it++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sim: trace cancelled at iteration %d/%d: %w", it, iterations, err)
		}
		base := it * p
		for i := range plan.Iter.Tasks {
			t := plan.Iter.Tasks[i]
			tr.Events = append(tr.Events,
				Event{Time: base + t.Start, Kind: EvTaskStart, PE: t.PE, Node: t.Node, Iter: it},
				Event{Time: base + t.Finish, Kind: EvTaskEnd, PE: t.PE, Node: t.Node, Iter: it})
		}
		for i := range g.Edges() {
			e := g.Edge(dag.EdgeID(i))
			place := plan.Iter.Assignment[i]
			dur := retime.TransferTime(e, place)
			start := base + plan.Iter.Tasks[e.From].Finish
			tr.Events = append(tr.Events,
				Event{Time: start, Kind: EvTransferStart, Edge: e.ID, Iter: it, Place: place},
				Event{Time: start + dur, Kind: EvTransferEnd, Edge: e.ID, Iter: it, Place: place})
		}
		tr.Events = append(tr.Events, Event{Time: base + p, Kind: EvIterationDone, Iter: it})
	}
	return nil
}

// replayPipelined replays the retimed kernel: after a prologue of RMax
// rounds, each kernel round completes ConcurrentIterations application
// iterations.  The instance of vertex v serving logical iteration ℓ
// runs in round ℓ + RMax - R(v); transfers are placed inside the
// windows simulate has already proven they fit.
//
//paraconv:hotpath
func replayPipelined(ctx context.Context, plan *sched.Plan, rounds int, tr *Trace) error {
	g, p, r, tasks := plan.Iter.Graph, plan.Iter.Period, plan.Retiming, plan.Iter.Tasks
	totalRounds := r.RMax + rounds
	// Task events: vertex v in round k serves iteration k - RMax +
	// R(v) of its kernel slot (each kernel slot is an independent
	// iteration stream when the kernel packs several groups/unroll
	// copies; we report the stream-local iteration index).
	for k := 0; k < totalRounds; k++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sim: trace cancelled at round %d/%d: %w", k, totalRounds, err)
		}
		base := k * p
		for i := range tasks {
			t := tasks[i]
			iter := k - r.RMax + r.R[t.Node]
			if iter < 0 || iter >= rounds {
				continue // not yet started, or past the run's horizon
			}
			tr.Events = append(tr.Events,
				Event{Time: base + t.Start, Kind: EvTaskStart, PE: t.PE, Node: t.Node, Iter: iter},
				Event{Time: base + t.Finish, Kind: EvTaskEnd, PE: t.PE, Node: t.Node, Iter: iter})
		}
	}

	// Transfer events: edge (i,j) for iteration ℓ moves data from the
	// producer instance (round ℓ+RMax-R(i)) to the consumer instance
	// (round ℓ+RMax-R(j)).
	for i := range g.Edges() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sim: trace cancelled at edge %d/%d: %w", i, g.NumEdges(), err)
		}
		e := g.Edge(dag.EdgeID(i))
		place := plan.Iter.Assignment[i]
		dur := retime.TransferTime(e, place)
		gap := r.R[e.From] - r.R[e.To]
		for iter := 0; iter < rounds; iter++ {
			prodRound := iter + r.RMax - r.R[e.From]
			start := placeTransfer(dur, tasks[e.From].Finish, tasks[e.To].Start, p, gap, prodRound, prodRound+gap)
			tr.Events = append(tr.Events,
				Event{Time: start, Kind: EvTransferStart, Edge: e.ID, Iter: iter, Place: place},
				Event{Time: start + dur, Kind: EvTransferEnd, Edge: e.ID, Iter: iter, Place: place})
		}
	}

	// Iteration completions: iteration ℓ's last instance runs in
	// round ℓ + RMax (its sinks, R=0).
	for iter := 0; iter < rounds; iter++ {
		tr.Events = append(tr.Events, Event{Time: (iter + r.RMax + 1) * p, Kind: EvIterationDone, Iter: iter})
	}
	return nil
}

// placeTransfer picks the deterministic start time of a transfer that
// fits its window (gap >= retime.MinRelative): in the producer's round
// right after it finishes when the same round or that round's tail
// holds it, else at the head of the consumer's round, else in a
// dedicated intermediate round.  prodRound/consRound are the absolute
// kernel rounds of the producer and consumer instances.
func placeTransfer(dur, finish, start, period, gap, prodRound, consRound int) int {
	switch {
	case gap == 0, gap == 1 && dur <= period-finish:
		return prodRound*period + finish
	case gap == 1:
		return consRound*period + start - dur
	default:
		return (prodRound + 1) * period
	}
}

// taskStartPool recycles finalize's in-flight task map across runs.
// The map's population peaks at the number of concurrently running
// task instances (entries are deleted at each task end), so the
// recycled map stays small regardless of trace length.
var taskStartPool = sync.Pool{New: func() any { return make(map[[2]int]int, 64) }}

// finalize sorts the event log and computes the resource profiles.
func finalize(tr *Trace) {
	sort.SliceStable(tr.Events, func(a, b int) bool {
		if tr.Events[a].Time != tr.Events[b].Time {
			return tr.Events[a].Time < tr.Events[b].Time
		}
		// Ends before starts at the same instant, so occupancy
		// profiles are tight.
		return tr.Events[a].Kind > tr.Events[b].Kind
	})
	edram, live := 0, 0
	taskStart := taskStartPool.Get().(map[[2]int]int)
	defer func() {
		clear(taskStart)
		taskStartPool.Put(taskStart)
	}()
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvTaskStart:
			taskStart[[2]int{int(ev.Node), ev.Iter}] = ev.Time
		case EvTaskEnd:
			key := [2]int{int(ev.Node), ev.Iter}
			if s, ok := taskStart[key]; ok {
				for int(ev.PE) >= len(tr.PEBusy) {
					tr.PEBusy = append(tr.PEBusy, 0)
				}
				tr.PEBusy[ev.PE] += ev.Time - s
				delete(taskStart, key)
			}
		case EvTransferStart:
			if ev.Place == pim.InEDRAM {
				edram++
				if edram > tr.PeakConcurrentEDRAM {
					tr.PeakConcurrentEDRAM = edram
				}
			} else {
				live++
				if live > tr.PeakLiveCachedIPRs {
					tr.PeakLiveCachedIPRs = live
				}
			}
		case EvTransferEnd:
			if ev.Place == pim.InEDRAM {
				edram--
			} else {
				live--
			}
		}
	}
}

// Instances calls fn, in log order, for every event but a start: an end
// with the start it closes, any other event as its own start.  Starts
// pair by (vertex or edge, iteration) and are collected first, as the
// log sorts a zero-length transfer's end before its start.  An end
// without a start, or fn's first error, stops the walk.
func (tr *Trace) Instances(fn func(start, end *Event) error) error {
	// An instance is a task (0) or a transfer (1), its vertex or edge,
	// and its iteration.
	key := func(ev *Event) [3]int {
		if ev.Kind == EvTaskStart || ev.Kind == EvTaskEnd {
			return [3]int{0, int(ev.Node), ev.Iter}
		}
		return [3]int{1, int(ev.Edge), ev.Iter}
	}
	starts := make(map[[3]int]*Event)
	for i := range tr.Events {
		if ev := &tr.Events[i]; ev.Kind == EvTaskStart || ev.Kind == EvTransferStart {
			starts[key(ev)] = ev
		}
	}
	for i := range tr.Events {
		end, start, ok := &tr.Events[i], &tr.Events[i], true
		switch end.Kind {
		case EvTaskStart, EvTransferStart:
			continue
		case EvTaskEnd, EvTransferEnd:
			k := key(end)
			if start, ok = starts[k]; !ok {
				what := "transfer end for edge"
				if k[0] == 0 {
					what = "task end for node"
				}
				return fmt.Errorf("sim: %s %d iteration %d without start", what, k[1], k[2])
			}
		}
		if err := fn(start, end); err != nil {
			return err
		}
	}
	return nil
}

// TaskEvents returns the trace's task events for one vertex, in time
// order — a convenience for tests and debugging.
func (tr *Trace) TaskEvents(v dag.NodeID) []Event {
	var out []Event
	for _, ev := range tr.Events {
		if (ev.Kind == EvTaskStart || ev.Kind == EvTaskEnd) && ev.Node == v {
			out = append(out, ev)
		}
	}
	return out
}

// IterationSpan returns the first task-start and the iteration-done
// time of one application iteration, or ok=false if the iteration is
// not in the trace.
func (tr *Trace) IterationSpan(iter int) (start, done int, ok bool) {
	start, done = -1, -1
	for _, ev := range tr.Events {
		if ev.Iter != iter {
			continue
		}
		switch ev.Kind {
		case EvTaskStart:
			if start == -1 || ev.Time < start {
				start = ev.Time
			}
		case EvIterationDone:
			done = ev.Time
		}
	}
	return start, done, start >= 0 && done >= 0
}
