// Package sim is a discrete-event simulator for the 3D PIM
// architecture: it executes a scheduled plan cycle by cycle (at
// schedule time-unit granularity), tracking PE busy/idle state, data
// cache residency, eDRAM vault fetches, FIFO traffic and the energy of
// every data movement.
//
// The simulator plays two roles in the reproduction.  First, it is
// the referee: a plan that claims a period p and retiming R must
// actually run — every consumer must find its operand produced the
// right number of iterations earlier, every PE must never execute two
// tasks at once, and every cached IPR must fit the array's capacity.
// Second, it is the measurement instrument for the data-movement
// metrics (off-PE fetch counts, bytes moved, picojoules) that the
// paper's motivation (§1, §2.3) is built on.
package sim

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
)

// Stats aggregates everything the simulator measures.
type Stats struct {
	// Cycles is the total simulated time units.
	Cycles int
	// Iterations is the number of application iterations completed.
	Iterations int
	// TasksExecuted counts vertex executions (across iterations).
	TasksExecuted int

	// CacheReads and EDRAMReads count IPR fetches by source.
	CacheReads int
	EDRAMReads int
	// CacheBytes and EDRAMBytes are the corresponding volumes.
	CacheBytes int64
	EDRAMBytes int64
	// EnergyPJ is the total data-movement energy.
	EnergyPJ float64

	// BusyPE is the total PE-busy time units; utilization is
	// BusyPE / (Cycles * NumPEs).
	BusyPE int
	// PEBusy is the per-PE busy time, indexed by PE id; its entries
	// sum to BusyPE.  Both simulator paths derive it from the same
	// task placement the event stream replays, so it cross-checks
	// Trace.PEBusy exactly.
	PEBusy []int
	// NumPEs echoes the configuration for utilization math.
	NumPEs int

	// PeakCacheLoad is the maximum simultaneous cache occupancy
	// observed, in capacity units.
	PeakCacheLoad int
}

// Utilization returns the fraction of PE-time spent executing tasks.
func (s Stats) Utilization() float64 {
	if s.Cycles == 0 || s.NumPEs == 0 {
		return 0
	}
	return float64(s.BusyPE) / float64(s.Cycles*s.NumPEs)
}

// OffChipFetchRatio returns the fraction of IPR reads served from
// eDRAM — the "off-chip fetching" penalty Para-CONV minimizes.
func (s Stats) OffChipFetchRatio() float64 {
	total := s.CacheReads + s.EDRAMReads
	if total == 0 {
		return 0
	}
	return float64(s.EDRAMReads) / float64(total)
}

// RunCtx simulates `iterations` iterations of the plan's application
// on the given PIM configuration and returns the measured statistics.
// It returns an error if the plan is structurally invalid, violates
// a dependency at run time, or oversubscribes the cache.  The
// closed-form simulator's only long stretch is the per-edge legality
// sweep, which checks ctx at edge boundaries and returns its error
// when cancelled.
func RunCtx(ctx context.Context, plan *sched.Plan, cfg pim.Config, iterations int) (Stats, error) {
	sp := span.Start(ctx, "sim.run")
	defer sp.End()
	return simulate(ctx, plan, cfg, iterations, nil)
}

// simulate is the one simulator pass behind RunCtx and TraceRunCtx.
// It proves the plan once: the arguments and the iteration schedule's
// structure, Definition 3.1's legality of a para-conv retiming, the
// cached footprint against the array's capacity, and then either the
// intra-iteration dependencies (sparta, naive: iterations run back to
// back) or every edge's transfer window (para-conv).  It then derives
// Stats in closed form and, only when tr is non-nil, replays the run
// into tr's event log.
//
// A para-conv kernel runs a prologue of RMax periods, after which each
// period completes ConcurrentIterations application iterations.  For
// edge (i, j) the producer serving iteration ℓ runs R(i)-R(j) rounds
// before its consumer, and the transfer fits those rounds exactly when
// they reach retime.MinRelative's window — the rule the solver retimes
// by and sched.CheckPlan proves, restated here against absolute time.
//
//paraconv:hotpath
func simulate(ctx context.Context, plan *sched.Plan, cfg pim.Config, iterations int, tr *Trace) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, fmt.Errorf("sim: %w", err)
	}
	if plan == nil {
		return Stats{}, fmt.Errorf("sim: nil plan")
	}
	if err := cfg.Validate(); err != nil {
		return Stats{}, fmt.Errorf("sim: %w", err)
	}
	if iterations < 1 {
		return Stats{}, fmt.Errorf("sim: %d iterations; want >= 1", iterations)
	}
	if plan.Iter.PEs > cfg.NumPEs {
		return Stats{}, fmt.Errorf("sim: plan schedules %d PEs; the array has %d", plan.Iter.PEs, cfg.NumPEs)
	}
	if err := plan.Iter.Validate(); err != nil {
		return Stats{}, fmt.Errorf("sim: invalid iteration schedule: %w", err)
	}
	g, a, p := plan.Iter.Graph, plan.Iter.Assignment, plan.Iter.Period
	pipelined := plan.Scheme == "para-conv"
	switch plan.Scheme {
	case "para-conv":
		if err := retime.CheckLegal(g, plan.Retiming); err != nil {
			return Stats{}, fmt.Errorf("sim: %w", err)
		}
	case "sparta", "naive":
	default:
		return Stats{}, fmt.Errorf("sim: unknown scheme %q", plan.Scheme)
	}
	// The cache load is per logical IPR (CacheLoadUnits): each cached
	// intermediate result reserves one slot that successive iterations
	// — and unrolled replicas, which are just iterations — reuse.
	if load, cap := plan.CacheLoadUnits, cfg.TotalCacheUnits(); load > cap {
		return Stats{}, fmt.Errorf("sim: cached IPRs need %d capacity units; PE array has %d", load, cap)
	}
	// Sequential plans run iterations back to back: no prologue, one
	// iteration per period.
	rmax, kernelIters := 0, 1
	if pipelined {
		r, tasks := plan.Retiming, plan.Iter.Tasks
		for i := range g.Edges() {
			if err := ctx.Err(); err != nil {
				return Stats{}, fmt.Errorf("sim: cancelled verifying edge %d/%d: %w", i, g.NumEdges(), err)
			}
			e := g.Edge(dag.EdgeID(i))
			transfer := retime.TransferTime(e, a[i])
			finish, start := tasks[e.From].Finish, tasks[e.To].Start
			if gap := r.R[e.From] - r.R[e.To]; transfer > p || gap < retime.MinRelative(finish, transfer, start, p) {
				return Stats{}, fmt.Errorf("sim: edge %d->%d unschedulable: gap %d periods, transfer %d, producer finish %d, consumer start %d, period %d",
					e.From, e.To, gap, transfer, finish, start, p)
			}
		}
		rmax, kernelIters = r.RMax, max(plan.ConcurrentIterations, 1)
	} else if err := plan.Iter.CheckDependencies(); err != nil {
		return Stats{}, fmt.Errorf("sim: sequential plan violates dependencies: %w", err)
	}

	// Semantics: run exactly `iterations` application iterations to
	// completion, rounded up to whole kernel rounds.  Each vertex then
	// executes exactly once per round — retimed vertices start during
	// the prologue and fall silent during the symmetric drain — so total
	// work is rounds x one kernel, spread over (RMax + rounds) periods
	// of wall-clock (fill and drain idle included in Cycles, hence in
	// Utilization).
	rounds := (iterations + kernelIters - 1) / kernelIters
	if tr != nil {
		// The event volume is exactly plan-derived: per round, two task
		// events per task, two transfer events per edge, plus one
		// iteration-done marker — so the log is allocated once, up
		// front.
		tr.Events = make([]Event, 0, rounds*(2*len(plan.Iter.Tasks)+2*g.NumEdges()+1))
		tr.PEBusy = make([]int, plan.Iter.PEs)
		replay := replaySequential
		if pipelined {
			replay = replayPipelined
		}
		if err := replay(ctx, plan, rounds, tr); err != nil {
			return Stats{}, err
		}
		finalize(tr)
	}
	stats := Stats{
		Cycles:        (rmax + rounds) * p,
		Iterations:    rounds * kernelIters,
		TasksExecuted: rounds * g.NumNodes(),
		BusyPE:        rounds * totalExec(g),
		PEBusy:        perPEBusy(plan, cfg.NumPEs, rounds),
		NumPEs:        cfg.NumPEs,
		PeakCacheLoad: cacheLoad(g, a),
	}
	accumulateTraffic(&stats, g, a, cfg, rounds)
	recordRunMetrics(stats, rmax)
	return stats, nil
}

// perPEBusy distributes the total busy time over PEs: each scheduled
// task instance contributes its execution span to its PE once per
// repetition (iteration or kernel round).  This is exactly the
// accounting the event-level trace derives from task start/end pairs,
// so Stats.PEBusy and Trace.PEBusy agree entry by entry.
func perPEBusy(plan *sched.Plan, numPEs, repetitions int) []int {
	out := make([]int, numPEs)
	for i := range plan.Iter.Tasks {
		t := &plan.Iter.Tasks[i]
		if int(t.PE) < numPEs {
			out[t.PE] += (t.Finish - t.Start) * repetitions
		}
	}
	return out
}

// recordRunMetrics publishes one completed run's measurements to the
// shared observability registry: run and prologue counts, aggregate
// busy/idle PE-time, and per-placement fetch counts and volumes.
func recordRunMetrics(stats Stats, rmax int) {
	if !obs.Enabled() {
		return
	}
	obs.SimRuns.Inc()
	obs.SimPEBusyTime.Add(int64(stats.BusyPE))
	obs.SimPEIdleTime.Add(int64(stats.Cycles*stats.NumPEs - stats.BusyPE))
	obs.SimProloguePeriods.Add(int64(rmax))
	obs.TransferReads("cache").Add(int64(stats.CacheReads))
	obs.TransferBytes("cache").Add(stats.CacheBytes)
	obs.TransferReads("edram").Add(int64(stats.EDRAMReads))
	obs.TransferBytes("edram").Add(stats.EDRAMBytes)
}

func totalExec(g *dag.Graph) int {
	sum := 0
	for i := range g.Nodes() {
		sum += g.Nodes()[i].Exec
	}
	return sum
}

func cacheLoad(g *dag.Graph, a []pim.Placement) int {
	load := 0
	for i := range g.Edges() {
		if a[i] == pim.InCache {
			load += g.Edge(dag.EdgeID(i)).Size
		}
	}
	return load
}

func accumulateTraffic(stats *Stats, g *dag.Graph, a []pim.Placement, cfg pim.Config, repetitions int) {
	for i := range g.Edges() {
		e := g.Edge(dag.EdgeID(i))
		bytes := e.Bytes
		if bytes == 0 {
			bytes = int64(e.Size) * int64(cfg.CacheBytesPerUnit)
		}
		if a[i] == pim.InCache {
			stats.CacheReads += repetitions
			stats.CacheBytes += int64(repetitions) * bytes
			stats.EnergyPJ += float64(repetitions) * cfg.MoveEnergyPJ(pim.InCache, bytes)
		} else {
			stats.EDRAMReads += repetitions
			stats.EDRAMBytes += int64(repetitions) * bytes
			stats.EnergyPJ += float64(repetitions) * cfg.MoveEnergyPJ(pim.InEDRAM, bytes)
		}
	}
}
