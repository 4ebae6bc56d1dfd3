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
	if err := checkRun(ctx, plan, cfg, iterations); err != nil {
		return Stats{}, err
	}
	switch plan.Scheme {
	case "para-conv":
		if err := retime.CheckLegal(plan.Iter.Graph, plan.Retiming); err != nil {
			return Stats{}, fmt.Errorf("sim: %w", err)
		}
		return runPipelined(ctx, plan, cfg, iterations)
	case "sparta", "naive":
		return runSequential(plan, cfg, iterations)
	default:
		return Stats{}, fmt.Errorf("sim: unknown scheme %q", plan.Scheme)
	}
}

// checkRun is the argument check RunCtx and TraceRunCtx share: a live
// context, a plan, a valid configuration, at least one iteration and a
// structurally sound iteration schedule.
//
//paraconv:hotpath
func checkRun(ctx context.Context, plan *sched.Plan, cfg pim.Config, iterations int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if plan == nil {
		return fmt.Errorf("sim: nil plan")
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if iterations < 1 {
		return fmt.Errorf("sim: %d iterations; want >= 1", iterations)
	}
	if err := plan.Iter.Validate(); err != nil {
		return fmt.Errorf("sim: invalid iteration schedule: %w", err)
	}
	return nil
}

// runSequential executes iterations back-to-back: iteration k occupies
// absolute time [k*M, (k+1)*M).  Dependencies are intra-iteration and
// must be satisfied by the schedule itself.
func runSequential(plan *sched.Plan, cfg pim.Config, iterations int) (Stats, error) {
	g := plan.Iter.Graph
	if err := plan.Iter.CheckDependencies(); err != nil {
		return Stats{}, fmt.Errorf("sim: sequential plan violates dependencies: %w", err)
	}
	if err := checkCacheCapacity(plan, cfg); err != nil {
		return Stats{}, err
	}
	stats := Stats{NumPEs: cfg.NumPEs}
	stats.Cycles = iterations * plan.Iter.Period
	stats.Iterations = iterations
	stats.TasksExecuted = iterations * g.NumNodes()
	stats.BusyPE = iterations * totalExec(g)
	stats.PEBusy = perPEBusy(plan, cfg.NumPEs, iterations)
	accumulateTraffic(&stats, g, plan.Iter.Assignment, cfg, iterations)
	stats.PeakCacheLoad = cacheLoad(g, plan.Iter.Assignment)
	recordRunMetrics(stats, 0)
	return stats, nil
}

// runPipelined executes a retimed kernel: after a prologue of RMax
// periods, one kernel period completes ConcurrentIterations
// application iterations.  The simulator replays the steady state and
// verifies, for every edge, that the producing task instance finished
// (and its transfer completed) before the consuming instance starts,
// using the retiming offsets — the run-time restatement of
// retime.CheckLegal against absolute time.
func runPipelined(ctx context.Context, plan *sched.Plan, cfg pim.Config, iterations int) (Stats, error) {
	g := plan.Iter.Graph
	if err := checkCacheCapacity(plan, cfg); err != nil {
		return Stats{}, err
	}
	p := plan.Iter.Period
	r := plan.Retiming
	if len(r.R) != g.NumNodes() || len(r.REdge) != g.NumEdges() {
		return Stats{}, fmt.Errorf("sim: plan retiming covers %d vertices/%d edges; want %d/%d",
			len(r.R), len(r.REdge), g.NumNodes(), g.NumEdges())
	}
	// Absolute-time dependency verification in steady state: the
	// instance of vertex v serving logical iteration ℓ runs in kernel
	// round ℓ + R(v) ... equivalently, within a round, v's instance
	// belongs to iteration (round - R(v)).  For edge (i, j) the
	// producer's result for iteration ℓ is computed in round ℓ+R(i),
	// the consumer reads it in round ℓ+R(j); the transfer has
	// R(i)-R(j) >= rrv periods available, which retime guarantees is
	// enough under the non-straddling window discipline.  Here we
	// re-derive the requirement and fail loudly on any violation.
	tm := plan.Iter.Timing()
	for i := range g.Edges() {
		if err := ctx.Err(); err != nil {
			return Stats{}, fmt.Errorf("sim: cancelled verifying edge %d/%d: %w", i, g.NumEdges(), err)
		}
		e := g.Edge(dag.EdgeID(i))
		transfer := retime.TransferTime(e, plan.Iter.Assignment[i])
		gap := r.R[e.From] - r.R[e.To] // rounds between producer and consumer instances
		if gap < 0 {
			return Stats{}, fmt.Errorf("sim: edge %d->%d has negative retiming gap %d", e.From, e.To, gap)
		}
		ok := false
		switch {
		case gap == 0:
			ok = tm.Finish[e.From]+transfer <= tm.Start[e.To]
		case gap == 1:
			ok = transfer <= p-tm.Finish[e.From] || transfer <= tm.Start[e.To]
		default: // gap >= 2: a full dedicated period is available
			ok = transfer <= p
		}
		if !ok {
			return Stats{}, fmt.Errorf("sim: edge %d->%d unschedulable: gap %d periods, transfer %d, producer finish %d, consumer start %d, period %d",
				e.From, e.To, gap, transfer, tm.Finish[e.From], tm.Start[e.To], p)
		}
	}

	kernelIters := plan.ConcurrentIterations
	if kernelIters < 1 {
		kernelIters = 1
	}
	// Semantics: run exactly `rounds` application iterations to
	// completion.  Each vertex then executes exactly once per
	// iteration — retimed vertices start during the prologue rounds
	// and fall silent during the symmetric drain — so total work is
	// rounds x one kernel, spread over (RMax + rounds) periods of
	// wall-clock (fill and drain idle included in Cycles, hence in
	// Utilization).
	rounds := (iterations + kernelIters - 1) / kernelIters
	stats := Stats{NumPEs: cfg.NumPEs}
	stats.Cycles = (r.RMax + rounds) * p
	stats.Iterations = rounds * kernelIters
	stats.TasksExecuted = rounds * g.NumNodes()
	stats.BusyPE = rounds * totalExec(g)
	stats.PEBusy = perPEBusy(plan, cfg.NumPEs, rounds)
	accumulateTraffic(&stats, g, plan.Iter.Assignment, cfg, rounds)
	stats.PeakCacheLoad = cacheLoad(g, plan.Iter.Assignment)
	recordRunMetrics(stats, r.RMax)
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

// checkCacheCapacity verifies the plan's logical cache footprint fits
// the PE array.  The load is per logical IPR (CacheLoadUnits): each
// cached intermediate result reserves one slot that successive
// iterations — and unrolled replicas, which are just iterations —
// reuse.
func checkCacheCapacity(plan *sched.Plan, cfg pim.Config) error {
	g := plan.Iter.Graph
	if len(plan.Iter.Assignment) != g.NumEdges() {
		return fmt.Errorf("sim: assignment covers %d/%d edges", len(plan.Iter.Assignment), g.NumEdges())
	}
	if load, cap := plan.CacheLoadUnits, cfg.TotalCacheUnits(); load > cap {
		return fmt.Errorf("sim: cached IPRs need %d capacity units; PE array has %d", load, cap)
	}
	return nil
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
