package bench

import (
	"fmt"

	"repro/internal/pim"
	"repro/internal/sched"
)

// Table1Row is one benchmark's row of Table 1: total execution time of
// SPARTA and Para-CONV at each PE count, plus the improvement.
type Table1Row struct {
	Benchmark Benchmark
	// Sparta[i] and ParaCONV[i] are total execution times (time
	// units for Iterations iterations) at PECounts[i].
	Sparta   []int
	ParaCONV []int
}

// Ratio returns Para-CONV's execution time as a fraction of SPARTA's
// at PE index i (the paper's IMP column prints this x100).
func (r Table1Row) Ratio(i int) float64 {
	return float64(r.ParaCONV[i]) / float64(r.Sparta[i])
}

// Table1 regenerates Table 1: total execution time of SPARTA and
// Para-CONV on 16, 32 and 64 PEs for every benchmark.  Each
// (benchmark, PE count, planner) cell is one pool job.
func (r *Runner) Table1() ([]Table1Row, error) {
	rows := make([]Table1Row, len(Suite))
	for i, b := range Suite {
		rows[i] = Table1Row{
			Benchmark: b,
			Sparta:    make([]int, len(PECounts)),
			ParaCONV:  make([]int, len(PECounts)),
		}
	}
	kinds := []planKind{planSPARTA, planParaCONV}
	n := len(Suite) * len(PECounts) * len(kinds)
	err := r.runJobs(n, func(i int) error {
		bi := i / (len(PECounts) * len(kinds))
		pi := i / len(kinds) % len(PECounts)
		kind := kinds[i%len(kinds)]
		b := Suite[bi]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		plan, err := r.planCell(g, pim.Neurocube(PECounts[pi]), kind)
		if err != nil {
			return fmt.Errorf("bench: table1 %s %s %d PEs: %w", b.Name, kind, PECounts[pi], err)
		}
		if kind == planSPARTA {
			rows[bi].Sparta[pi] = plan.TotalTime(Iterations)
		} else {
			rows[bi].ParaCONV[pi] = plan.TotalTime(Iterations)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table2Row is one benchmark's row of Table 2: the maximum retiming
// value at each PE count and their average.
type Table2Row struct {
	Benchmark Benchmark
	RMax      []int
}

// Average returns the mean RMax across the PE sweep.
func (r Table2Row) Average() float64 {
	sum := 0
	for _, v := range r.RMax {
		sum += v
	}
	return float64(sum) / float64(len(r.RMax))
}

// Table2 regenerates Table 2: the maximum retiming value of Para-CONV
// on 16, 32 and 64 PEs.  Following §3.3.3, the objective schedule is a
// property of the application, fixed a-priori (we compact it once, on
// the smallest array of the sweep); the PE count then enters the
// optimization through the aggregate cache capacity, so R_max falls as
// the array grows.  One benchmark is one pool job (its PE sweep reuses
// the benchmark's objective schedule).
func (r *Runner) Table2() ([]Table2Row, error) {
	rows := make([]Table2Row, len(Suite))
	err := r.runJobs(len(Suite), func(i int) error {
		b := Suite[i]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		base, err := sched.Objective(g, PECounts[0])
		if err != nil {
			return fmt.Errorf("bench: table2 %s objective: %w", b.Name, err)
		}
		row := Table2Row{Benchmark: b, RMax: make([]int, len(PECounts))}
		for pi, pes := range PECounts {
			plan, err := r.Session.PlanWithSchedule(g, base, pim.Neurocube(pes))
			if err != nil {
				return fmt.Errorf("bench: table2 %s %d PEs: %w", b.Name, pes, err)
			}
			row.RMax[pi] = plan.RMax
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig5Row is one benchmark's series of Figure 5: the steady-state
// execution time per iteration, normalized to the baseline scheme on
// 64 PEs.
type Fig5Row struct {
	Benchmark Benchmark
	// Normalized[i] is Para-CONV's per-iteration time at PECounts[i]
	// divided by SPARTA's per-iteration time on 64 PEs.
	Normalized []float64
}

// Fig5 regenerates Figure 5: Para-CONV's per-iteration execution time
// on 16, 32 and 64 PEs, normalized to SPARTA on 64 PEs.  One benchmark
// is one pool job; the solves themselves are shared with Table 1
// through the session's plan cache.
func (r *Runner) Fig5() ([]Fig5Row, error) {
	rows := make([]Fig5Row, len(Suite))
	err := r.runJobs(len(Suite), func(i int) error {
		b := Suite[i]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		sp64, err := r.planCell(g, pim.Neurocube(PECounts[len(PECounts)-1]), planSPARTA)
		if err != nil {
			return fmt.Errorf("bench: fig5 %s baseline: %w", b.Name, err)
		}
		base := sp64.IterationTime()
		row := Fig5Row{Benchmark: b, Normalized: make([]float64, len(PECounts))}
		for pi, pes := range PECounts {
			pc, err := r.planCell(g, pim.Neurocube(pes), planParaCONV)
			if err != nil {
				return fmt.Errorf("bench: fig5 %s %d PEs: %w", b.Name, pes, err)
			}
			row.Normalized[pi] = pc.IterationTime() / base
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig6Row is one benchmark's series of Figure 6: the number of
// intermediate processing results allocated to on-chip cache.
type Fig6Row struct {
	Benchmark Benchmark
	Cached    []int
}

// Fig6 regenerates Figure 6: the number of IPRs Para-CONV allocates to
// on-chip cache on 16, 32 and 64 PEs.  Like Table 2 it evaluates the
// a-priori objective schedule under the growing array, so the counts
// rise with capacity and saturate once every IPR that exists fits —
// the paper's observation that 32 PEs already exhaust most benchmarks'
// concurrency.  One benchmark is one pool job; the given-schedule
// solves are shared with Table 2 through the plan cache.
func (r *Runner) Fig6() ([]Fig6Row, error) {
	rows := make([]Fig6Row, len(Suite))
	err := r.runJobs(len(Suite), func(i int) error {
		b := Suite[i]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		base, err := sched.Objective(g, PECounts[0])
		if err != nil {
			return fmt.Errorf("bench: fig6 %s objective: %w", b.Name, err)
		}
		row := Fig6Row{Benchmark: b, Cached: make([]int, len(PECounts))}
		for pi, pes := range PECounts {
			plan, err := r.Session.PlanWithSchedule(g, base, pim.Neurocube(pes))
			if err != nil {
				return fmt.Errorf("bench: fig6 %s %d PEs: %w", b.Name, pes, err)
			}
			row.Cached[pi] = plan.CachedIPRs
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// MovementRow reports the simulator's data-movement measurements for
// one benchmark — the off-chip fetching penalty the paper's
// motivation (§1) targets.  Both schemes run the full array with one
// iteration in flight so the cache comparison is apples-to-apples.
type MovementRow struct {
	Benchmark      Benchmark
	PEs            int
	SpartaEDRAM    int64   // bytes fetched from eDRAM per run
	ParaEDRAM      int64   // same for Para-CONV (single-kernel)
	SpartaEnergyPJ float64 // total data-movement energy
	ParaEnergyPJ   float64
}

// Movement measures per-benchmark data movement at the given PE count.
// Each (benchmark, planner) cell is one pool job; the two cells of a
// row write disjoint fields.
func (r *Runner) Movement(pes int) ([]MovementRow, error) {
	cfg := pim.Neurocube(pes)
	rows := make([]MovementRow, len(Suite))
	for i, b := range Suite {
		rows[i] = MovementRow{Benchmark: b, PEs: pes}
	}
	kinds := []planKind{planSPARTA, planParaSingle}
	err := r.runJobs(len(Suite)*len(kinds), func(i int) error {
		bi := i / len(kinds)
		kind := kinds[i%len(kinds)]
		b := Suite[bi]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		_, stats, err := r.simCell(g, cfg, kind, Iterations)
		if err != nil {
			return fmt.Errorf("bench: movement %s %s: %w", b.Name, kind, err)
		}
		if kind == planSPARTA {
			rows[bi].SpartaEDRAM = stats.EDRAMBytes
			rows[bi].SpartaEnergyPJ = stats.EnergyPJ
		} else {
			rows[bi].ParaEDRAM = stats.EDRAMBytes
			rows[bi].ParaEnergyPJ = stats.EnergyPJ
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
