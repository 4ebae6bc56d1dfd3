package core

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
)

// The paper asserts (§3.3) that "to minimize the prologue time is
// equivalent to the problem of reducing the maximum retiming value"
// and solves the latter by maximizing the summed reduction ΣΔR — a
// proxy: the knapsack does not see which edges share critical paths.
// ExhaustiveMinRMax is the ground-truth oracle: it enumerates every
// cache-feasible placement of the competitor edges and returns the
// true minimum R_max.  Exponential in the competitor count; usable for
// proxy-quality studies on small instances.

// OracleResult reports the exhaustive search.
type OracleResult struct {
	// MinRMax is the optimal maximum retiming value over all
	// capacity-feasible allocations.
	MinRMax int
	// Assignment is one optimal placement.
	Assignment retime.Assignment
	// Evaluated is the number of subsets enumerated.
	Evaluated int
}

// ExhaustiveMinRMax enumerates all subsets of the positive-ΔR
// competitors that fit the capacity and minimizes the resulting
// R_max.  It refuses instances with more than 20 competitors.
func ExhaustiveMinRMax(g *dag.Graph, classes []retime.EdgeClass, capacity, period int) (OracleResult, error) {
	if len(classes) != g.NumEdges() {
		return OracleResult{}, fmt.Errorf("core: oracle: %d classes for %d edges", len(classes), g.NumEdges())
	}
	var competitors []int
	for i := range classes {
		if classes[i].DeltaR() > 0 {
			competitors = append(competitors, i)
		}
	}
	if len(competitors) > 20 {
		return OracleResult{}, fmt.Errorf("core: oracle: %d competitors exceed the 2^20 enumeration bound", len(competitors))
	}
	best := OracleResult{MinRMax: -1}
	for mask := 0; mask < 1<<len(competitors); mask++ {
		a := retime.AllEDRAM(g.NumEdges())
		load := 0
		for b, idx := range competitors {
			if mask&(1<<b) != 0 {
				a[idx] = pim.InCache
				load += g.Edge(dag.EdgeID(idx)).Size
			}
		}
		if load > capacity {
			continue
		}
		var res retime.Result
		if err := retime.ApplyInto(&res, g, classes, a, period, nil); err != nil {
			return OracleResult{}, err
		}
		best.Evaluated++
		if best.MinRMax < 0 || res.RMax < best.MinRMax {
			best.MinRMax = res.RMax
			best.Assignment = a
		}
	}
	if best.MinRMax < 0 {
		return OracleResult{}, fmt.Errorf("core: oracle: no feasible allocation (capacity %d)", capacity)
	}
	return best, nil
}

// ProxyQuality compares the DP's ΣΔR-maximizing allocation against
// the exhaustive R_max oracle for one instance, returning
// (dpRMax, optimalRMax).  ctx reaches the DP's row checks.
func ProxyQuality(ctx context.Context, g *dag.Graph, classes []retime.EdgeClass, tm retime.Timing, capacity int) (dpRMax, optRMax int, err error) {
	var alloc Allocation
	if err := OptimizeInto(ctx, &alloc, g, classes, tm, capacity); err != nil {
		return 0, 0, err
	}
	var res retime.Result
	if err := retime.ApplyInto(&res, g, classes, alloc.Assignment, tm.Period, nil); err != nil {
		return 0, 0, err
	}
	oracle, err := ExhaustiveMinRMax(g, classes, capacity, tm.Period)
	if err != nil {
		return 0, 0, err
	}
	return res.RMax, oracle.MinRMax, nil
}
