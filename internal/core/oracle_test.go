package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
	"repro/internal/synth"
)

// smallInstance builds a small graph with a compact objective
// schedule so classifications carry positive ΔR competitors.
func smallInstance(t *testing.T, v, e int, seed int64, pes int) (*dag.Graph, []retime.EdgeClass, retime.Timing) {
	t.Helper()
	g, err := synth.Generate(synth.Params{Vertices: v, Edges: e, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	iter, err := sched.Objective(g, pes)
	if err != nil {
		t.Fatal(err)
	}
	tm := iter.Timing()
	classes, err := retime.Classify(g, tm)
	if err != nil {
		t.Fatal(err)
	}
	return g, classes, tm
}

func TestOracleNeverWorseThanDP(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 30; seed++ {
		g, classes, tm := smallInstance(t, 10, 22, seed, 4)
		competitors := 0
		for i := range classes {
			if classes[i].DeltaR() > 0 {
				competitors++
			}
		}
		if competitors == 0 || competitors > 14 {
			continue
		}
		for _, capacity := range []int{2, 4, 8} {
			dpR, optR, err := core.ProxyQuality(context.Background(), g, classes, tm, capacity)
			if err != nil {
				t.Fatalf("seed %d cap %d: %v", seed, capacity, err)
			}
			if optR > dpR {
				t.Errorf("seed %d cap %d: oracle %d worse than DP %d (impossible)", seed, capacity, optR, dpR)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked; widen the generator", checked)
	}
}

func TestProxyQualityStatistics(t *testing.T) {
	// Measure how often the paper's ΣΔR proxy attains the true
	// minimum R_max.  It need not always (the knapsack is path
	// blind), but it should be optimal in the majority of small
	// instances and never catastrophically wrong.
	total, optimal, worstGap := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		g, classes, tm := smallInstance(t, 10, 22, seed, 4)
		competitors := 0
		for i := range classes {
			if classes[i].DeltaR() > 0 {
				competitors++
			}
		}
		if competitors == 0 || competitors > 14 {
			continue
		}
		dpR, optR, err := core.ProxyQuality(context.Background(), g, classes, tm, 4)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if dpR == optR {
			optimal++
		}
		if gap := dpR - optR; gap > worstGap {
			worstGap = gap
		}
	}
	if total == 0 {
		t.Fatal("no instances")
	}
	t.Logf("proxy optimal on %d/%d instances; worst gap %d", optimal, total, worstGap)
	if optimal*2 < total {
		t.Errorf("ΣΔR proxy optimal on only %d/%d instances", optimal, total)
	}
	if worstGap > 2 {
		t.Errorf("worst proxy gap %d retiming levels; expected small", worstGap)
	}
}

func TestOracleRefusesLargeInstances(t *testing.T) {
	g, classes, _ := smallInstance(t, 60, 150, 3, 8)
	competitors := 0
	for i := range classes {
		if classes[i].DeltaR() > 0 {
			competitors++
		}
	}
	if competitors <= 20 {
		t.Skip("instance too small to trigger the bound")
	}
	_, err := core.ExhaustiveMinRMax(g, classes, 8, 10)
	if err == nil || !strings.Contains(err.Error(), "enumeration bound") {
		t.Errorf("err = %v", err)
	}
}

func TestOracleZeroCapacity(t *testing.T) {
	g, classes, tm := smallInstance(t, 8, 16, 5, 4)
	res, err := core.ExhaustiveMinRMax(g, classes, 0, tm.Period)
	if err != nil {
		t.Fatal(err)
	}
	// With zero capacity the only feasible allocation is all-eDRAM.
	var allE retime.Result
	if err := retime.ApplyInto(&allE, g, classes, retime.AllEDRAM(g.NumEdges()), tm.Period, nil); err != nil {
		t.Fatal(err)
	}
	if res.MinRMax != allE.RMax {
		t.Errorf("oracle %d != all-eDRAM %d at zero capacity", res.MinRMax, allE.RMax)
	}
	for _, p := range res.Assignment {
		if p != pim.InEDRAM {
			t.Error("zero-capacity oracle cached something")
		}
	}
}
