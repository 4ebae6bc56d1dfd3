package paraconv

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§4) under `go test -bench`.  Each experiment
// bench reports its headline quantity through b.ReportMetric, so a
// bench run doubles as a reproduction run:
//
//	go test -bench=Table1 -benchmem     # Table 1 (total execution time)
//	go test -bench=. -benchmem          # everything
//
// The Ablation benches quantify the design choices DESIGN.md calls
// out: the optimal DP against the greedy heuristic, and adaptive group
// replication against the single-kernel configuration.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
	"repro/internal/sim"
)

func benchGraph(b *testing.B, bm bench.Benchmark) *dag.Graph {
	b.Helper()
	g, err := bm.Graph()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTable1 regenerates Table 1: SPARTA vs Para-CONV total
// execution time per benchmark per PE count.  Reported metrics:
// para_time and sparta_time (time units for 100 iterations) and
// imp_pct (Para-CONV's time as % of SPARTA's — the paper's IMP).
func BenchmarkTable1(b *testing.B) {
	for _, bm := range bench.Suite {
		g := benchGraph(b, bm)
		for _, pes := range bench.PECounts {
			b.Run(fmt.Sprintf("%s/pe%d", bm.Name, pes), func(b *testing.B) {
				cfg := pim.Neurocube(pes)
				var paraT, spartaT int
				for i := 0; i < b.N; i++ {
					pc, err := sched.ParaCONVCtx(context.Background(), g, cfg)
					if err != nil {
						b.Fatal(err)
					}
					sp, err := sched.SPARTACtx(context.Background(), g, cfg)
					if err != nil {
						b.Fatal(err)
					}
					paraT = pc.TotalTime(bench.Iterations)
					spartaT = sp.TotalTime(bench.Iterations)
				}
				b.ReportMetric(float64(paraT), "para_time")
				b.ReportMetric(float64(spartaT), "sparta_time")
				b.ReportMetric(100*float64(paraT)/float64(spartaT), "imp_pct")
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2: Para-CONV's maximum retiming
// value per benchmark per PE count, at the a-priori objective
// schedule.  Reported metric: rmax.
func BenchmarkTable2(b *testing.B) {
	for _, bm := range bench.Suite {
		g := benchGraph(b, bm)
		base, err := sched.Objective(g, bench.PECounts[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, pes := range bench.PECounts {
			b.Run(fmt.Sprintf("%s/pe%d", bm.Name, pes), func(b *testing.B) {
				cfg := pim.Neurocube(pes)
				var rmax int
				for i := 0; i < b.N; i++ {
					plan, err := sched.ParaCONVGivenScheduleCtx(context.Background(), g, base, cfg)
					if err != nil {
						b.Fatal(err)
					}
					rmax = plan.RMax
				}
				b.ReportMetric(float64(rmax), "rmax")
			})
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: per-iteration execution time
// normalized to the baseline on 64 PEs.  Reported metric: norm_time.
func BenchmarkFig5(b *testing.B) {
	for _, bm := range bench.Suite {
		g := benchGraph(b, bm)
		sp64, err := sched.SPARTACtx(context.Background(), g, pim.Neurocube(64))
		if err != nil {
			b.Fatal(err)
		}
		baseTime := sp64.IterationTime()
		for _, pes := range bench.PECounts {
			b.Run(fmt.Sprintf("%s/pe%d", bm.Name, pes), func(b *testing.B) {
				cfg := pim.Neurocube(pes)
				var norm float64
				for i := 0; i < b.N; i++ {
					pc, err := sched.ParaCONVCtx(context.Background(), g, cfg)
					if err != nil {
						b.Fatal(err)
					}
					norm = pc.IterationTime() / baseTime
				}
				b.ReportMetric(norm, "norm_time")
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: IPRs allocated to on-chip cache
// per benchmark per PE count.  Reported metric: cached_iprs.
func BenchmarkFig6(b *testing.B) {
	for _, bm := range bench.Suite {
		g := benchGraph(b, bm)
		base, err := sched.Objective(g, bench.PECounts[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, pes := range bench.PECounts {
			b.Run(fmt.Sprintf("%s/pe%d", bm.Name, pes), func(b *testing.B) {
				cfg := pim.Neurocube(pes)
				var cached int
				for i := 0; i < b.N; i++ {
					plan, err := sched.ParaCONVGivenScheduleCtx(context.Background(), g, base, cfg)
					if err != nil {
						b.Fatal(err)
					}
					cached = plan.CachedIPRs
				}
				b.ReportMetric(float64(cached), "cached_iprs")
			})
		}
	}
}

// BenchmarkAblationDPvsGreedy quantifies the optimal dynamic program's
// profit advantage over the density-greedy heuristic on random item
// sets.  Reported metric: greedy_gap_pct (how much profit greedy
// leaves on the table).
func BenchmarkAblationDPvsGreedy(b *testing.B) {
	// An instance where density order misleads: the high-density unit
	// item blocks the pair that would fill the capacity exactly.
	// Greedy banks 5 (unit item + one pair), the DP finds 6.
	items := []core.Item{
		{Edge: 0, Size: 1, DeltaR: 2},
		{Edge: 1, Size: 2, DeltaR: 3},
		{Edge: 2, Size: 2, DeltaR: 3},
	}
	const capacity = 4
	var dpProfit, greedyProfit int
	chosen := make([]bool, len(items))
	for i := 0; i < b.N; i++ {
		dpProfit, _ = core.KnapsackInto(context.Background(), chosen, items, capacity)
		_, greedyProfit = core.Greedy(items, capacity)
	}
	if dpProfit > 0 {
		b.ReportMetric(100*float64(dpProfit-greedyProfit)/float64(dpProfit), "greedy_gap_pct")
	}
}

// BenchmarkAblationGroups compares adaptive group replication against
// the single-kernel configuration on a small benchmark where the
// difference is structural.  Reported metric: single_over_adaptive.
func BenchmarkAblationGroups(b *testing.B) {
	bm, err := bench.ByName("flower")
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraph(b, bm)
	cfg := pim.Neurocube(64)
	var adaptive, single int
	for i := 0; i < b.N; i++ {
		ap, err := sched.ParaCONVCtx(context.Background(), g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := sched.ParaCONVSingleCtx(context.Background(), g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		adaptive = ap.TotalTime(bench.Iterations)
		single = sp.TotalTime(bench.Iterations)
	}
	b.ReportMetric(float64(single)/float64(adaptive), "single_over_adaptive")
}

// BenchmarkAblationZeroDeltaFill measures how much eDRAM traffic the
// §3.3.3 zero-ΔR back-fill saves on the largest benchmark.  Reported
// metric: edram_bytes with and without the fill are compared via
// fill_savings_pct.
func BenchmarkAblationZeroDeltaFill(b *testing.B) {
	bm, err := bench.ByName("flower")
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraph(b, bm)
	cfg := pim.Neurocube(64)
	var withFill, withoutFill int64
	for i := 0; i < b.N; i++ {
		plan, err := sched.ParaCONVSingleCtx(context.Background(), g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := sim.RunCtx(context.Background(), plan, cfg, bench.Iterations)
		if err != nil {
			b.Fatal(err)
		}
		withFill = stats.EDRAMBytes
		// Strip the filler: rebuild traffic with only the DP
		// competitors cached (every zero-ΔR edge back to eDRAM).
		tm := plan.Iter.Timing()
		classes, err := retime.Classify(plan.Iter.Graph, tm)
		if err != nil {
			b.Fatal(err)
		}
		bare := plan
		noFill := retime.AllEDRAM(plan.Iter.Graph.NumEdges())
		load := 0
		for j := range classes {
			if classes[j].DeltaR() > 0 && plan.Iter.Assignment[j] == pim.InCache {
				noFill[j] = pim.InCache
				load += plan.Iter.Graph.Edge(dag.EdgeID(j)).Size
			}
		}
		bare.Iter.Assignment = noFill
		bare.CacheLoadUnits = load
		bareStats, err := sim.RunCtx(context.Background(), bare, cfg, bench.Iterations)
		if err != nil {
			b.Fatal(err)
		}
		withoutFill = bareStats.EDRAMBytes
	}
	if withoutFill > 0 {
		b.ReportMetric(100*float64(withoutFill-withFill)/float64(withoutFill), "fill_savings_pct")
	}
}

// BenchmarkPlanning measures raw planning throughput (graphs per
// second) on the largest benchmark — the cost of running Para-CONV's
// whole pipeline.
func BenchmarkPlanning(b *testing.B) {
	for _, name := range []string{"cat", "string-matching", "protein"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		g := benchGraph(b, bm)
		cfg := pim.Neurocube(64)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.ParaCONVCtx(context.Background(), g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulation measures simulator throughput.
func BenchmarkSimulation(b *testing.B) {
	bm, err := bench.ByName("protein")
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraph(b, bm)
	cfg := pim.Neurocube(64)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCtx(context.Background(), plan, cfg, bench.Iterations); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPacking compares the objective-kernel packing
// policies (topological, LPT, level-synchronized) on a mid-size
// benchmark: period (throughput) versus R_max (prologue).  Reported
// metrics: <policy>_period and <policy>_rmax.
func BenchmarkAblationPacking(b *testing.B) {
	bm, err := bench.ByName("shortest-path")
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraph(b, bm)
	cfg := pim.Neurocube(32)
	for _, policy := range []sched.PackPolicy{sched.PackTopo, sched.PackLPT, sched.PackLevel} {
		b.Run(policy.String(), func(b *testing.B) {
			var period, rmax int
			for i := 0; i < b.N; i++ {
				iter, err := sched.ObjectiveWithPolicy(g, cfg.NumPEs, policy)
				if err != nil {
					b.Fatal(err)
				}
				plan, err := sched.ParaCONVGivenScheduleCtx(context.Background(), g, iter, cfg)
				if err != nil {
					b.Fatal(err)
				}
				period = plan.Iter.Period
				rmax = plan.RMax
			}
			b.ReportMetric(float64(period), "period")
			b.ReportMetric(float64(rmax), "rmax")
		})
	}
}

// BenchmarkScalability sweeps synthetic sizes past the paper's largest
// benchmark, reporting the Para/SPARTA ratio per size.
func BenchmarkScalability(b *testing.B) {
	r := bench.NewRunner(nil, 1)
	for _, v := range []int{256, 1024, 2048} {
		b.Run(fmt.Sprintf("v%d", v), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				rows, err := r.Scalability(32, []int{v})
				if err != nil {
					b.Fatal(err)
				}
				ratio = rows[0].Ratio
			}
			b.ReportMetric(ratio, "para_over_sparta")
		})
	}
}

// BenchmarkAblationClustering measures how much linear-chain
// clustering (internal/opt) helps on top of Para-CONV: IPRs
// eliminated outright versus managed by the DP.  Reported metrics:
// edges_removed_pct and clustered_over_raw (total-time ratio).
func BenchmarkAblationClustering(b *testing.B) {
	bm, err := bench.ByName("string-matching")
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraph(b, bm)
	cfg := pim.Neurocube(32)
	var removed float64
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := opt.ClusterLinearChains(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := sched.ParaCONVCtx(context.Background(), g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		clustered, err := sched.ParaCONVCtx(context.Background(), res.Graph, cfg)
		if err != nil {
			b.Fatal(err)
		}
		removed = 100 * float64(res.Merged) / float64(g.NumEdges())
		ratio = float64(clustered.TotalTime(bench.Iterations)) / float64(raw.TotalTime(bench.Iterations))
	}
	b.ReportMetric(removed, "edges_removed_pct")
	b.ReportMetric(ratio, "clustered_over_raw")
}

// BenchmarkAblationStaticVsDynamic compares Para-CONV's static kernel
// throughput against the self-timed dataflow bound with the same IPR
// placement.  Reported metric: static_frac_of_dynamic.
func BenchmarkAblationStaticVsDynamic(b *testing.B) {
	bm, err := bench.ByName("string-matching")
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraph(b, bm)
	cfg := pim.Neurocube(16)
	var frac float64
	for i := 0; i < b.N; i++ {
		plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		staticTput := float64(plan.ConcurrentIterations) / float64(plan.Iter.Period)
		logical := retime.Assignment(plan.Iter.Assignment[:g.NumEdges()])
		dyn, err := sim.Dynamic(g, cfg, logical, 200, 64)
		if err != nil {
			b.Fatal(err)
		}
		frac = staticTput / dyn.Throughput
	}
	b.ReportMetric(frac, "static_frac_of_dynamic")
}
