package check_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/synth"
)

// TestPipelinePropertySweep drives the full Para-CONV pipeline over a
// seeded family of synthetic graphs and re-verifies every stage's
// output through the invariant layer directly: the generated graph is
// a DAG, the plan's retiming is legal and Theorem 3.1-bounded, the
// kernel schedule never oversubscribes a PE or the cache, the
// allocation's bookkeeping matches its placement, and the simulator
// accepts and completes the plan.  sched.CheckPlan, the check the
// solver and the daemon's admission run, is called next to the
// reference validators, so a regression fails here twice over.
func TestPipelinePropertySweep(t *testing.T) {
	const seeds = 60 // >= 50 seeded graphs per the correctness-tooling spec
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			vertices := 10 + (s*7)%51 // 10..60
			edges := vertices + (s*13)%(2*vertices) + 1
			pes := []int{4, 8, 16, 32}[s%4]
			g, err := synth.Generate(synth.Params{
				Name:     fmt.Sprintf("sweep%d", s),
				Vertices: vertices,
				Edges:    edges,
				Seed:     int64(1000 + s),
			})
			if err != nil {
				t.Fatalf("synth: %v", err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("generated graph: %v", err)
			}

			cfg := pim.Neurocube(pes)
			plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("para-conv: %v", err)
			}

			// The production check and the reference validators below
			// must agree that the plan holds.
			if err := sched.CheckPlan(plan, g, cfg); err != nil {
				t.Errorf("CheckPlan: %v", err)
			}
			kernel := plan.Iter.Graph
			if err := kernel.Validate(); err != nil {
				t.Errorf("kernel graph: %v", err)
			}
			if err := check.CheckRetiming(kernel, plan.Retiming.R, plan.Retiming.REdge); err != nil {
				t.Errorf("plan retiming: %v", err)
			}

			exec := make([]int, kernel.NumNodes())
			slots := make([]check.Slot, len(plan.Iter.Tasks))
			for i := range plan.Iter.Tasks {
				tk := plan.Iter.Tasks[i]
				exec[i] = kernel.Nodes()[i].Exec
				slots[i] = check.Slot{PE: int(tk.PE), Start: tk.Start, Finish: tk.Finish}
			}
			if err := check.CheckSchedule(plan.Iter.PEs, plan.Iter.Period, exec, slots,
				plan.CacheLoadUnits, cfg.TotalCacheUnits()); err != nil {
				t.Errorf("kernel schedule: %v", err)
			}

			// Solver certification on the real competitor list: the
			// production bitset DP must agree with the rolling-row DP,
			// the branch-and-bound oracle and the full-table reference
			// on this seed's allocation instance — and reconstruct the
			// exact subset the full table would.
			tm := plan.Iter.Timing()
			classes, err := retime.Classify(kernel, tm)
			if err != nil {
				t.Fatalf("classify: %v", err)
			}
			items, err := core.BuildItems(kernel, classes, tm)
			if err != nil {
				t.Fatalf("build items: %v", err)
			}
			capacity := cfg.TotalCacheUnits()
			chosen := make([]bool, len(items))
			profit, err := core.KnapsackInto(context.Background(), chosen, items, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if p := core.KnapsackProfit(items, capacity); p != profit {
				t.Errorf("bitset DP profit %d != rolling DP %d", profit, p)
			}
			if p := core.BranchAndBound(items, capacity); p != profit {
				t.Errorf("bitset DP profit %d != branch-and-bound %d", profit, p)
			}
			refChosen, refProfit := core.KnapsackFullTable(items, capacity)
			if refProfit != profit {
				t.Errorf("bitset DP profit %d != full-table %d", profit, refProfit)
			}
			for i := range chosen {
				if chosen[i] != refChosen[i] {
					t.Errorf("item %d: bitset chose %v, full table %v", i, chosen[i], refChosen[i])
				}
			}

			claim := check.Claim{
				CacheUsed:   plan.CacheLoadUnits,
				CachedCount: plan.ConcurrentIterations * plan.CachedIPRs,
				RMax:        plan.RMax,
			}
			if err := check.CheckAllocation(kernel, plan.Iter.Assignment,
				cfg.TotalCacheUnits(), claim, plan.Retiming.R); err != nil {
				t.Errorf("plan allocation: %v", err)
			}

			stats, err := sim.RunCtx(context.Background(), plan, cfg, 25)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if stats.Iterations < 25 {
				t.Errorf("simulated %d iterations; want >= 25", stats.Iterations)
			}
			if stats.PeakCacheLoad > cfg.TotalCacheUnits() {
				t.Errorf("peak cache load %d exceeds capacity %d", stats.PeakCacheLoad, cfg.TotalCacheUnits())
			}
		})
	}
}

// TestSweepCoversSPARTA runs the baseline scheduler through the same
// validators on a smaller seed family: SPARTA never retimes, so its
// plans must pass CheckSchedule with a zero retiming.
func TestSweepCoversSPARTA(t *testing.T) {
	for s := 0; s < 10; s++ {
		g, err := synth.Generate(synth.Params{
			Name:     fmt.Sprintf("sparta%d", s),
			Vertices: 12 + s*4,
			Edges:    20 + s*8,
			Seed:     int64(2000 + s),
		})
		if err != nil {
			t.Fatalf("seed %d: synth: %v", s, err)
		}
		cfg := pim.Neurocube(8)
		plan, err := sched.SPARTACtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("seed %d: sparta: %v", s, err)
		}
		if plan.RMax != 0 {
			t.Errorf("seed %d: SPARTA plan claims RMax %d", s, plan.RMax)
		}
		if err := sched.CheckPlan(plan, g, cfg); err != nil {
			t.Errorf("seed %d: CheckPlan: %v", s, err)
		}
		kernel := plan.Iter.Graph
		exec := make([]int, kernel.NumNodes())
		slots := make([]check.Slot, len(plan.Iter.Tasks))
		for i := range plan.Iter.Tasks {
			tk := plan.Iter.Tasks[i]
			exec[i] = kernel.Nodes()[i].Exec
			slots[i] = check.Slot{PE: int(tk.PE), Start: tk.Start, Finish: tk.Finish}
		}
		if err := check.CheckSchedule(plan.Iter.PEs, plan.Iter.Period, exec, slots, 0, cfg.TotalCacheUnits()); err != nil {
			t.Errorf("seed %d: schedule: %v", s, err)
		}
		if _, err := sim.RunCtx(context.Background(), plan, cfg, 10); err != nil {
			t.Errorf("seed %d: sim: %v", s, err)
		}
	}
}
