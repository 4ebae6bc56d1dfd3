package sched

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
)

// TestCheckPlanEveryScheme: the plan of every solver passes CheckPlan
// against its own problem — para-conv at one and at several concurrent
// iterations, the given-schedule stage (on a schedule built for a
// smaller array, as Table 2 sweeps it), SPARTA and naive — without a
// heap allocation, and fails it on an array without cache or against
// another graph.
func TestCheckPlanEveryScheme(t *testing.T) {
	ctx := context.Background()
	g := synthGraph(t, 40, 100, 5)
	base, err := Objective(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cfg   pim.Config
		solve func(context.Context, *dag.Graph, pim.Config) (*Plan, error)
		ci    func(int) bool
	}{
		{"para-conv, one iteration", pim.Neurocube(1), ParaCONVCtx, func(ci int) bool { return ci == 1 }},
		{"para-conv, replicated", pim.Neurocube(64), ParaCONVCtx, func(ci int) bool { return ci > 1 }},
		{"para-conv single", pim.Neurocube(64), ParaCONVSingleCtx, func(ci int) bool { return ci == 1 }},
		{"given schedule", pim.Neurocube(64), func(ctx context.Context, g *dag.Graph, cfg pim.Config) (*Plan, error) {
			return ParaCONVGivenScheduleCtx(ctx, g, base, cfg)
		}, func(ci int) bool { return ci == 1 }},
		{"sparta", pim.Neurocube(16), SPARTACtx, func(ci int) bool { return ci == 1 }},
		{"naive", pim.Neurocube(16), NaiveCtx, func(ci int) bool { return ci == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.solve(ctx, g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.ci(p.ConcurrentIterations) {
				t.Fatalf("fixture plan has %d concurrent iterations", p.ConcurrentIterations)
			}
			if err := CheckPlan(p, g, tc.cfg); err != nil {
				t.Fatalf("CheckPlan: %v", err)
			}
			if n := testing.AllocsPerRun(20, func() { _ = CheckPlan(p, g, tc.cfg) }); n != 0 {
				t.Errorf("CheckPlan allocated %.0f times per call; want 0", n)
			}
			small := tc.cfg
			small.CacheUnitsPerPE = 0
			if p.CacheLoadUnits > 0 && CheckPlan(p, g, small) == nil {
				t.Error("CheckPlan accepted a cached footprint past the array's capacity")
			}
			if other := synthGraph(t, 40, 100, 6); CheckPlan(p, other, tc.cfg) == nil {
				t.Error("CheckPlan accepted the plan against another problem graph")
			}
		})
	}
}

// TestCheckPlanRejections: each property CheckPlan proves, broken on
// its own in an otherwise solver-built replicated plan.
func TestCheckPlanRejections(t *testing.T) {
	g := synthGraph(t, 40, 100, 5)
	cfg := pim.Neurocube(64)
	for _, tc := range []struct {
		name string
		edit func(p *Plan)
		want string
	}{
		{"CI not dividing the PEs", func(p *Plan) { p.ConcurrentIterations = 3 }, "do not divide"},
		{"missing task", func(p *Plan) { p.Iter.Tasks = p.Iter.Tasks[1:] }, "tasks"},
		{"missing placement", func(p *Plan) { p.Iter.Assignment = p.Iter.Assignment[1:] }, "placements"},
		{"schedule wider than the array", func(p *Plan) { p.Iter.PEs = 2 * cfg.NumPEs }, "PEs"},
		{"foreign kernel graph", func(p *Plan) { p.Iter.Graph = g }, "kernel"},
		{"bad placement byte", func(p *Plan) { p.Iter.Assignment[0] = 7 }, "placement"},
		{"lying cached count", func(p *Plan) { p.CachedIPRs++ }, "IPRs cached"},
		{"lying footprint", func(p *Plan) { p.CacheLoadUnits++ }, "claims"},
		{"groups differ", func(p *Plan) {
			m := g.NumEdges()
			p.Iter.Assignment[m] ^= pim.InCache ^ pim.InEDRAM
		}, "copies"},
		{"replica task moved", func(p *Plan) { p.Iter.Tasks[len(p.Iter.Tasks)-1].PE-- }, "copies"},
		{"illegal retiming", func(p *Plan) { p.LogicalRetiming.R[0] = -1 }, "least its out-edges need"},
		{"rrv other than its placement needs", func(p *Plan) { p.LogicalRetiming.REdge[0]++ }, "least its placement needs"},
		{"retiming past the minimum", func(p *Plan) {
			for v := range p.LogicalRetiming.R {
				p.LogicalRetiming.R[v]++
			}
		}, "least its out-edges need"},
		{"retiming of the wrong length", func(p *Plan) { p.LogicalRetiming.R = p.LogicalRetiming.R[1:] }, "covers"},
		{"retiming period", func(p *Plan) { p.LogicalRetiming.Period++ }, "period"},
		{"lying R_max", func(p *Plan) { p.RMax++ }, "R_max"},
		{"kernel retiming not a copy", func(p *Plan) { p.Retiming.RMax++ }, "copies"},
		{"unknown scheme", func(p *Plan) { p.Scheme = "greedy" }, "scheme"},
		{"retimed baseline", func(p *Plan) { p.Scheme = "sparta" }, "baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParaCONVCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.ConcurrentIterations < 2 || p.CachedIPRs == 0 {
				t.Fatalf("fixture plan has %d groups and %d cached IPRs", p.ConcurrentIterations, p.CachedIPRs)
			}
			tc.edit(p)
			err = CheckPlan(p, g, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckPlan = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
