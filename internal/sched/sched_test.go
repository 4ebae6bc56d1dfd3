package sched

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/synth"
)

// fig2b builds the paper's Figure 2(b) graph: T1->{T2,T3}, T2->{T4,T5},
// T3->{T4,T5}, unit execution times.
func fig2b() *dag.Graph {
	g := dag.New("fig2b")
	for i := 0; i < 5; i++ {
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
	}
	for _, p := range [][2]dag.NodeID{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}} {
		g.AddEdge(dag.Edge{From: p[0], To: p[1], Size: 1, CacheTime: 0, EDRAMTime: 1})
	}
	return g
}

func synthGraph(t *testing.T, v, e int, seed int64) *dag.Graph {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: "s", Vertices: v, Edges: e, Seed: seed})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return g
}

func TestObjectivePacksRateOptimally(t *testing.T) {
	g := synthGraph(t, 40, 100, 5)
	iter, err := Objective(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := iter.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	lower := (g.TotalExec() + 7) / 8
	if iter.Period < lower {
		t.Errorf("period %d below rate-optimal bound %d", iter.Period, lower)
	}
	if iter.Period < g.MaxExec() {
		t.Errorf("period %d below max exec %d", iter.Period, g.MaxExec())
	}
	// LPT packing is within maxExec of the lower bound.
	if iter.Period > lower+g.MaxExec() {
		t.Errorf("period %d too slack (bound %d + maxExec %d)", iter.Period, lower, g.MaxExec())
	}
}

func TestObjectivePeriodCoversEDRAMTransfers(t *testing.T) {
	g := dag.New("t")
	g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
	g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
	g.AddEdge(dag.Edge{From: 0, To: 1, Size: 1, CacheTime: 0, EDRAMTime: 7})
	iter, err := Objective(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if iter.Period < 7 {
		t.Errorf("period %d < max eDRAM transfer 7; Theorem 3.1 precondition broken", iter.Period)
	}
}

func TestObjectiveErrors(t *testing.T) {
	g := fig2b()
	if _, err := Objective(g, 0); err == nil {
		t.Error("zero PEs accepted")
	}
	if _, err := Objective(dag.New("empty"), 4); err == nil {
		t.Error("empty graph accepted")
	}
	bad := dag.New("bad")
	bad.AddNode(dag.Node{Kind: dag.OpConv, Exec: 0})
	if _, err := Objective(bad, 4); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestParaCONVOnPaperExample(t *testing.T) {
	g := fig2b()
	cfg := pim.Neurocube(4)
	plan, err := ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Iter.Validate(); err != nil {
		t.Fatalf("iteration invalid: %v", err)
	}
	// Retiming must be legal for the DP's allocation (checked on the
	// unrolled kernel graph).
	if err := retime.CheckLegal(plan.Iter.Graph, plan.Retiming); err != nil {
		t.Errorf("CheckLegal: %v", err)
	}
	// Steady-state cost per iteration must be no worse than the
	// single-group kernel (period floor 3).
	if it := plan.IterationTime(); it > 3 {
		t.Errorf("iteration time = %g, want <= 3", it)
	}
	if plan.ConcurrentIterations < 1 {
		t.Errorf("ConcurrentIterations = %d", plan.ConcurrentIterations)
	}
}

func TestParaCONVSingleMatchesPaperExample(t *testing.T) {
	g := fig2b()
	plan, err := ParaCONVSingleCtx(context.Background(), g, pim.Neurocube(4))
	if err != nil {
		t.Fatal(err)
	}
	// 5 unit tasks on 4 PEs, one iteration per kernel: the packing
	// makespan is 2, raised to the period floor 3 — the same 3-unit
	// kernel as the paper's Figure 3(b).
	if plan.Iter.Period != 3 {
		t.Errorf("period = %d, want 3", plan.Iter.Period)
	}
	if plan.ConcurrentIterations != 1 {
		t.Errorf("ConcurrentIterations = %d, want 1", plan.ConcurrentIterations)
	}
	if err := retime.CheckLegal(g, plan.Retiming); err != nil {
		t.Errorf("CheckLegal: %v", err)
	}
	if plan.RMax > 4 {
		t.Errorf("RMax = %d, suspiciously large for the 5-task example", plan.RMax)
	}
}

func TestSPARTARespectsDependencies(t *testing.T) {
	g := synthGraph(t, 60, 150, 9)
	plan, err := SPARTACtx(context.Background(), g, pim.Neurocube(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Iter.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := plan.Iter.CheckDependencies(); err != nil {
		t.Fatalf("CheckDependencies: %v", err)
	}
	if plan.RMax != 0 || plan.PrologueTime() != 0 {
		t.Errorf("SPARTA should not retime: RMax=%d prologue=%d", plan.RMax, plan.PrologueTime())
	}
	if plan.ConcurrentIterations < 1 {
		t.Errorf("ConcurrentIterations = %d", plan.ConcurrentIterations)
	}
	if plan.ConcurrentIterations*plan.Iter.PEs > 16 {
		t.Errorf("groups %d x size %d exceed 16 PEs", plan.ConcurrentIterations, plan.Iter.PEs)
	}
}

func TestParaCONVBeatsSPARTA(t *testing.T) {
	// The headline claim (Table 1): Para-CONV reduces total execution
	// time substantially across sizes and PE counts.
	const iterations = 100
	for _, tc := range []struct{ v, e int }{{21, 51}, {102, 267}, {191, 506}} {
		g := synthGraph(t, tc.v, tc.e, int64(tc.v))
		for _, pes := range []int{16, 32, 64} {
			cfg := pim.Neurocube(pes)
			pc, err := ParaCONVCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("ParaCONV(%d,%d PEs): %v", tc.v, pes, err)
			}
			sp, err := SPARTACtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("SPARTA(%d,%d PEs): %v", tc.v, pes, err)
			}
			pcT, spT := pc.TotalTime(iterations), sp.TotalTime(iterations)
			if pcT >= spT {
				t.Errorf("|V|=%d on %d PEs: Para-CONV %d >= SPARTA %d", tc.v, pes, pcT, spT)
			}
		}
	}
}

func TestRMaxDecreasesWithMorePEs(t *testing.T) {
	// Table 2's trend: at a fixed application period (set by the
	// smallest array), more PEs compact the kernel further, widening
	// transfer windows and growing the cache, so the maximum retiming
	// value falls.
	g := synthGraph(t, 191, 506, 191)
	base, err := Objective(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	rmax := make([]int, 0, 3)
	for _, pes := range []int{16, 32, 64} {
		plan, err := ParaCONVGivenScheduleCtx(context.Background(), g, base, pim.Neurocube(pes))
		if err != nil {
			t.Fatal(err)
		}
		rmax = append(rmax, plan.RMax)
	}
	for i := 1; i < len(rmax); i++ {
		if rmax[i] > rmax[i-1] {
			t.Errorf("RMax rose from %d to %d at step %d (series %v)", rmax[i-1], rmax[i], i, rmax)
		}
	}
	if rmax[2] >= rmax[0] {
		t.Errorf("RMax did not fall from 16 to 64 PEs: %v", rmax)
	}
}

func TestPlanArithmetic(t *testing.T) {
	p := &Plan{
		Scheme:               "sparta",
		Iter:                 IterationSchedule{Period: 10},
		ConcurrentIterations: 4,
	}
	if got := p.TotalTime(100); got != 250 {
		t.Errorf("TotalTime(100) = %d, want 250 (25 rounds x 10)", got)
	}
	if got := p.TotalTime(0); got != 0 {
		t.Errorf("TotalTime(0) = %d", got)
	}
	if got := p.IterationTime(); got != 2.5 {
		t.Errorf("IterationTime = %g, want 2.5", got)
	}
	if got := p.Throughput(100); got != 0.4 {
		t.Errorf("Throughput = %g, want 0.4", got)
	}

	pc := &Plan{
		Scheme:               "para-conv",
		Iter:                 IterationSchedule{Period: 5},
		ConcurrentIterations: 1,
		RMax:                 3,
	}
	if got := pc.PrologueTime(); got != 15 {
		t.Errorf("PrologueTime = %d, want 15", got)
	}
	if got := pc.TotalTime(100); got != 515 {
		t.Errorf("TotalTime = %d, want 515", got)
	}
}

func TestScheduleValidateCatchesOverlap(t *testing.T) {
	g := fig2b()
	iter, err := Objective(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Force two tasks onto the same PE at the same time.
	iter.Tasks[0].PE = iter.Tasks[1].PE
	iter.Tasks[0].Start = iter.Tasks[1].Start
	iter.Tasks[0].Finish = iter.Tasks[1].Finish
	if err := iter.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("Validate = %v, want overlap error", err)
	}
}

func TestScheduleValidateCatchesBadWindows(t *testing.T) {
	g := fig2b()
	iter, _ := Objective(g, 4)
	iter.Tasks[2].Finish = iter.Period + 5
	err := iter.Validate()
	if err == nil {
		t.Fatal("Validate accepted out-of-period window")
	}
}

func TestCheckDependenciesDetectsViolation(t *testing.T) {
	g := fig2b()
	iter, err := listSchedule(context.Background(), g, 2, retime.AllEDRAM(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if err := iter.CheckDependencies(); err != nil {
		t.Fatalf("fresh list schedule violates dependencies: %v", err)
	}
	iter.Tasks[4].Start = 0
	iter.Tasks[4].Finish = 1
	if err := iter.CheckDependencies(); err == nil {
		t.Error("CheckDependencies missed a violation")
	}
}

func TestGanttOutput(t *testing.T) {
	g := fig2b()
	iter, _ := Objective(g, 4)
	var buf bytes.Buffer
	if err := WriteGantt(&buf, &iter); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"PE1", "PE4", "T1", "period 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
}

func TestSummaries(t *testing.T) {
	g := fig2b()
	plan, err := ParaCONVCtx(context.Background(), g, pim.Neurocube(4))
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Summary(10)
	for _, want := range []string{"para-conv", "4 PEs", "iterations"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
	cs := plan.CacheSummary()
	if !strings.Contains(cs, "eDRAM") {
		t.Errorf("cache summary = %q", cs)
	}
}

func TestUtilizationBounds(t *testing.T) {
	g := synthGraph(t, 64, 170, 13)
	iter, err := Objective(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := iter.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %g, want in (0,1]", u)
	}
}

// Property: across random graphs and PE counts, Para-CONV plans are
// structurally valid, legally retimed, and the period respects the
// rate-optimal and Theorem 3.1 lower bounds.
func TestParaCONVProperty(t *testing.T) {
	f := func(seed int64, vRaw, peRaw uint8) bool {
		v := int(vRaw%60) + 5
		e := v + int(seed&0x3F)%v
		g, err := synth.Generate(synth.Params{Vertices: v, Edges: e, Seed: seed})
		if err != nil {
			// Infeasible edge budget: skip by trivially passing.
			return true
		}
		pes := int(peRaw%32) + 1
		plan, err := ParaCONVCtx(context.Background(), g, pim.Neurocube(pes))
		if err != nil {
			return false
		}
		if plan.Iter.Validate() != nil {
			return false
		}
		if retime.CheckLegal(plan.Iter.Graph, plan.Retiming) != nil {
			return false
		}
		lower := (plan.Iter.Graph.TotalExec() + pes - 1) / pes
		return plan.Iter.Period >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SPARTA schedules always respect dependencies and never
// exceed the PE budget.
func TestSPARTAProperty(t *testing.T) {
	f := func(seed int64, vRaw, peRaw uint8) bool {
		v := int(vRaw%40) + 5
		e := v + int(seed&0x1F)%v
		g, err := synth.Generate(synth.Params{Vertices: v, Edges: e, Seed: seed})
		if err != nil {
			return true
		}
		pes := int(peRaw%16) + 1
		plan, err := SPARTACtx(context.Background(), g, pim.Neurocube(pes))
		if err != nil {
			return false
		}
		return plan.Iter.Validate() == nil &&
			plan.Iter.CheckDependencies() == nil &&
			plan.ConcurrentIterations*plan.Iter.PEs <= pes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveBaseline(t *testing.T) {
	g := synthGraph(t, 60, 150, 3)
	cfg := pim.Neurocube(16)
	nv, err := NaiveCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := nv.Iter.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := nv.Iter.CheckDependencies(); err != nil {
		t.Fatalf("CheckDependencies: %v", err)
	}
	sp, err := SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The design-space bracket: Para-CONV <= SPARTA <= Naive.
	if sp.TotalTime(100) > nv.TotalTime(100) {
		t.Errorf("SPARTA %d worse than Naive %d", sp.TotalTime(100), nv.TotalTime(100))
	}
	if pc.TotalTime(100) >= sp.TotalTime(100) {
		t.Errorf("Para-CONV %d not better than SPARTA %d", pc.TotalTime(100), sp.TotalTime(100))
	}
}

func TestNaiveErrors(t *testing.T) {
	if _, err := NaiveCtx(context.Background(), dag.New("empty"), pim.Neurocube(4)); err == nil {
		t.Error("empty graph accepted")
	}
	bad := pim.Neurocube(4)
	bad.NumPEs = 0
	g := synthGraph(t, 10, 20, 1)
	if _, err := NaiveCtx(context.Background(), g, bad); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestParaCONVRechecksDecodedGraph: a graph marked valid at decode
// skips only the structural re-check, and only until it is mutated —
// a cycle added with AddEdge and a vertex weight written through Node
// are both still rejected.
func TestParaCONVRechecksDecodedGraph(t *testing.T) {
	decoded := func() *dag.Graph {
		g, err := dag.DecodeBinary(dag.AppendBinary(nil, synthGraph(t, 30, 70, 11)), dag.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cfg := pim.Neurocube(16)
	if _, err := ParaCONVCtx(context.Background(), decoded(), cfg); err != nil {
		t.Fatalf("clean decoded graph rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		damage func(g *dag.Graph)
		want   string
	}{
		{"cycle added after decode", func(g *dag.Graph) {
			e := g.Edge(0)
			g.AddEdge(dag.Edge{From: e.To, To: e.From, Size: 1, EDRAMTime: 1})
		}, "cycle"},
		{"zero exec written through Node", func(g *dag.Graph) { g.Node(0).Exec = 0 }, "exec"},
	} {
		g := decoded()
		tc.damage(g)
		if _, err := ParaCONVCtx(context.Background(), g, cfg); err == nil || !strings.Contains(err.Error(), " "+tc.want+": ") {
			t.Errorf("%s: ParaCONVCtx err = %v, want a %q error", tc.name, err, tc.want)
		}
	}
}
