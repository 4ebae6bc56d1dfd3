package sim

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/synth"
)

func synthGraph(t *testing.T, v, e int, seed int64) *dag.Graph {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: "s", Vertices: v, Edges: e, Seed: seed})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return g
}

func TestRunParaCONV(t *testing.T) {
	g := synthGraph(t, 60, 150, 3)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunCtx(context.Background(), plan, cfg, 100)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Iterations < 100 {
		t.Errorf("iterations = %d, want >= 100", stats.Iterations)
	}
	if stats.Cycles != plan.TotalTime(100) {
		t.Errorf("cycles = %d, plan.TotalTime = %d", stats.Cycles, plan.TotalTime(100))
	}
	if u := stats.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %g", u)
	}
	if stats.CacheReads+stats.EDRAMReads == 0 {
		t.Error("no IPR traffic recorded")
	}
	if stats.EnergyPJ <= 0 {
		t.Error("no energy recorded")
	}
	if stats.PeakCacheLoad > cfg.TotalCacheUnits() {
		t.Errorf("peak cache load %d exceeds capacity %d", stats.PeakCacheLoad, cfg.TotalCacheUnits())
	}
}

func TestRunSPARTA(t *testing.T) {
	g := synthGraph(t, 60, 150, 3)
	cfg := pim.Neurocube(16)
	plan, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunCtx(context.Background(), plan, cfg, 50)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", stats.Iterations)
	}
	if stats.Cycles != 50*plan.Iter.Period {
		t.Errorf("cycles = %d, want %d", stats.Cycles, 50*plan.Iter.Period)
	}
	if stats.TasksExecuted != 50*g.NumNodes() {
		t.Errorf("tasks = %d, want %d", stats.TasksExecuted, 50*g.NumNodes())
	}
}

func TestParaCONVMovesLessDataOffChip(t *testing.T) {
	// The paper's motivation: Para-CONV minimizes off-PE fetching.
	// Compare the single-kernel configuration against SPARTA so both
	// schemes devote the full PE-array cache to one iteration.
	g := synthGraph(t, 102, 267, 7)
	cfg := pim.Neurocube(32)
	pc, err := sched.ParaCONVSingleCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcStats, err := RunCtx(context.Background(), pc, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	spStats, err := RunCtx(context.Background(), sp, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pcStats.OffChipFetchRatio() > spStats.OffChipFetchRatio() {
		t.Errorf("Para-CONV off-chip ratio %.3f > SPARTA %.3f",
			pcStats.OffChipFetchRatio(), spStats.OffChipFetchRatio())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	g := synthGraph(t, 20, 45, 1)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtx(context.Background(), nil, cfg, 10); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := RunCtx(context.Background(), plan, cfg, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	bad := cfg
	bad.NumPEs = 0
	if _, err := RunCtx(context.Background(), plan, bad, 10); err == nil {
		t.Error("invalid config accepted")
	}
	unknown := *plan
	unknown.Scheme = "wat"
	if _, err := RunCtx(context.Background(), &unknown, cfg, 10); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunDetectsOversubscribedCache(t *testing.T) {
	g := synthGraph(t, 20, 45, 1)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan.CacheLoadUnits = cfg.TotalCacheUnits() + 1
	if _, err := RunCtx(context.Background(), plan, cfg, 10); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("err = %v, want capacity violation", err)
	}
}

func TestRunDetectsDependencyViolation(t *testing.T) {
	g := synthGraph(t, 20, 45, 1)
	cfg := pim.Neurocube(16)
	plan, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: move a dependent task to time 0.
	var victim int
	for i := range plan.Iter.Tasks {
		if plan.Iter.Tasks[i].Start > 0 && g.InDegree(dag.NodeID(i)) > 0 {
			victim = i
			break
		}
	}
	d := plan.Iter.Tasks[victim].Finish - plan.Iter.Tasks[victim].Start
	plan.Iter.Tasks[victim].Start = 0
	plan.Iter.Tasks[victim].Finish = d
	if _, err := RunCtx(context.Background(), plan, cfg, 10); err == nil {
		t.Error("dependency violation not detected")
	}
}

func TestRunDetectsIllegalRetimingGap(t *testing.T) {
	g := synthGraph(t, 20, 45, 1)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVSingleCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the retiming: clear every vertex retiming so eDRAM
	// edges with positive rrv become unschedulable.
	for i := range plan.Retiming.R {
		plan.Retiming.R[i] = 0
	}
	if _, err := RunCtx(context.Background(), plan, cfg, 10); err == nil {
		t.Error("illegal retiming not detected")
	}
}

func TestEnergyAsymmetry(t *testing.T) {
	// All-cache vs all-eDRAM plans of the same graph must differ in
	// energy by the configured factor.
	g := synthGraph(t, 30, 70, 2)
	cfg := pim.Neurocube(64) // plenty of cache
	plan, err := sched.ParaCONVSingleCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunCtx(context.Background(), plan, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spStats, err := RunCtx(context.Background(), sp, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Whoever fetches more from eDRAM pays more energy per byte.
	if stats.EDRAMBytes < spStats.EDRAMBytes && stats.EnergyPJ > spStats.EnergyPJ {
		t.Errorf("energy inversion: para eDRAM=%dB energy=%.0f vs sparta eDRAM=%dB energy=%.0f",
			stats.EDRAMBytes, stats.EnergyPJ, spStats.EDRAMBytes, spStats.EnergyPJ)
	}
}

// Property: for random graphs and configurations, Para-CONV plans
// simulate cleanly and the simulator's cycle count matches the plan's
// arithmetic.
func TestSimAgreesWithPlanProperty(t *testing.T) {
	f := func(seed int64, vRaw, peRaw uint8) bool {
		v := int(vRaw%50) + 5
		e := v + int(seed&0x1F)%v
		g, err := synth.Generate(synth.Params{Vertices: v, Edges: e, Seed: seed})
		if err != nil {
			return true // infeasible edge budget
		}
		pes := []int{4, 8, 16, 32}[int(peRaw)%4]
		cfg := pim.Neurocube(pes)
		plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
		if err != nil {
			return false
		}
		stats, err := RunCtx(context.Background(), plan, cfg, 37)
		if err != nil {
			return false
		}
		return stats.Cycles == plan.TotalTime(37) && stats.Utilization() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOffChipFetchRatioEdgeCases(t *testing.T) {
	var s Stats
	if s.OffChipFetchRatio() != 0 {
		t.Error("empty stats should have zero ratio")
	}
	s.EDRAMReads = 3
	s.CacheReads = 1
	if got := s.OffChipFetchRatio(); got != 0.75 {
		t.Errorf("ratio = %g, want 0.75", got)
	}
	if (Stats{}).Utilization() != 0 {
		t.Error("empty stats should have zero utilization")
	}
}
