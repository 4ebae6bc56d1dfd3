package sim

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
	"repro/internal/synth"
)

func TestDynamicBasics(t *testing.T) {
	g := synthGraph(t, 40, 100, 31)
	cfg := pim.Neurocube(16)
	stats, err := Dynamic(g, cfg, retime.AllEDRAM(g.NumEdges()), 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 50 {
		t.Errorf("iterations = %d", stats.Iterations)
	}
	if stats.Makespan <= 0 {
		t.Fatalf("makespan = %d", stats.Makespan)
	}
	// Work conservation: busy time equals iterations x Σc.
	if want := 50 * g.TotalExec(); stats.BusyPE != want {
		t.Errorf("busy = %d, want %d", stats.BusyPE, want)
	}
	if u := stats.Utilization(16); u <= 0 || u > 1 {
		t.Errorf("utilization = %g", u)
	}
	if stats.MaxInFlight < 1 || stats.MaxInFlight > 8 {
		t.Errorf("in-flight peak = %d, window 8", stats.MaxInFlight)
	}
}

func TestDynamicRateBound(t *testing.T) {
	// Throughput can never exceed the resource bound P/Σc.
	g := synthGraph(t, 60, 150, 37)
	cfg := pim.Neurocube(16)
	stats, err := Dynamic(g, cfg, retime.AllCache(g.NumEdges()), 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(cfg.NumPEs) / float64(g.TotalExec())
	if stats.Throughput > bound+1e-9 {
		t.Errorf("throughput %.4f exceeds resource bound %.4f", stats.Throughput, bound)
	}
}

func TestDynamicWindowLimitsPipelining(t *testing.T) {
	g := synthGraph(t, 30, 70, 41)
	cfg := pim.Neurocube(16)
	narrow, err := Dynamic(g, cfg, retime.AllEDRAM(g.NumEdges()), 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Dynamic(g, cfg, retime.AllEDRAM(g.NumEdges()), 60, 16)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.MaxInFlight != 1 {
		t.Errorf("window 1 peaked at %d in flight", narrow.MaxInFlight)
	}
	if wide.Throughput < narrow.Throughput {
		t.Errorf("wider window slower: %.4f < %.4f", wide.Throughput, narrow.Throughput)
	}
}

func TestDynamicCachePlacementHelps(t *testing.T) {
	g := synthGraph(t, 50, 130, 43)
	cfg := pim.Neurocube(8)
	slow, err := Dynamic(g, cfg, retime.AllEDRAM(g.NumEdges()), 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Dynamic(g, cfg, retime.AllCache(g.NumEdges()), 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan > slow.Makespan {
		t.Errorf("all-cache makespan %d > all-eDRAM %d", fast.Makespan, slow.Makespan)
	}
}

func TestDynamicErrors(t *testing.T) {
	g := synthGraph(t, 10, 20, 1)
	cfg := pim.Neurocube(4)
	a := retime.AllEDRAM(g.NumEdges())
	if _, err := Dynamic(g, cfg, a[:1], 10, 4); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := Dynamic(g, cfg, a, 0, 4); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := Dynamic(g, cfg, a, 10, 0); err == nil {
		t.Error("zero window accepted")
	}
	bad := cfg
	bad.NumPEs = 0
	if _, err := Dynamic(g, bad, a, 10, 4); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDynamicDeterministic(t *testing.T) {
	g := synthGraph(t, 45, 110, 47)
	cfg := pim.Neurocube(8)
	a := retime.AllEDRAM(g.NumEdges())
	s1, err := Dynamic(g, cfg, a, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Dynamic(g, cfg, a, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("nondeterministic: %+v vs %+v", s1, s2)
	}
}

// TestStaticKernelNearDynamicBound compares Para-CONV's static
// steady-state throughput against the dynamic dataflow bound with the
// same placement: the static kernel should reach a large fraction of
// it (that is the point of retiming).
func TestStaticKernelNearDynamicBound(t *testing.T) {
	g := synthGraph(t, 102, 267, 1102)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	staticTput := float64(plan.ConcurrentIterations) / float64(plan.Iter.Period)

	// Dynamic with the same logical placement (plan's assignment is
	// on the replicated kernel; its first |E| entries are the logical
	// placement).
	logical := retime.Assignment(plan.Iter.Assignment[:g.NumEdges()])
	dyn, err := Dynamic(g, cfg, logical, 200, 64)
	if err != nil {
		t.Fatal(err)
	}
	if staticTput > dyn.Throughput*1.10 {
		t.Errorf("static throughput %.4f exceeds dynamic bound %.4f by >10%%", staticTput, dyn.Throughput)
	}
	if staticTput < 0.5*dyn.Throughput {
		t.Errorf("static kernel reaches only %.0f%% of the dynamic bound (%.4f vs %.4f)",
			100*staticTput/dyn.Throughput, staticTput, dyn.Throughput)
	}
}

// Property: the dynamic executor always completes, conserves work, and
// respects the window bound.
func TestDynamicProperty(t *testing.T) {
	f := func(seed int64, peRaw, winRaw uint8) bool {
		v := 5 + int(seed&0x1F)
		g, err := synth.Generate(synth.Params{Vertices: v, Edges: v + int(seed>>7&0x0F)%v, Seed: seed})
		if err != nil {
			return true
		}
		cfg := pim.Neurocube(int(peRaw%16) + 1)
		window := int(winRaw%8) + 1
		stats, err := Dynamic(g, cfg, retime.AllEDRAM(g.NumEdges()), 13, window)
		if err != nil {
			return false
		}
		return stats.BusyPE == 13*g.TotalExec() && stats.MaxInFlight <= window
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
