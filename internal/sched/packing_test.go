package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/synth"
)

func TestPackPolicyString(t *testing.T) {
	for p, want := range map[PackPolicy]string{
		PackTopo: "topo", PackLPT: "lpt", PackLevel: "level", PackPolicy(9): "packpolicy(9)",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestAllPoliciesProduceValidSchedules(t *testing.T) {
	g := synthGraph(t, 60, 150, 3)
	for _, policy := range []PackPolicy{PackTopo, PackLPT, PackLevel} {
		iter, err := ObjectiveWithPolicy(g, 8, policy)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if err := iter.Validate(); err != nil {
			t.Errorf("%v: invalid schedule: %v", policy, err)
		}
		lower := (g.TotalExec() + 7) / 8
		if iter.Period < lower && iter.Period < periodFloor(g) {
			t.Errorf("%v: period %d below both bounds", policy, iter.Period)
		}
	}
}

func TestObjectiveWithPolicyErrors(t *testing.T) {
	g := synthGraph(t, 10, 20, 1)
	if _, err := ObjectiveWithPolicy(g, 0, PackTopo); err == nil {
		t.Error("zero PEs accepted")
	}
	if _, err := ObjectiveWithPolicy(g, 4, PackPolicy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := ObjectiveWithPolicy(dag.New("empty"), 4, PackLevel); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestLevelPackingHasNoBackwardsEdges(t *testing.T) {
	g := synthGraph(t, 80, 200, 7)
	iter, err := ObjectiveWithPolicy(g, 16, PackLevel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Edges() {
		e := g.Edge(dag.EdgeID(i))
		if iter.Tasks[e.From].Finish > iter.Tasks[e.To].Start {
			t.Errorf("edge %d->%d: producer finishes %d after consumer starts %d",
				e.From, e.To, iter.Tasks[e.From].Finish, iter.Tasks[e.To].Start)
		}
	}
}

func TestLevelPackingTradesPeriodForRetiming(t *testing.T) {
	// The structural trade-off the ablation demonstrates: level
	// packing never needs cache-side retiming (rc = 0 everywhere),
	// but its barriers stretch the period; the compacted packings are
	// rate-optimal but pay prologue.
	g := synthGraph(t, 100, 260, 11)
	cfg := pim.Neurocube(16)

	level, err := ObjectiveWithPolicy(g, cfg.NumPEs, PackLevel)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := ObjectiveWithPolicy(g, cfg.NumPEs, PackTopo)
	if err != nil {
		t.Fatal(err)
	}
	if level.Period < topo.Period {
		t.Errorf("level period %d < topo period %d; barriers should cost time", level.Period, topo.Period)
	}
	classes, err := retime.Classify(g, level.Timing())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range classes {
		if c.RCache != 0 {
			t.Errorf("edge %d: cache rrv %d under level packing, want 0", c.Edge, c.RCache)
		}
	}
}

// Property: every policy yields a schedule whose retiming analysis
// succeeds and whose plans are legal.
func TestPoliciesPlanLegallyProperty(t *testing.T) {
	f := func(seed int64, policyRaw, peRaw uint8) bool {
		v := 5 + int(seed&0x1F)
		g, err := synth.Generate(synth.Params{Vertices: v, Edges: v + int(seed>>8&0x0F)%v, Seed: seed})
		if err != nil {
			return true
		}
		policy := []PackPolicy{PackTopo, PackLPT, PackLevel}[int(policyRaw)%3]
		pes := int(peRaw%16) + 1
		iter, err := ObjectiveWithPolicy(g, pes, policy)
		if err != nil {
			return false
		}
		if iter.Validate() != nil {
			return false
		}
		tm := iter.Timing()
		classes, err := retime.Classify(g, tm)
		if err != nil {
			return false
		}
		var res retime.Result
		if err := retime.ApplyInto(&res, g, classes, retime.AllEDRAM(g.NumEdges()), tm.Period, nil); err != nil {
			return false
		}
		return retime.CheckLegal(g, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
