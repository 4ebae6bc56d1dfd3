package sched

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pim"
)

func TestPresetsAllValid(t *testing.T) {
	for _, pes := range []int{4, 16, 64} {
		for _, cfg := range pim.Presets(pes) {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s: %v", cfg.Name, err)
			}
			if cfg.NumPEs != pes {
				t.Errorf("%s: NumPEs = %d, want %d", cfg.Name, cfg.NumPEs, pes)
			}
		}
	}
}

func TestPresetsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, cfg := range pim.Presets(16) {
		if seen[cfg.Name] {
			t.Errorf("duplicate preset name %q", cfg.Name)
		}
		seen[cfg.Name] = true
	}
	if len(seen) != 4 {
		t.Errorf("%d presets, want 4", len(seen))
	}
}

func TestSelectConfigRanksAllCandidates(t *testing.T) {
	g := synthGraph(t, 60, 150, 3)
	chosen, ranked, err := SelectConfigCtx(context.Background(), g, pim.Presets(16), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 4 {
		t.Fatalf("%d ranked candidates, want 4", len(ranked))
	}
	if ranked[0].Config.Name != chosen.Config.Name {
		t.Error("chosen candidate is not first in ranking")
	}
	for _, c := range ranked {
		if c.TotalTime < chosen.TotalTime {
			t.Errorf("candidate %s beats the chosen one (%d < %d)",
				c.Config.Name, c.TotalTime, chosen.TotalTime)
		}
		if c.Plan == nil {
			t.Errorf("candidate %s has no plan", c.Config.Name)
		}
	}
}

func TestSelectConfigErrors(t *testing.T) {
	g := synthGraph(t, 10, 20, 1)
	if _, _, err := SelectConfigCtx(context.Background(), g, nil, 10); err == nil {
		t.Error("no candidates accepted")
	}
	if _, _, err := SelectConfigCtx(context.Background(), g, pim.Presets(16), 0); err == nil {
		t.Error("zero iterations accepted")
	}
	bad := pim.Neurocube(16)
	bad.NumPEs = 0
	if _, _, err := SelectConfigCtx(context.Background(), g, []pim.Config{bad}, 10); err == nil || !strings.Contains(err.Error(), "no candidate") {
		t.Errorf("err = %v", err)
	}
}

func TestSelectConfigSkipsBrokenCandidate(t *testing.T) {
	g := synthGraph(t, 30, 70, 5)
	bad := pim.Neurocube(16)
	bad.CacheUnitsPerPE = 0 // invalid
	chosen, ranked, err := SelectConfigCtx(context.Background(), g, []pim.Config{bad, pim.Neurocube(16)}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 || chosen.Config.Name != "neurocube-16" {
		t.Errorf("chosen = %s, ranked = %d", chosen.Config.Name, len(ranked))
	}
}
