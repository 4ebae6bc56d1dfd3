package bench

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSensitivity(t *testing.T) {
	rows, err := shared.Sensitivity(32, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Suite) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MinRatio > r.BaseRatio || r.MaxRatio < r.BaseRatio {
			t.Errorf("%s: base %.3f outside [%.3f, %.3f]",
				r.Benchmark.Name, r.BaseRatio, r.MinRatio, r.MaxRatio)
		}
		// Robustness claim: Para-CONV keeps winning under ±25% noise.
		if r.MaxRatio >= 1 {
			t.Errorf("%s: perturbed ratio %.3f reaches 1 (Para-CONV loses)", r.Benchmark.Name, r.MaxRatio)
		}
		if r.RMaxSpread < 0 {
			t.Errorf("%s: negative spread", r.Benchmark.Name)
		}
	}
	out := FormatSensitivity(rows, 0.25)
	if !strings.Contains(out, "R_max spread") {
		t.Error("sensitivity table malformed")
	}
}

func TestSensitivityErrors(t *testing.T) {
	if _, err := shared.Sensitivity(16, 0, 3); err == nil {
		t.Error("zero noise accepted")
	}
	if _, err := shared.Sensitivity(16, 1.5, 3); err == nil {
		t.Error("noise > 1 accepted")
	}
	if _, err := shared.Sensitivity(16, 0.2, 0); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestPerturbPreservesInvariants(t *testing.T) {
	b := Suite[5]
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		pg := Perturb(g, 0.4, rng)
		if err := pg.Validate(); err != nil {
			t.Fatalf("trial %d: perturbed graph invalid: %v", trial, err)
		}
		if pg.NumNodes() != g.NumNodes() || pg.NumEdges() != g.NumEdges() {
			t.Fatal("perturbation changed structure")
		}
	}
	// Original untouched.
	g2, _ := b.Graph()
	for i := range g.Nodes() {
		if g.Nodes()[i].Exec != g2.Nodes()[i].Exec {
			t.Fatal("Perturb mutated its input")
		}
	}
}
