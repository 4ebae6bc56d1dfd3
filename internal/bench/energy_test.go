package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/pim"
)

func TestEnergyStudy(t *testing.T) {
	rows, err := shared.Energy(16)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(pim.Presets(16)) * len(Suite)
	if len(rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(rows), wantRows)
	}
	var paraSum, spartaSum float64
	for _, r := range rows {
		if r.ParaPJ <= 0 || r.SpartaPJ <= 0 {
			t.Errorf("%s/%s: non-positive energy", r.Arch, r.Benchmark.Name)
		}
		paraSum += r.ParaPJ
		spartaSum += r.SpartaPJ
	}
	// Aggregate claim: Para-CONV's allocation never costs more energy
	// overall (it fills the same cache, competitors first).
	if paraSum > spartaSum*1.01 {
		t.Errorf("Para-CONV aggregate energy %.0f exceeds SPARTA %.0f", paraSum, spartaSum)
	}
	out := FormatEnergy(rows)
	for _, want := range []string{"neurocube-16", "prime-16", "edge-16", "saving"} {
		if !strings.Contains(out, want) {
			t.Errorf("energy table missing %q", want)
		}
	}
	var buf bytes.Buffer
	if err := CSVEnergy(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != wantRows+1 {
		t.Errorf("csv lines = %d", lines)
	}
}

func TestRealGraphs(t *testing.T) {
	g, err := RealGraph("flower")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 10 {
		t.Errorf("flower graph has only %d vertices", g.NumNodes())
	}
	if _, err := RealGraph("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTable1RealShapes(t *testing.T) {
	rows, err := shared.Table1Real()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	for _, r := range rows {
		for i := range PECounts {
			if r.ParaCONV[i] >= r.Sparta[i] {
				t.Errorf("%s @%d PEs: Para-CONV %d >= SPARTA %d (real graphs)",
					r.Name, PECounts[i], r.ParaCONV[i], r.Sparta[i])
			}
		}
	}
	out := FormatTable1Real(rows)
	if !strings.Contains(out, "protein") {
		t.Error("formatted real table missing protein")
	}
}
