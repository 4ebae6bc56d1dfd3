package bench

import (
	"strings"
	"testing"
)

func TestPaperDataCoversSuite(t *testing.T) {
	for _, b := range Suite {
		if _, ok := PaperTable1[b.Name]; !ok {
			t.Errorf("PaperTable1 missing %q", b.Name)
		}
		if _, ok := PaperTable2[b.Name]; !ok {
			t.Errorf("PaperTable2 missing %q", b.Name)
		}
	}
	if len(PaperTable1) != len(Suite) || len(PaperTable2) != len(Suite) {
		t.Error("paper data has extra rows")
	}
}

func TestPaperDataInternallyConsistent(t *testing.T) {
	// The paper's own trends: Para < SPARTA everywhere, and Table 2
	// rows non-increasing with PEs.
	for name, row := range PaperTable1 {
		for i := 0; i < 3; i++ {
			if row.Para[i] >= row.Sparta[i] {
				t.Errorf("paper %s: Para %v >= SPARTA %v at index %d", name, row.Para[i], row.Sparta[i], i)
			}
		}
	}
	for name, row := range PaperTable2 {
		if row[1] > row[0] || row[2] > row[1] {
			t.Errorf("paper %s: R_max row %v not non-increasing", name, row)
		}
	}
}

func TestCheckTrendsAllHold(t *testing.T) {
	t1, err := shared.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := shared.Table2()
	if err != nil {
		t.Fatal(err)
	}
	f5, err := shared.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := shared.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	trends := CheckTrends(t1, t2, f5, f6)
	if len(trends) != 6 {
		t.Fatalf("%d trend checks, want 6", len(trends))
	}
	for _, tr := range trends {
		if !tr.Held {
			t.Errorf("trend %q did not hold", tr.Name)
		}
	}
	out := FormatTrends(trends)
	if strings.Contains(out, "FAIL") {
		t.Errorf("trend report contains failures:\n%s", out)
	}
	if !strings.Contains(out, "[ok  ]") {
		t.Errorf("trend report malformed:\n%s", out)
	}
}

func TestCheckTrendsDetectsViolations(t *testing.T) {
	// Fabricate data violating each trend and confirm detection.
	t1 := []Table1Row{{
		Benchmark: Benchmark{Name: "x"},
		Sparta:    []int{10, 10, 10},
		ParaCONV:  []int{20, 5, 5}, // loses at 16 PEs
	}}
	t2 := []Table2Row{
		{Benchmark: Benchmark{Name: "small"}, RMax: []int{5, 6, 7}}, // rises
		{Benchmark: Benchmark{Name: "big"}, RMax: []int{2, 2, 2}},   // smaller than "small"
	}
	f5 := []Fig5Row{{Benchmark: Benchmark{Name: "x"}, Normalized: []float64{0.2, 0.5, 0.9}}}
	f6 := []Fig6Row{{Benchmark: Benchmark{Name: "x"}, Cached: []int{9, 5, 5}}}
	trends := CheckTrends(t1, t2, f5, f6)
	heldCount := 0
	for _, tr := range trends {
		if tr.Held {
			heldCount++
		}
	}
	// Only the fig6 saturation check can hold on this data (5 == 5).
	if heldCount > 1 {
		t.Errorf("%d trends held on fabricated bad data:\n%s", heldCount, FormatTrends(trends))
	}
}

func TestCompareTables(t *testing.T) {
	t1, err := shared.Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := CompareTable1(t1)
	for _, want := range []string{"paper@16", "ours@64", "protein"} {
		if !strings.Contains(out, want) {
			t.Errorf("CompareTable1 missing %q", want)
		}
	}
	t2, err := shared.Table2()
	if err != nil {
		t.Fatal(err)
	}
	out2 := CompareTable2(t2)
	if !strings.Contains(out2, "paper@32") {
		t.Errorf("CompareTable2 malformed:\n%s", out2)
	}
}
