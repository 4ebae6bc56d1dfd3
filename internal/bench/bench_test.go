package bench

import (
	"bytes"
	"strings"
	"testing"
)

// shared is the serial runner the package's experiment tests share:
// one session, so the Table 1 solves are reused by the comparison,
// figure and latency tests.
var shared = NewRunner(nil, 1)

func TestSuiteMatchesPaperCounts(t *testing.T) {
	want := map[string][2]int{
		"cat": {9, 21}, "car": {13, 28}, "flower": {21, 51},
		"character-1": {46, 121}, "character-2": {52, 130},
		"image-compress": {70, 178}, "stock-predict": {83, 218},
		"string-matching": {102, 267}, "shortest-path": {191, 506},
		"speech-1": {247, 652}, "speech-2": {369, 981}, "protein": {546, 1449},
	}
	if len(Suite) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(Suite), len(want))
	}
	for _, b := range Suite {
		w, ok := want[b.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", b.Name)
			continue
		}
		if b.Vertices != w[0] || b.Edges != w[1] {
			t.Errorf("%s: declared %d/%d, paper says %d/%d", b.Name, b.Vertices, b.Edges, w[0], w[1])
		}
		g, err := b.Graph()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if g.NumNodes() != w[0] || g.NumEdges() != w[1] {
			t.Errorf("%s: generated %d/%d, want %d/%d", b.Name, g.NumNodes(), g.NumEdges(), w[0], w[1])
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("protein")
	if err != nil {
		t.Fatal(err)
	}
	if b.Vertices != 546 {
		t.Errorf("protein vertices = %d", b.Vertices)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "valid names") {
		t.Errorf("ByName(nope) err = %v", err)
	}
}

func TestGraphsAreDeterministic(t *testing.T) {
	b := Suite[3]
	g1, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Edges() {
		if g1.Edges()[i] != g2.Edges()[i] {
			t.Fatalf("edge %d differs between regenerations", i)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	rows, err := shared.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Suite) {
		t.Fatalf("%d rows, want %d", len(rows), len(Suite))
	}
	for _, r := range rows {
		for i := range PECounts {
			// Headline claim: Para-CONV beats SPARTA everywhere.
			if r.ParaCONV[i] >= r.Sparta[i] {
				t.Errorf("%s @%d PEs: Para-CONV %d >= SPARTA %d",
					r.Benchmark.Name, PECounts[i], r.ParaCONV[i], r.Sparta[i])
			}
		}
		// Para-CONV's time decreases with more PEs.
		for i := 1; i < len(PECounts); i++ {
			if r.ParaCONV[i] > r.ParaCONV[i-1] {
				t.Errorf("%s: Para-CONV time rose from %d to %d at %d PEs",
					r.Benchmark.Name, r.ParaCONV[i-1], r.ParaCONV[i], PECounts[i])
			}
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"cat", "protein", "average", "IMP%"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	rows, err := shared.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// R_max is non-increasing in the PE count for every benchmark.
	for _, r := range rows {
		for i := 1; i < len(r.RMax); i++ {
			if r.RMax[i] > r.RMax[i-1] {
				t.Errorf("%s: RMax rose from %d to %d at %d PEs",
					r.Benchmark.Name, r.RMax[i-1], r.RMax[i], PECounts[i])
			}
		}
	}
	// Larger applications need more retiming: the largest benchmark's
	// average exceeds the smallest's.
	if rows[len(rows)-1].Average() <= rows[0].Average() {
		t.Errorf("protein average RMax %.1f <= cat average %.1f",
			rows[len(rows)-1].Average(), rows[0].Average())
	}
	// At least one large benchmark shows a strict decrease (the
	// paper's capacity trend).
	strict := false
	for _, r := range rows[6:] {
		if r.RMax[len(r.RMax)-1] < r.RMax[0] {
			strict = true
		}
	}
	if !strict {
		t.Error("no large benchmark shows RMax strictly decreasing with PEs")
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "average") || !strings.Contains(out, "16-core") {
		t.Errorf("formatted table 2 malformed:\n%s", out)
	}
}

func TestFig5Shapes(t *testing.T) {
	rows, err := shared.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Per-iteration time decreases (weakly) with more PEs.
		for i := 1; i < len(r.Normalized); i++ {
			if r.Normalized[i] > r.Normalized[i-1]+1e-9 {
				t.Errorf("%s: normalized time rose from %.3f to %.3f at %d PEs",
					r.Benchmark.Name, r.Normalized[i-1], r.Normalized[i], PECounts[i])
			}
		}
		// Para-CONV on 64 PEs beats the baseline on 64 PEs.
		if last := r.Normalized[len(r.Normalized)-1]; last >= 1 {
			t.Errorf("%s: Para-CONV@64 normalized %.3f >= baseline", r.Benchmark.Name, last)
		}
	}
	if out := FormatFig5(rows); !strings.Contains(out, "64 PEs") {
		t.Errorf("formatted fig5 malformed:\n%s", out)
	}
}

func TestFig6Shapes(t *testing.T) {
	rows, err := shared.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Cached counts never decrease with more capacity, and never
		// exceed the edge count.
		for i := 1; i < len(r.Cached); i++ {
			if r.Cached[i] < r.Cached[i-1] {
				t.Errorf("%s: cached fell from %d to %d at %d PEs",
					r.Benchmark.Name, r.Cached[i-1], r.Cached[i], PECounts[i])
			}
		}
		for _, c := range r.Cached {
			if c > r.Benchmark.Edges {
				t.Errorf("%s: cached %d exceeds |E| %d", r.Benchmark.Name, c, r.Benchmark.Edges)
			}
		}
	}
	// The paper's saturation observation: for several benchmarks the
	// 32-PE and 64-PE counts coincide while 16->32 grew.
	saturated := 0
	for _, r := range rows {
		if r.Cached[2] == r.Cached[1] && r.Cached[1] >= r.Cached[0] {
			saturated++
		}
	}
	if saturated < 3 {
		t.Errorf("only %d benchmarks saturate at 32 PEs; the paper observes this for most", saturated)
	}
	if out := FormatFig6(rows); !strings.Contains(out, "32 PEs") {
		t.Errorf("formatted fig6 malformed:\n%s", out)
	}
}

func TestMovement(t *testing.T) {
	rows, err := shared.Movement(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Suite) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpartaEDRAM < 0 || r.ParaEDRAM < 0 {
			t.Errorf("%s: negative traffic", r.Benchmark.Name)
		}
		if r.ParaEnergyPJ <= 0 || r.SpartaEnergyPJ <= 0 {
			t.Errorf("%s: zero energy", r.Benchmark.Name)
		}
	}
	if out := FormatMovement(rows); !strings.Contains(out, "eDRAM ratio") {
		t.Error("movement table malformed")
	}
}

func TestCSVWriters(t *testing.T) {
	t1, err := shared.Table1()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := CSVTable1(&buf, t1); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(Suite)+1 {
		t.Errorf("table1 csv has %d lines", lines)
	}

	t2, err := shared.Table2()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := CSVTable2(&buf, t2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "benchmark,rmax_16") {
		t.Errorf("table2 csv header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}

	f5, err := shared.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := CSVFig5(&buf, f5); err != nil {
		t.Fatal(err)
	}
	f6, err := shared.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := CSVFig6(&buf, f6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cached_64") {
		t.Error("fig6 csv missing header")
	}
}

func TestScalability(t *testing.T) {
	rows, err := shared.Scalability(32, []int{128, 512, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratio >= 1 {
			t.Errorf("|V|=%d: Para-CONV ratio %.3f >= 1", r.Vertices, r.Ratio)
		}
		if r.RMax <= 0 || r.Period <= 0 {
			t.Errorf("|V|=%d: degenerate plan (RMax=%d period=%d)", r.Vertices, r.RMax, r.Period)
		}
	}
	// R_max keeps growing with scale.
	if rows[2].RMax <= rows[0].RMax {
		t.Errorf("RMax did not grow with size: %d -> %d", rows[0].RMax, rows[2].RMax)
	}
	out := FormatScalability(rows, 32)
	if !strings.Contains(out, "Para/SPARTA") {
		t.Error("scalability table malformed")
	}
}

func TestScalabilityDefaultSizes(t *testing.T) {
	rows, err := shared.Scalability(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[4].Vertices != 2048 {
		t.Errorf("default sizes wrong: %+v", rows)
	}
}

func TestCaseMix(t *testing.T) {
	rows, err := shared.CaseMix(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Suite) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		total := 0
		for _, c := range r.Counts {
			total += c
		}
		if total != r.Benchmark.Edges {
			t.Errorf("%s: %d classified, |E| = %d", r.Benchmark.Name, total, r.Benchmark.Edges)
		}
		// Tiny graphs spread across 16 PEs leave every transfer a
		// comfortable window (all case 1/4); from character-1 up the
		// kernel is contended and the DP has real work.
		if r.Benchmark.Vertices >= 46 && r.Profitable() == 0 {
			t.Errorf("%s: no profitable IPRs; the DP would be vacuous", r.Benchmark.Name)
		}
	}
	out := FormatCaseMix(rows)
	if !strings.Contains(out, "profitable") || !strings.Contains(out, "case5") {
		t.Error("case-mix table malformed")
	}
}

// TestGoldenDeterminism locks headline outputs: the suite is seeded,
// so any change to these values signals an intentional model change
// (update the goldens deliberately) or an accidental regression.
func TestGoldenDeterminism(t *testing.T) {
	t2, err := shared.Table2()
	if err != nil {
		t.Fatal(err)
	}
	goldenRMax := map[string][3]int{
		"cat":     {3, 3, 3},
		"protein": {16, 16, 14},
	}
	for _, r := range t2 {
		want, ok := goldenRMax[r.Benchmark.Name]
		if !ok {
			continue
		}
		for i := range want {
			if r.RMax[i] != want[i] {
				t.Errorf("golden drift: %s RMax[%d] = %d, want %d",
					r.Benchmark.Name, i, r.RMax[i], want[i])
			}
		}
	}
	t1, err := shared.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t1 {
		if r.Benchmark.Name == "cat" {
			if got := [3]int{r.Sparta[0], r.Sparta[1], r.Sparta[2]}; got != [3]int{1500, 1500, 1500} {
				t.Errorf("golden drift: cat SPARTA = %v", got)
			}
		}
	}
}

func TestWriteReport(t *testing.T) {
	var buf bytes.Buffer
	if err := shared.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Para-CONV reproduction report",
		"## Table 1", "## Table 2", "## Figure 5", "## Figure 6",
		"trend checklist", "case mix", "Scalability", "Sensitivity", "Energy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Error("report contains a failed trend")
	}
	// Determinism: a second run produces the identical report.
	var buf2 bytes.Buffer
	if err := shared.WriteReport(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("report is not deterministic")
	}
}

func TestLatencyStudy(t *testing.T) {
	rows, err := shared.Latency(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Suite) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// The structural trade-off: Para-CONV's throughput beats the
		// baseline's everywhere...
		if r.ParaThroughput <= r.SpartaThroughput {
			t.Errorf("%s: Para throughput %.4f <= SPARTA %.4f",
				r.Benchmark.Name, r.ParaThroughput, r.SpartaThroughput)
		}
		// ...and a break-even batch size exists and is finite.
		be := r.BreakEvenIterations()
		if be < 1 {
			t.Errorf("%s: no break-even batch (%d)", r.Benchmark.Name, be)
		}
		if r.ParaLatency <= 0 || r.SpartaLatency <= 0 {
			t.Errorf("%s: degenerate latencies", r.Benchmark.Name)
		}
	}
	out := FormatLatency(rows)
	if !strings.Contains(out, "break-even") {
		t.Error("latency table malformed")
	}
}

func TestCharts(t *testing.T) {
	f5, err := shared.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	out := ChartFig5(f5)
	if !strings.Contains(out, "█") || !strings.Contains(out, "64 PEs") {
		t.Error("fig5 chart malformed")
	}
	if lines := strings.Count(out, "\n"); lines != len(Suite)*len(PECounts) {
		t.Errorf("fig5 chart has %d lines, want %d", lines, len(Suite)*len(PECounts))
	}
	f6, err := shared.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	out6 := ChartFig6(f6)
	if !strings.Contains(out6, "protein") {
		t.Error("fig6 chart malformed")
	}
}

func TestBarChartEdgeCases(t *testing.T) {
	// All-zero values must not divide by zero; tiny positives get at
	// least one block.
	out := barChart([]string{"a"}, [][]float64{{0, 0.0001}}, []string{"x", "y"}, 5, func(v float64) string { return "v" })
	if !strings.Contains(out, "█") {
		t.Error("tiny positive value lost its bar")
	}
	if strings.Count(out, "\n") != 2 {
		t.Errorf("chart lines = %d", strings.Count(out, "\n"))
	}
}
