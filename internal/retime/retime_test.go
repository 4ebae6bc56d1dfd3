package retime

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/pim"
)

// chain builds 0->1->2 with Exec 1 and the given edge times.
func chain(cacheT, edramT int) *dag.Graph {
	g := dag.New("chain")
	for i := 0; i < 3; i++ {
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
	}
	g.AddEdge(dag.Edge{From: 0, To: 1, Size: 1, CacheTime: cacheT, EDRAMTime: edramT})
	g.AddEdge(dag.Edge{From: 1, To: 2, Size: 1, CacheTime: cacheT, EDRAMTime: edramT})
	return g
}

// compactTiming packs all three chain vertices at time [0,1) with
// period p — the fully-compacted objective schedule where every
// dependency must hop iterations.
func compactTiming(n, p int) Timing {
	tm := Timing{Start: make([]int, n), Finish: make([]int, n), Period: p}
	for i := 0; i < n; i++ {
		tm.Finish[i] = 1
	}
	return tm
}

func TestMinRelative(t *testing.T) {
	cases := []struct {
		finish, transfer, start, period, want int
	}{
		{1, 0, 2, 3, 0}, // producer finishes before consumer starts
		{1, 0, 1, 3, 0}, // exactly on time
		{1, 1, 1, 3, 1}, // overshoots start; fits in producer tail
		{3, 0, 0, 3, 1}, // finish at period end, consumer at 0
		{3, 3, 0, 3, 2}, // worst legal case: two hops (Theorem 3.1)
		{2, 1, 1, 4, 1}, // fits in producer tail of length 2
		{1, 3, 0, 3, 2}, // transfer too big for tail or head: dedicated iteration
		{0, 0, 5, 9, 0}, // plenty of slack
		{2, 2, 3, 4, 1}, // fits in consumer head (start 3 >= 2)
	}
	for _, c := range cases {
		got := MinRelative(c.finish, c.transfer, c.start, c.period)
		if got != c.want {
			t.Errorf("MinRelative(f=%d,t=%d,s=%d,p=%d) = %d, want %d",
				c.finish, c.transfer, c.start, c.period, got, c.want)
		}
	}
}

func TestTheorem31Bound(t *testing.T) {
	// For any finish <= p, transfer <= p, start >= 0 the minimal rrv
	// never exceeds 2 — the upper bound of Theorem 3.1.
	f := func(fRaw, tRaw, sRaw, pRaw uint8) bool {
		p := int(pRaw%20) + 1
		finish := int(fRaw) % (p + 1)
		transfer := int(tRaw) % (p + 1)
		start := int(sRaw) % p
		r := MinRelative(finish, transfer, start, p)
		return r >= 0 && r <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyCases(t *testing.T) {
	// One edge, vertices at controlled positions; sweep placements of
	// start/finish/transfer to hit all six cases.
	build := func(cacheT, edramT, finish0, start1, period int) (*dag.Graph, Timing) {
		g := dag.New("c")
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
		g.AddEdge(dag.Edge{From: 0, To: 1, Size: 1, CacheTime: cacheT, EDRAMTime: edramT})
		tm := Timing{
			Start:  []int{finish0 - 1, start1},
			Finish: []int{finish0, start1 + 1},
			Period: period,
		}
		return g, tm
	}
	cases := []struct {
		name                    string
		cacheT, edramT          int
		finish0, start1, period int
		want                    Case
		wantDelta               int
	}{
		{"case1 slack", 0, 1, 1, 3, 4, Case1, 0},
		{"case2", 0, 2, 1, 2, 4, Case2, 1},
		{"case3", 0, 4, 1, 1, 4, Case3, 2},
		{"case4", 1, 2, 2, 1, 4, Case4, 0},
		{"case5", 0, 4, 4, 3, 4, Case5, 1},
		{"case6", 4, 4, 4, 3, 4, Case6, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, tm := build(c.cacheT, c.edramT, c.finish0, c.start1, c.period)
			classes, err := Classify(g, tm)
			if err != nil {
				t.Fatalf("Classify: %v", err)
			}
			if classes[0].Class != c.want {
				t.Errorf("class = %v (rc=%d re=%d), want %v",
					classes[0].Class, classes[0].RCache, classes[0].REDRAM, c.want)
			}
			if classes[0].DeltaR() != c.wantDelta {
				t.Errorf("ΔR = %d, want %d", classes[0].DeltaR(), c.wantDelta)
			}
		})
	}
}

func TestClassifyRejectsOversizedTransfer(t *testing.T) {
	g := chain(0, 9)
	tm := compactTiming(3, 2) // period 2 < eDRAM transfer 9
	if _, err := Classify(g, tm); err == nil || !strings.Contains(err.Error(), "Theorem 3.1") {
		t.Fatalf("Classify err = %v, want Theorem 3.1 violation", err)
	}
}

func TestTimingValidate(t *testing.T) {
	if err := (Timing{Period: 0}).Validate(0); err == nil {
		t.Error("zero period accepted")
	}
	if err := (Timing{Start: []int{0}, Finish: []int{1}, Period: 2}).Validate(2); err == nil {
		t.Error("short timing accepted")
	}
	if err := (Timing{Start: []int{3}, Finish: []int{1}, Period: 4}).Validate(1); err == nil {
		t.Error("finish < start accepted")
	}
	if err := (Timing{Start: []int{0}, Finish: []int{9}, Period: 4}).Validate(1); err == nil {
		t.Error("finish beyond period accepted")
	}
}

func TestApplyChainAllEDRAM(t *testing.T) {
	g := chain(0, 1)
	tm := compactTiming(3, 1)
	res, classes, err := AnalyzeAssignment(g, tm, AllEDRAM(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	// Both edges: finish 1, start 0 mod period 1, transfer 1 ->
	// rrv = ceil((1+1-0)/1) = 2.  Chain of two such edges: R = 4,2,0.
	for i, c := range classes {
		if c.REDRAM != 2 {
			t.Errorf("edge %d REDRAM = %d, want 2", i, c.REDRAM)
		}
	}
	if res.RMax != 4 {
		t.Errorf("RMax = %d, want 4 (two stacked rrv-2 hops)", res.RMax)
	}
	wantR := []int{4, 2, 0}
	for i, w := range wantR {
		if res.R[i] != w {
			t.Errorf("R[%d] = %d, want %d", i, res.R[i], w)
		}
	}
	if err := CheckLegal(g, res); err != nil {
		t.Errorf("CheckLegal: %v", err)
	}
	if res.Prologue() != 4*tm.Period {
		t.Errorf("Prologue = %d, want %d", res.Prologue(), 4*tm.Period)
	}
}

func TestApplyCacheReducesRMax(t *testing.T) {
	g := chain(0, 1)
	tm := compactTiming(3, 1)
	resE, _, err := AnalyzeAssignment(g, tm, AllEDRAM(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	resC, _, err := AnalyzeAssignment(g, tm, AllCache(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if resC.RMax >= resE.RMax {
		t.Errorf("cache RMax %d >= eDRAM RMax %d; caching should reduce retiming", resC.RMax, resE.RMax)
	}
	if err := CheckLegal(g, resC); err != nil {
		t.Errorf("CheckLegal cache: %v", err)
	}
}

func TestApplyDiamond(t *testing.T) {
	// Diamond 0->{1,2}->3, compact schedule: everyone in slot [0,1),
	// period 1, all eDRAM with transfer 1 -> every edge rrv = 2,
	// so R = {4, 2, 2, 0}.
	g := dag.New("d")
	for i := 0; i < 4; i++ {
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
	}
	for _, p := range [][2]dag.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		g.AddEdge(dag.Edge{From: p[0], To: p[1], Size: 1, CacheTime: 0, EDRAMTime: 1})
	}
	tm := compactTiming(4, 1)
	res, _, err := AnalyzeAssignment(g, tm, AllEDRAM(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 2, 2, 0}
	for i, w := range want {
		if res.R[i] != w {
			t.Errorf("R[%d] = %d, want %d", i, res.R[i], w)
		}
	}
}

func TestApplySizeMismatch(t *testing.T) {
	g := chain(0, 1)
	var res Result
	if err := ApplyInto(&res, g, nil, nil, 1, nil); err == nil {
		t.Error("ApplyInto with empty classes accepted")
	}
	classes := []EdgeClass{{}, {}}
	if err := ApplyInto(&res, g, classes, Assignment{pim.InCache}, 1, nil); err == nil {
		t.Error("ApplyInto with short assignment accepted")
	}
	if err := ApplyInto(&res, g, classes, AllCache(2), 0, nil); err == nil {
		t.Error("ApplyInto with zero period accepted")
	}
}

func TestCheckLegalDetectsViolation(t *testing.T) {
	g := chain(0, 1)
	res := Result{
		R:      []int{0, 0, 0},
		REdge:  []int{1, 0},
		RMax:   0,
		Period: 1,
	}
	if err := CheckLegal(g, res); err == nil || !strings.Contains(err.Error(), "rrv") {
		t.Errorf("CheckLegal = %v, want rrv violation", err)
	}
	res2 := Result{R: []int{-1, 0, 0}, REdge: []int{0, 0}}
	if err := CheckLegal(g, res2); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("CheckLegal = %v, want negative retiming", err)
	}
	if err := CheckLegal(g, Result{}); err == nil {
		t.Error("CheckLegal on empty result accepted")
	}
}

func TestCaseString(t *testing.T) {
	if Case3.String() != "case3" {
		t.Errorf("Case3.String() = %q", Case3.String())
	}
	if got := Case(0).String(); !strings.Contains(got, "0") {
		t.Errorf("invalid case string = %q", got)
	}
}

// Property: for random timings, ApplyInto always yields a legal retiming
// whose RMax equals the true maximum, and promoting everything to
// cache never increases RMax.
func TestApplyLegalAndMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, tm := randomTimedGraph(seed)
		resE, classes, err := AnalyzeAssignment(g, tm, AllEDRAM(g.NumEdges()))
		if err != nil {
			return false
		}
		if CheckLegal(g, resE) != nil {
			return false
		}
		var resC Result
		if err := ApplyInto(&resC, g, classes, AllCache(g.NumEdges()), tm.Period, nil); err != nil || CheckLegal(g, resC) != nil {
			return false
		}
		if resC.RMax > resE.RMax {
			return false
		}
		max := 0
		for _, r := range resE.R {
			if r > max {
				max = r
			}
		}
		return max == resE.RMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomTimedGraph builds a small random DAG plus a consistent compact
// timing for property tests.
func randomTimedGraph(seed int64) (*dag.Graph, Timing) {
	state := uint64(seed)*0x9E3779B97F4A7C15 + 1
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	n := 3 + next(10)
	period := 2 + next(4)
	g := dag.New("rt")
	tm := Timing{Period: period}
	for i := 0; i < n; i++ {
		exec := 1 + next(period-1)
		start := next(period - exec + 1)
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: exec})
		tm.Start = append(tm.Start, start)
		tm.Finish = append(tm.Finish, start+exec)
	}
	edges := next(2 * n)
	seen := map[[2]int]bool{}
	for k := 0; k < edges; k++ {
		a := next(n - 1)
		b := a + 1 + next(n-a-1)
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		ct := next(2)
		g.AddEdge(dag.Edge{
			From: dag.NodeID(a), To: dag.NodeID(b), Size: 1 + next(2),
			CacheTime: ct, EDRAMTime: minInt(ct+1+next(3), period),
		})
	}
	return g, tm
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
