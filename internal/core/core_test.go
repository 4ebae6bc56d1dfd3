package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
)

// knapsack is KnapsackInto with a fresh chosen slice and a context
// that never cancels, so neither of its errors can occur.
func knapsack(items []Item, capacity int) (chosen []bool, profit int) {
	chosen = make([]bool, len(items))
	profit, _ = KnapsackInto(context.Background(), chosen, items, capacity)
	return chosen, profit
}

// optimize is OptimizeInto into a fresh Allocation.
func optimize(g *dag.Graph, classes []retime.EdgeClass, tm retime.Timing, capacity int) (Allocation, error) {
	var alloc Allocation
	err := OptimizeInto(context.Background(), &alloc, g, classes, tm, capacity)
	return alloc, err
}

// apply is retime.ApplyInto into a fresh Result.
func apply(g *dag.Graph, classes []retime.EdgeClass, a retime.Assignment, period int) (retime.Result, error) {
	var res retime.Result
	err := retime.ApplyInto(&res, g, classes, a, period, nil)
	return res, err
}

func TestKnapsackBasics(t *testing.T) {
	items := []Item{
		{Edge: 0, Size: 2, DeltaR: 2},
		{Edge: 1, Size: 1, DeltaR: 1},
		{Edge: 2, Size: 3, DeltaR: 2},
	}
	chosen, profit := knapsack(items, 3)
	if profit != 3 {
		t.Fatalf("profit = %d, want 3 (items 0+1)", profit)
	}
	if !chosen[0] || !chosen[1] || chosen[2] {
		t.Errorf("chosen = %v, want [true true false]", chosen)
	}
}

func TestKnapsackZeroCapacityOrEmpty(t *testing.T) {
	if _, p := knapsack(nil, 10); p != 0 {
		t.Error("empty items should yield zero profit")
	}
	items := []Item{{Size: 1, DeltaR: 5}}
	if _, p := knapsack(items, 0); p != 0 {
		t.Error("zero capacity should yield zero profit")
	}
	chosen, p := knapsack(items, 1)
	if p != 5 || !chosen[0] {
		t.Errorf("single item fit: profit=%d chosen=%v", p, chosen)
	}
}

func TestKnapsackItemBiggerThanCapacity(t *testing.T) {
	items := []Item{{Size: 5, DeltaR: 9}, {Size: 2, DeltaR: 1}}
	chosen, p := knapsack(items, 4)
	if p != 1 || chosen[0] || !chosen[1] {
		t.Errorf("profit=%d chosen=%v, want only the small item", p, chosen)
	}
}

func TestKnapsackMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(12)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Edge:   dag.EdgeID(i),
				Size:   1 + rng.Intn(5),
				DeltaR: 1 + rng.Intn(2),
			}
		}
		cap := rng.Intn(15)
		_, got := knapsack(items, cap)
		want, err := BruteForce(items, cap)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: Knapsack = %d, BruteForce = %d (items=%+v cap=%d)", trial, got, want, items, cap)
		}
	}
}

func TestKnapsackChosenConsistent(t *testing.T) {
	// The reconstructed subset must actually realize the reported
	// profit within capacity.
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Size: 1 + rng.Intn(4), DeltaR: rng.Intn(3)}
		}
		cap := int(capRaw % 32)
		chosen, profit := knapsack(items, cap)
		size, sum := 0, 0
		for i, c := range chosen {
			if c {
				size += items[i].Size
				sum += items[i].DeltaR
			}
		}
		return sum == profit && size <= cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKnapsackMonotoneInCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Size: 1 + rng.Intn(4), DeltaR: 1 + rng.Intn(2)}
		}
		prev := 0
		for cap := 0; cap < 20; cap++ {
			_, p := knapsack(items, cap)
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySuboptimalExample(t *testing.T) {
	// Density order picks the 1-unit item first (density 2), leaving
	// no room for the pair of 2-unit items (total 4 > optimal 3... )
	// classic gap instance: capacity 4.
	items := []Item{
		{Edge: 0, Size: 3, DeltaR: 5}, // density 1.67
		{Edge: 1, Size: 2, DeltaR: 4}, // density 2.0
		{Edge: 2, Size: 2, DeltaR: 4}, // density 2.0
	}
	_, gp := Greedy(items, 4)
	_, kp := knapsack(items, 4)
	if gp != 8 || kp != 8 {
		// Both find 8 here; use a sharper instance.
		t.Logf("first instance: greedy=%d dp=%d", gp, kp)
	}
	items2 := []Item{
		{Edge: 0, Size: 1, DeltaR: 2}, // density 2: greedy grabs it
		{Edge: 1, Size: 2, DeltaR: 3},
		{Edge: 2, Size: 2, DeltaR: 3},
	}
	_, gp2 := Greedy(items2, 4)
	_, kp2 := knapsack(items2, 4)
	if kp2 != 6 {
		t.Fatalf("DP profit = %d, want 6", kp2)
	}
	if gp2 >= kp2 {
		t.Fatalf("greedy = %d not below DP = %d; instance should separate them", gp2, kp2)
	}
}

func TestGreedyNeverBeatsKnapsack(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(18)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Size: 1 + rng.Intn(4), DeltaR: 1 + rng.Intn(2)}
		}
		cap := int(capRaw % 24)
		_, gp := Greedy(items, cap)
		_, kp := knapsack(items, cap)
		return gp <= kp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForceRejectsLargeInput(t *testing.T) {
	if _, err := BruteForce(make([]Item, 30), 5); err == nil {
		t.Fatal("BruteForce over 24 items did not return an error")
	}
}

// buildClassifiedGraph returns a 3-vertex chain with a compact
// all-in-slot-one timing so both edges are positive-ΔR competitors.
func buildClassifiedGraph(t *testing.T) (*dag.Graph, []retime.EdgeClass, retime.Timing) {
	t.Helper()
	g := dag.New("c")
	for i := 0; i < 3; i++ {
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
	}
	g.AddEdge(dag.Edge{From: 0, To: 1, Size: 1, CacheTime: 0, EDRAMTime: 1})
	g.AddEdge(dag.Edge{From: 1, To: 2, Size: 2, CacheTime: 0, EDRAMTime: 1})
	tm := retime.Timing{Start: []int{0, 0, 0}, Finish: []int{1, 1, 1}, Period: 1}
	classes, err := retime.Classify(g, tm)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	return g, classes, tm
}

func TestBuildItemsFiltersAndSorts(t *testing.T) {
	g, classes, tm := buildClassifiedGraph(t)
	items, err := BuildItems(g, classes, tm)
	if err != nil {
		t.Fatal(err)
	}
	// Compact timing: rc=1 (fits in producer tail of len 0? finish=1,
	// period=1 -> tail=0; start=0 -> head=0; transfer 0 fits: 0<=0 ->
	// rrv 1 via transfer<=period-finish? 0<=0 yes) re: transfer 1 >
	// tail 0, > head 0 -> 2.  ΔR=1 for both edges.
	if len(items) != 2 {
		t.Fatalf("len(items) = %d, want 2 competitors", len(items))
	}
	for _, it := range items {
		if it.DeltaR != 1 {
			t.Errorf("item %v ΔR = %d, want 1", it.Edge, it.DeltaR)
		}
	}
	if items[0].Edge > items[1].Edge {
		t.Error("items not sorted deterministically")
	}
}

func TestBuildItemsErrors(t *testing.T) {
	g, classes, tm := buildClassifiedGraph(t)
	if _, err := BuildItems(g, classes[:1], tm); err == nil {
		t.Error("short classification accepted")
	}
	bad := tm
	bad.Period = 0
	if _, err := BuildItems(g, classes, bad); err == nil {
		t.Error("invalid timing accepted")
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	g, classes, tm := buildClassifiedGraph(t)
	// Capacity 1: only edge 0 (size 1) fits.
	alloc, err := optimize(g, classes, tm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Profit != 1 || alloc.CachedCount != 1 || alloc.CacheUsed != 1 {
		t.Errorf("alloc = %+v, want profit 1, one cached, one unit used", alloc)
	}
	if alloc.Assignment[0] != pim.InCache || alloc.Assignment[1] != pim.InEDRAM {
		t.Errorf("assignment = %v, want edge0 cached", alloc.Assignment)
	}
	if alloc.Competitors != 2 {
		t.Errorf("competitors = %d, want 2", alloc.Competitors)
	}

	// Capacity 3: both fit.
	alloc3, err := optimize(g, classes, tm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if alloc3.Profit != 2 || alloc3.CachedCount != 2 {
		t.Errorf("alloc3 = %+v, want both cached", alloc3)
	}

	// Capacity 0: all eDRAM.
	alloc0, err := optimize(g, classes, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc0.Profit != 0 || alloc0.CachedCount != 0 {
		t.Errorf("alloc0 = %+v, want nothing cached", alloc0)
	}
}

func TestOptimizeRejectsNegativeCapacity(t *testing.T) {
	g, classes, tm := buildClassifiedGraph(t)
	if _, err := optimize(g, classes, tm, -1); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("err = %v, want capacity error", err)
	}
}

// TestOptimizeReducesRMax closes the loop with retime: the allocation
// chosen by the DP must yield an RMax no worse than all-eDRAM, and
// with enough capacity must match all-cache.
func TestOptimizeReducesRMax(t *testing.T) {
	g, classes, tm := buildClassifiedGraph(t)
	resE, err := apply(g, classes, retime.AllEDRAM(g.NumEdges()), tm.Period)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := apply(g, classes, retime.AllCache(g.NumEdges()), tm.Period)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := optimize(g, classes, tm, 99)
	if err != nil {
		t.Fatal(err)
	}
	resOpt, err := apply(g, classes, alloc.Assignment, tm.Period)
	if err != nil {
		t.Fatal(err)
	}
	if resOpt.RMax > resE.RMax {
		t.Errorf("optimized RMax %d worse than all-eDRAM %d", resOpt.RMax, resE.RMax)
	}
	if resOpt.RMax != resC.RMax {
		t.Errorf("with unlimited capacity, optimized RMax %d should equal all-cache %d", resOpt.RMax, resC.RMax)
	}
}

// TestBuildItemsOrderMatchesSort: the counting sort and its fallbacks
// give the (Deadline, Edge) order of a comparison sort, over random
// timings whose period is short (counting), long (fallback) or whose
// classes come out of edge order (fallback).
func TestBuildItemsOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		g := dag.New("items")
		for i := 0; i < n; i++ {
			g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
		}
		for i := 0; i < 3*n; i++ {
			from := rng.Intn(n - 1)
			g.AddEdge(dag.Edge{From: dag.NodeID(from), To: dag.NodeID(from + 1 + rng.Intn(n-1-from)), Size: 1 + rng.Intn(4)})
		}
		period := 1 + rng.Intn(4*g.NumEdges())
		if trial%3 == 0 {
			period *= 50
		}
		tm := retime.Timing{Start: make([]int, n), Finish: make([]int, n), Period: period}
		for v := range tm.Start {
			tm.Start[v] = rng.Intn(period + 1)
			tm.Finish[v] = tm.Start[v] + rng.Intn(period-tm.Start[v]+1)
		}
		classes := make([]retime.EdgeClass, g.NumEdges())
		for i := range classes {
			classes[i] = retime.EdgeClass{Edge: dag.EdgeID(i), RCache: rng.Intn(3), REDRAM: rng.Intn(4)}
		}
		if trial%5 == 0 {
			rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		}
		var want []Item
		for _, c := range classes {
			if c.DeltaR() > 0 {
				e := g.Edge(c.Edge)
				want = append(want, Item{Edge: c.Edge, Deadline: tm.Start[e.To], Size: e.Size, DeltaR: c.DeltaR()})
			}
		}
		slices.SortFunc(want, func(a, b Item) int {
			if a.Deadline != b.Deadline {
				return a.Deadline - b.Deadline
			}
			return int(a.Edge - b.Edge)
		})
		got, err := BuildItems(g, classes, tm)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (period %d, %d edges): BuildItems = %v, want %v", trial, period, g.NumEdges(), got, want)
		}
	}
}
