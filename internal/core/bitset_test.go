package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// randomSizedItems draws items with the given size and profit ranges,
// optionally forcing every size to a multiple of stride (to exercise
// the gcd rescale).
func randomSizedItems(rng *rand.Rand, n, maxSize, maxDR, stride int) []Item {
	items := make([]Item, n)
	for i := range items {
		size := 1 + rng.Intn(maxSize)
		if stride > 1 {
			size *= stride
		}
		items[i] = Item{
			Edge:   dag.EdgeID(i),
			Size:   size,
			DeltaR: rng.Intn(maxDR + 1),
		}
	}
	return items
}

// TestKnapsackMatchesFullTableBitForBit certifies the bitset solver
// against the textbook full-table solver on the strongest contract:
// not just equal profit but the identical chosen subset, across random
// instances including zero-profit items, oversize items and shared
// size factors.
func TestKnapsackMatchesFullTableBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		stride := 1
		if trial%3 == 0 {
			stride = 2 + rng.Intn(3) // exercise the gcd rescale
		}
		items := randomSizedItems(rng, rng.Intn(25), 6, 3, stride)
		capacity := rng.Intn(40 * stride)
		gotChosen, gotProfit := knapsack(items, capacity)
		wantChosen, wantProfit := KnapsackFullTable(items, capacity)
		if gotProfit != wantProfit {
			t.Fatalf("trial %d: bitset profit %d != full-table %d (items=%+v cap=%d)",
				trial, gotProfit, wantProfit, items, capacity)
		}
		for i := range items {
			if gotChosen[i] != wantChosen[i] {
				t.Fatalf("trial %d: chosen[%d] = %v, full table says %v (items=%+v cap=%d)",
					trial, i, gotChosen[i], wantChosen[i], items, capacity)
			}
		}
	}
}

// TestKnapsackIntoReusesBuffer checks the allocation-free entry point:
// stale true entries must be cleared, and the result must match the
// allocating path.
func TestKnapsackIntoReusesBuffer(t *testing.T) {
	items := []Item{
		{Edge: 0, Size: 2, DeltaR: 2},
		{Edge: 1, Size: 1, DeltaR: 1},
		{Edge: 2, Size: 3, DeltaR: 2},
	}
	chosen := []bool{true, true, true} // stale garbage from a prior solve
	profit, err := KnapsackInto(context.Background(), chosen, items, 3)
	if err != nil {
		t.Fatal(err)
	}
	if profit != 3 || !chosen[0] || !chosen[1] || chosen[2] {
		t.Fatalf("profit=%d chosen=%v, want 3 with items 0+1", profit, chosen)
	}
	if _, err := KnapsackInto(context.Background(), chosen[:2], items, 3); err == nil {
		t.Fatal("short chosen slice accepted")
	}
}

// TestKnapsackZeroSizeItems: costless positive profit is always taken;
// costless zero profit never is — in every solver.
func TestKnapsackZeroSizeItems(t *testing.T) {
	items := []Item{
		{Edge: 0, Size: 0, DeltaR: 4},
		{Edge: 1, Size: 2, DeltaR: 3},
		{Edge: 2, Size: 0, DeltaR: 0},
	}
	chosen, profit := knapsack(items, 2)
	if profit != 7 || !chosen[0] || !chosen[1] || chosen[2] {
		t.Fatalf("profit=%d chosen=%v, want 7 with items 0+1", profit, chosen)
	}
	if p := KnapsackProfit(items, 2); p != 7 {
		t.Fatalf("KnapsackProfit = %d, want 7", p)
	}
	if bf, err := BruteForce(items, 2); err != nil || bf != 7 {
		t.Fatalf("BruteForce = %d (%v), want 7", bf, err)
	}
}

// TestKnapsackEverythingFitsFastPath: when the competitors' total
// footprint fits, all positive-profit items are chosen — same as the
// full table's answer.
func TestKnapsackEverythingFitsFastPath(t *testing.T) {
	items := []Item{
		{Edge: 0, Size: 2, DeltaR: 1},
		{Edge: 1, Size: 3, DeltaR: 0}, // zero profit: never chosen
		{Edge: 2, Size: 1, DeltaR: 5},
	}
	chosen, profit := knapsack(items, 100)
	wantChosen, wantProfit := KnapsackFullTable(items, 100)
	if profit != wantProfit {
		t.Fatalf("profit %d != full table %d", profit, wantProfit)
	}
	for i := range items {
		if chosen[i] != wantChosen[i] {
			t.Fatalf("chosen[%d] = %v, full table %v", i, chosen[i], wantChosen[i])
		}
	}
	if !chosen[0] || chosen[1] || !chosen[2] {
		t.Fatalf("chosen = %v, want items 0 and 2", chosen)
	}
}

// TestKnapsackCancelled: a dead context aborts the solve with its
// error.
func TestKnapsackCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := randomSizedItems(rand.New(rand.NewSource(2)), 20, 5, 3, 1)
	if _, err := KnapsackInto(ctx, make([]bool, len(items)), items, 10); err == nil {
		t.Fatal("cancelled context did not abort the solve")
	}
}

// TestGreedyDeterministicUnderEqualDensities: permuting an item list
// whose densities tie must still cache the same edges (ascending edge
// ID), so allocation output is reproducible across runs regardless of
// input order.
func TestGreedyDeterministicUnderEqualDensities(t *testing.T) {
	// Four items, identical density 1, capacity for two of them.
	base := []Item{
		{Edge: 7, Size: 2, DeltaR: 2},
		{Edge: 1, Size: 2, DeltaR: 2},
		{Edge: 5, Size: 2, DeltaR: 2},
		{Edge: 3, Size: 2, DeltaR: 2},
	}
	wantEdges := map[dag.EdgeID]bool{1: true, 3: true}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	for _, perm := range perms {
		items := make([]Item, len(base))
		for i, p := range perm {
			items[i] = base[p]
		}
		chosen, profit := Greedy(items, 4)
		if profit != 4 {
			t.Fatalf("perm %v: profit = %d, want 4", perm, profit)
		}
		for i, c := range chosen {
			if c != wantEdges[items[i].Edge] {
				t.Fatalf("perm %v: edge %d chosen=%v; want lowest edge IDs cached", perm, items[i].Edge, c)
			}
		}
	}
}

// TestBranchAndBoundLargeTrafficNoOverflow: items whose ΔR x size
// products exceed 32-bit range must still order and bound correctly.
// (On 64-bit platforms the old int arithmetic happened to survive this
// magnitude; the int64 path makes it correct by construction and keeps
// 32-bit builds honest.)
func TestBranchAndBoundLargeTrafficNoOverflow(t *testing.T) {
	items := []Item{
		{Edge: 0, Size: 1 << 20, DeltaR: 1 << 20},
		{Edge: 1, Size: 1<<20 + 1, DeltaR: 1 << 20},
		{Edge: 2, Size: 3, DeltaR: 2},
	}
	const capacity = 1<<20 + 3
	want := KnapsackProfit(items, capacity)
	if got := BranchAndBound(items, capacity); got != want {
		t.Fatalf("B&B = %d, DP = %d", got, want)
	}
}

// TestAllocsKnapsackInto gates the pooled DP: after warm-up, a solve
// through the caller-buffer entry point must not allocate at all.
func TestAllocsKnapsackInto(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs without -race")
	}
	rng := rand.New(rand.NewSource(4))
	items := randomSizedItems(rng, 64, 8, 4, 1)
	const capacity = 200
	chosen := make([]bool, len(items))
	ctx := context.Background()
	// Warm the pool to its high-water mark.
	if _, err := KnapsackInto(ctx, chosen, items, capacity); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := KnapsackInto(ctx, chosen, items, capacity); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("KnapsackInto allocates %.1f objects per solve after warm-up; want 0", allocs)
	}
}

// TestAllocsKnapsackProfit gates the pooled rolling row.
func TestAllocsKnapsackProfit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs without -race")
	}
	rng := rand.New(rand.NewSource(6))
	items := randomSizedItems(rng, 64, 8, 4, 1)
	const capacity = 200
	KnapsackProfit(items, capacity) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		KnapsackProfit(items, capacity)
	})
	if allocs != 0 {
		t.Errorf("KnapsackProfit allocates %.1f objects per call after warm-up; want 0", allocs)
	}
}

// benchItems builds a dense instance shaped like the 1200-vertex
// workload's competitor list (the cross-package harness in
// internal/bench derives the real one from the pipeline; this keeps
// the in-package bench dependency-free).
func benchItems(n int) []Item {
	rng := rand.New(rand.NewSource(42))
	return randomSizedItems(rng, n, 8, 6, 1)
}

func BenchmarkKnapsackBitset(b *testing.B) {
	items := benchItems(1200)
	const capacity = 2048
	chosen := make([]bool, len(items))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KnapsackInto(ctx, chosen, items, capacity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKnapsackFullTable(b *testing.B) {
	items := benchItems(1200)
	const capacity = 2048
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KnapsackFullTable(items, capacity)
	}
}

func BenchmarkKnapsackProfitRolling(b *testing.B) {
	items := benchItems(1200)
	const capacity = 2048
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KnapsackProfit(items, capacity)
	}
}
