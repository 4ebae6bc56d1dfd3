package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Edge:   dag.EdgeID(i),
			Size:   1 + rng.Intn(5),
			DeltaR: 1 + rng.Intn(2),
		}
	}
	return items
}

func TestKnapsackProfitMatchesTableDP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		items := randomItems(rng, rng.Intn(30))
		cap := rng.Intn(40)
		_, table := knapsack(items, cap)
		rolling := KnapsackProfit(items, cap)
		if table != rolling {
			t.Fatalf("trial %d: table DP %d != rolling DP %d", trial, table, rolling)
		}
	}
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		items := randomItems(rng, rng.Intn(14))
		cap := rng.Intn(25)
		bb := BranchAndBound(items, cap)
		bf, err := BruteForce(items, cap)
		if err != nil {
			t.Fatal(err)
		}
		if bb != bf {
			t.Fatalf("trial %d: B&B %d != brute force %d (items=%+v cap=%d)", trial, bb, bf, items, cap)
		}
	}
}

func TestThreeSolversAgreeProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		items := randomItems(rng, rng.Intn(40))
		cap := int(capRaw % 64)
		_, dp := knapsack(items, cap)
		return dp == KnapsackProfit(items, cap) && dp == BranchAndBound(items, cap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSolversEdgeCases(t *testing.T) {
	if KnapsackProfit(nil, 10) != 0 {
		t.Error("empty items")
	}
	if KnapsackProfit([]Item{{Size: 1, DeltaR: 3}}, 0) != 0 {
		t.Error("zero capacity")
	}
	if BranchAndBound(nil, 10) != 0 {
		t.Error("B&B empty items")
	}
	if got := BranchAndBound([]Item{{Size: 2, DeltaR: 7}}, 1); got != 0 {
		t.Errorf("B&B oversize item = %d, want 0", got)
	}
	if got := BranchAndBound([]Item{{Size: 2, DeltaR: 7}}, 2); got != 7 {
		t.Errorf("B&B single fit = %d", got)
	}
}

func TestBranchAndBoundHandlesLargeInstances(t *testing.T) {
	// 200 items would be 2^200 subsets for brute force; B&B with the
	// fractional bound must finish fast and agree with the DP.
	rng := rand.New(rand.NewSource(9))
	items := randomItems(rng, 200)
	const cap = 150
	_, dp := knapsack(items, cap)
	if bb := BranchAndBound(items, cap); bb != dp {
		t.Fatalf("B&B %d != DP %d on large instance", bb, dp)
	}
}
