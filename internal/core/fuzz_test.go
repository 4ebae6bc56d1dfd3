package core

import (
	"testing"

	"repro/internal/dag"
)

// FuzzKnapsackEquivalence asserts that the three independent solvers —
// the production bitset DP, the rolling-row profit DP and the
// branch-and-bound oracle — agree on every random item set the fuzzer
// produces, and that the bitset solver's reconstructed subset is
// bit-for-bit the full table's and actually realizes the claimed
// profit within capacity.
//
// The item set is decoded from the raw fuzz bytes two bytes per item:
// size in 1..32 (with a shared factor every so often, to drive the gcd
// rescale) and ΔR in 0..15.  The first byte picks the capacity.
func FuzzKnapsackEquivalence(f *testing.F) {
	f.Add([]byte{40, 3, 7, 6, 2, 9, 9})
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 1, 1, 1, 4, 0, 8, 15})
	f.Add([]byte{64, 6, 3, 12, 3, 18, 3, 24, 3}) // sizes share a factor
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0]) * 2
		data = data[1:]
		n := len(data) / 2
		if n > 64 {
			n = 64 // keep the full-table reference and B&B tractable
		}
		items := make([]Item, n)
		for i := 0; i < n; i++ {
			items[i] = Item{
				Edge:   dag.EdgeID(i),
				Size:   1 + int(data[2*i])%32,
				DeltaR: int(data[2*i+1]) % 16,
			}
		}

		chosen, profit := knapsack(items, capacity)
		if rolling := KnapsackProfit(items, capacity); rolling != profit {
			t.Fatalf("bitset profit %d != rolling-row profit %d (items=%+v cap=%d)",
				profit, rolling, items, capacity)
		}
		if bb := BranchAndBound(items, capacity); bb != profit {
			t.Fatalf("bitset profit %d != branch-and-bound %d (items=%+v cap=%d)",
				profit, bb, items, capacity)
		}
		refChosen, refProfit := KnapsackFullTable(items, capacity)
		if refProfit != profit {
			t.Fatalf("bitset profit %d != full-table profit %d", profit, refProfit)
		}
		size, sum := 0, 0
		for i, c := range chosen {
			if c != refChosen[i] {
				t.Fatalf("chosen[%d] = %v, full table says %v (items=%+v cap=%d)",
					i, c, refChosen[i], items, capacity)
			}
			if c {
				size += items[i].Size
				sum += items[i].DeltaR
			}
		}
		if sum != profit {
			t.Fatalf("chosen subset sums to %d, claimed profit %d", sum, profit)
		}
		if size > capacity && capacity > 0 {
			t.Fatalf("chosen subset uses %d capacity units; limit %d", size, capacity)
		}
	})
}
