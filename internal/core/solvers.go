package core

import (
	"sort"
	"sync"
)

// profitRowPool holds rolling profit rows for KnapsackProfit, so the
// oracle sweeps and bound computations stop allocating one row per
// call.
var profitRowPool = sync.Pool{New: func() any { return new([]int) }}

// KnapsackProfit evaluates the §3.3.2 recurrence with a rolling row —
// O(S) space instead of the O(n·S) table — returning only the optimal
// profit.  Use it when the chosen subset is not needed (bounds,
// validation, large sweeps); KnapsackInto adds the bitset decision matrix
// for the §3.3.3 reconstruction.  The row is pooled, so steady-state
// calls are allocation-free.
func KnapsackProfit(items []Item, capacity int) int {
	if len(items) == 0 || capacity <= 0 {
		return 0
	}
	rp := profitRowPool.Get().(*[]int)
	defer profitRowPool.Put(rp)
	if cap(*rp) < capacity+1 {
		*rp = make([]int, capacity+1)
	}
	row := (*rp)[:capacity+1]
	clear(row)
	base := 0
	for i := range items {
		it := &items[i]
		if it.Size <= 0 {
			// Costless positive profit is always taken (adding it to
			// every row entry shifts all states uniformly, so banking
			// it outside the row leaves every decision unchanged).
			if it.DeltaR > 0 {
				base += it.DeltaR
			}
			continue
		}
		// Descending so each item is used at most once.
		for s := capacity; s >= it.Size; s-- {
			if cand := row[s-it.Size] + it.DeltaR; cand > row[s] {
				row[s] = cand
			}
		}
	}
	return base + row[capacity]
}

// KnapsackFullTable is the textbook layout of the §3.3.2 recurrence:
// the full O(n·S)-int table, kept for backtracking.  It is the
// reference implementation the bitset solver is certified against
// (identical chosen output, not just identical profit) and the
// "before" side of the BENCH_*.json solver comparison; production
// callers use KnapsackInto.
func KnapsackFullTable(items []Item, capacity int) (chosen []bool, profit int) {
	n := len(items)
	chosen = make([]bool, n)
	if n == 0 || capacity <= 0 {
		return chosen, 0
	}
	// B[m][s]: max profit using the first m items within capacity s.
	b := make([][]int, n+1)
	for m := range b {
		b[m] = make([]int, capacity+1)
	}
	for m := 1; m <= n; m++ {
		it := &items[m-1]
		for s := 0; s <= capacity; s++ {
			best := b[m-1][s]
			if it.Size <= s {
				if cand := b[m-1][s-it.Size] + it.DeltaR; cand > best {
					best = cand
				}
			}
			b[m][s] = best
		}
	}
	profit = b[n][capacity]
	// Backtrack: item m was taken iff its row improved on the
	// remaining capacity.
	s := capacity
	for m := n; m >= 1; m-- {
		if b[m][s] != b[m-1][s] {
			chosen[m-1] = true
			s -= items[m-1].Size
		}
	}
	return chosen, profit
}

// denserThan reports whether a's profit density strictly exceeds b's,
// comparing ΔR_a/size_a vs ΔR_b/size_b by int64 cross-multiplication:
// exact, free of float rounding, and safe from int overflow for
// large-traffic items (ΔR and size each fit in 32 bits on every
// realistic graph, but their products need not fit in int on 32-bit
// platforms — and int64 costs nothing here).
func denserThan(a, b *Item) bool {
	return int64(a.DeltaR)*int64(b.Size) > int64(b.DeltaR)*int64(a.Size)
}

// BranchAndBound computes the optimal knapsack profit by depth-first
// search with a fractional-relaxation bound.  Exponential in the worst
// case but typically far faster than BruteForce and not limited to 24
// items; it exists as an independent oracle that certifies the DP.
func BranchAndBound(items []Item, capacity int) int {
	if len(items) == 0 || capacity <= 0 {
		return 0
	}
	// Density order makes the fractional bound tight.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return denserThan(&items[order[a]], &items[order[b]])
	})
	sorted := make([]Item, len(items))
	for i, idx := range order {
		sorted[i] = items[idx]
	}

	best := 0
	var dfs func(i, left, profit int)
	dfs = func(i, left, profit int) {
		if profit > best {
			best = profit
		}
		if i == len(sorted) || left == 0 {
			return
		}
		// Fractional upper bound from item i onward, accumulated in
		// int64: the partial sums can exceed what fits in int before
		// the bound is compared.
		bound := int64(profit)
		space := left
		for j := i; j < len(sorted); j++ {
			if sorted[j].Size <= space {
				space -= sorted[j].Size
				bound += int64(sorted[j].DeltaR)
			} else {
				bound += int64(sorted[j].DeltaR) * int64(space) / int64(sorted[j].Size)
				break
			}
		}
		if bound <= int64(best) {
			return
		}
		if sorted[i].Size <= left {
			dfs(i+1, left-sorted[i].Size, profit+sorted[i].DeltaR)
		}
		dfs(i+1, left, profit)
	}
	dfs(0, capacity, 0)
	return best
}

// Greedy is the density-ordered heuristic baseline used in ablation
// studies: it caches items by decreasing ΔR/size until capacity runs
// out.  Not optimal — the benches quantify the gap to KnapsackInto.  Ties
// in density break by ascending edge ID (then input position), so the
// allocation it produces is reproducible run to run regardless of how
// the caller assembled the item list.
func Greedy(items []Item, capacity int) (chosen []bool, profit int) {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := &items[order[a]], &items[order[b]]
		if denserThan(ia, ib) {
			return true
		}
		if denserThan(ib, ia) {
			return false
		}
		if ia.Edge != ib.Edge {
			return ia.Edge < ib.Edge
		}
		return order[a] < order[b]
	})
	chosen = make([]bool, len(items))
	left := capacity
	for _, i := range order {
		if items[i].Size <= left {
			chosen[i] = true
			left -= items[i].Size
			profit += items[i].DeltaR
		}
	}
	return chosen, profit
}
