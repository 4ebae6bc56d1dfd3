package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// This file holds the production knapsack solver: the §3.3.2
// recurrence evaluated with a rolling O(S) profit row plus a bitset
// decision matrix for the §3.3.3 reconstruction.
//
// The classic full table keeps one int per (item, capacity) state —
// n·S machine words — only so the backtrack can ask "did row m improve
// on state s?".  That question needs one bit, not a word: the bitset
// matrix stores exactly that bit, shrinking the solver's working set
// ~64x and turning the table fill's memory traffic into the rolling
// row (hot in L1) plus sequential bit writes.  The decisions recorded
// are identical to the full table's strict-improvement test, so the
// reconstructed subset is bit-for-bit the one KnapsackFullTable
// returns; the solver oracles (BruteForce, BranchAndBound, the seeded
// property sweeps) certify exactly that.
//
// Two preprocessing passes run before the DP:
//
//   - items the recurrence can never take — non-positive profit, or
//     footprint over capacity — are dropped (the strict cand > best
//     test never selects them, so dropping preserves the output);
//   - sizes and capacity are rescaled by their gcd, shrinking S (and
//     with it the row, the bit matrix and the fill time) whenever the
//     footprints share a common factor, as power-of-two tile sizes
//     routinely do.
//
// The row and bit matrix live in a sync.Pool so a long-running daemon
// or bench loop solving many instances allocates only on high-water
// growth; KnapsackInto is the fully allocation-free entry point for
// callers that also reuse the chosen slice.

// dpScratch is one solve's pooled working memory.
type dpScratch struct {
	// row is the rolling profit row B[·] of the recurrence.
	row []int
	// bits is the decision matrix: kept-item rows x (capacity+1) bits,
	// bit (m, s) set iff taking item m at state s strictly improves on
	// leaving it.
	bits []uint64
	// kept is the preprocessed competitor list.
	kept []keptItem
}

// keptItem is one DP competitor after preprocessing.
type keptItem struct {
	idx  int // index into the caller's item slice
	size int // gcd-rescaled footprint, >= 1
	dr   int // DeltaR, >= 1
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

// ensure sizes the scratch slices, reusing capacity across solves.
//
//paraconv:hotpath
func (sc *dpScratch) ensure(rowLen, bitWords int) {
	if cap(sc.row) < rowLen {
		sc.row = make([]int, rowLen)
	}
	sc.row = sc.row[:rowLen]
	if cap(sc.bits) < bitWords {
		sc.bits = make([]uint64, bitWords)
	}
	sc.bits = sc.bits[:bitWords]
}

// KnapsackInto evaluates the §3.3.2 recurrence bottom-up and
// reconstructs one optimal subset into caller-owned output: it fills
// chosen (len(items) entries, reset first; chosen[i] reports whether
// items[i] is cached) and returns the optimal profit B[capacity, n].
// The solver runs in O(n·S) time but O(n·S/64 + S) space: a bitset
// decision matrix plus a rolling profit row replace the classic full
// int table; KnapsackFullTable keeps the textbook layout as a
// reference oracle.
// All internal state comes from a pool, so steady-state solves
// allocate nothing — the serving daemon's cold path and the bench
// runner both lean on this.  The table fill is the longest
// uninterruptible stretch of the whole planning pipeline, so the
// recurrence checks ctx once per item row (every S cells) and abandons
// the solve with the context's error when cancelled.
//
//paraconv:hotpath
func KnapsackInto(ctx context.Context, chosen []bool, items []Item, capacity int) (profit int, err error) {
	if len(chosen) != len(items) {
		return 0, fmt.Errorf("core: chosen holds %d entries; want %d", len(chosen), len(items))
	}
	clear(chosen)
	if len(items) == 0 || capacity <= 0 {
		return 0, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	obs.SchedDPRows.Add(int64(len(items)))

	sc := dpPool.Get().(*dpScratch)
	defer dpPool.Put(sc)

	// Preprocess: drop items the strict-improvement recurrence can
	// never take, bank free-profit items outright, and detect the
	// everything-fits fast path.
	kept := sc.kept[:0]
	total := 0
	for i := range items {
		it := &items[i]
		if it.DeltaR <= 0 || it.Size > capacity {
			continue
		}
		if it.Size <= 0 {
			// Costless positive profit: always taken.
			chosen[i] = true
			profit += it.DeltaR
			continue
		}
		kept = append(kept, keptItem{idx: i, size: it.Size, dr: it.DeltaR})
		total += it.Size
	}
	sc.kept = kept
	if len(kept) == 0 {
		return profit, nil
	}
	if total <= capacity {
		for _, k := range kept {
			chosen[k.idx] = true
			profit += k.dr
		}
		return profit, nil
	}

	// gcd-rescale footprints and capacity: every reachable load is a
	// multiple of g, so states off the lattice are redundant.
	g := 0
	for _, k := range kept {
		g = gcd(g, k.size)
	}
	if g > 1 {
		for i := range kept {
			kept[i].size /= g
		}
		capacity /= g
	}

	n := len(kept)
	words := (capacity >> 6) + 1 // states 0..capacity, one bit each
	sc.ensure(capacity+1, n*words)
	row := sc.row
	clear(row)
	bits := sc.bits
	clear(bits)

	for m := 0; m < n; m++ {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("core: knapsack cancelled at item %d/%d: %w", m+1, n, err)
		}
		k := &kept[m]
		w := bits[m*words : (m+1)*words]
		// Descending so row[s-size] still holds the previous item's
		// value when read: the strict test below is then exactly the
		// full table's B[m][s] != B[m-1][s].
		for s := capacity; s >= k.size; s-- {
			if cand := row[s-k.size] + k.dr; cand > row[s] {
				row[s] = cand
				w[s>>6] |= 1 << uint(s&63)
			}
		}
	}
	profit += row[capacity]

	// Backtrack down the decision matrix (§3.3.3).
	s := capacity
	for m := n - 1; m >= 0; m-- {
		if bits[m*words+(s>>6)]&(1<<uint(s&63)) != 0 {
			chosen[kept[m].idx] = true
			s -= kept[m].size
		}
	}
	return profit, nil
}

// gcd returns the greatest common divisor, treating gcd(0, b) = b.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
