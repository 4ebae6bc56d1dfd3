// Package core implements Para-CONV's optimal data allocation for
// convolutional connections (paper §3.3) — the paper's primary
// contribution.
//
// After the retiming analysis (internal/retime) classifies every
// intermediate processing result (IPR) into one of the six Figure-4
// cases, each IPR I_m carries a profit ΔR(m): the reduction in its
// required relative retiming value obtained by placing it in scarce
// on-chip cache instead of stacked eDRAM.  Zero-profit IPRs (cases 1,
// 4 and 6) are sent to eDRAM outright to save cache space (§3.2); the
// rest compete for the cache capacity S.  Characterizing the optimal
// allocation (§3.3.1) sorts the competitors by deadline in
// O(n log n); the recurrence (§3.3.2)
//
//	B[S,m] = max( B[S,m-1], B[S-sp_m, m-1] + ΔR(m) )
//
// is evaluated bottom-up in O(n·S) and the optimal subset is
// reconstructed by backtracking (§3.3.3).
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/check"
	"repro/internal/dag"
	"repro/internal/obs/span"
	"repro/internal/pim"
	"repro/internal/retime"
)

// Item is one cache-competitor IPR in the dynamic program.
type Item struct {
	// Edge identifies the IPR in the task graph.
	Edge dag.EdgeID
	// Deadline is d_m: the schedule time by which the transfer must
	// complete, i.e. the consumer's start time.  Items are processed
	// in increasing deadline order (§3.3.1).
	Deadline int
	// Size is sp_m, the cache footprint.
	Size int
	// DeltaR is ΔR(m), the retiming-value reduction if cached.
	DeltaR int
}

// BuildItems derives the DP item list from the per-edge retiming
// classification: every IPR with positive ΔR becomes a competitor,
// with its deadline taken from the consumer's start time in the
// objective schedule.  The result is sorted by deadline (ties by edge
// ID for determinism), completing the §3.3.1 precomputation.
func BuildItems(g *dag.Graph, classes []retime.EdgeClass, tm retime.Timing) ([]Item, error) {
	return BuildItemsInto(nil, g, classes, tm)
}

// BuildItemsInto is BuildItems appending into dst[:0], the
// caller-buffer form for pooled solve paths: a call with sufficient
// capacity allocates nothing.
//
//paraconv:hotpath
func BuildItemsInto(dst []Item, g *dag.Graph, classes []retime.EdgeClass, tm retime.Timing) ([]Item, error) {
	sc := optPool.Get().(*optScratch)
	defer optPool.Put(sc)
	return buildItems(dst, &sc.buckets, g, classes, tm)
}

// countingSpan bounds the deadline range the counting sort takes on,
// in buckets per IPR: past it, clearing and scanning the buckets costs
// more than the comparison sort they replace.
const countingSpan = 4

// buildItems is BuildItemsInto with pooled deadline buckets, which it
// grows as needed and clears before use.  A deadline is the consumer's
// start time, in [0, period], and the classes come in edge order, so a
// stable counting sort by deadline yields the (Deadline, Edge) order in
// O(E + period); a long period, or classes out of edge order, fall back
// to the comparison sort.
//
//paraconv:hotpath
func buildItems(dst []Item, buckets *[]int32, g *dag.Graph, classes []retime.EdgeClass, tm retime.Timing) ([]Item, error) {
	if len(classes) != g.NumEdges() {
		return nil, fmt.Errorf("core: classification covers %d edges; want %d", len(classes), g.NumEdges())
	}
	if err := tm.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	if cap(dst) < len(classes) {
		dst = make([]Item, 0, len(classes))
	}
	if span := tm.Period + 1; span <= countingSpan*len(classes) {
		if cap(*buckets) <= span {
			*buckets = make([]int32, span+1)
		}
		// next[d+1] counts the items due at d; the prefix sum turns
		// next[d] into the slot of the next item due at d.
		next := (*buckets)[:span+1]
		clear(next)
		n, last := 0, dag.EdgeID(-1)
		for i := range classes {
			c := &classes[i]
			if c.DeltaR() <= 0 {
				continue
			}
			if c.Edge <= last {
				n = -1 // out of edge order: ties would not fall by edge ID
				break
			}
			next[tm.Start[g.Edge(c.Edge).To]+1]++
			n, last = n+1, c.Edge
		}
		if n >= 0 {
			for d := 1; d <= span; d++ {
				next[d] += next[d-1]
			}
			items := dst[:n]
			for i := range classes {
				if c := &classes[i]; c.DeltaR() > 0 {
					e := g.Edge(c.Edge)
					d := tm.Start[e.To]
					items[next[d]] = Item{Edge: c.Edge, Deadline: d, Size: e.Size, DeltaR: c.DeltaR()}
					next[d]++
				}
			}
			return items, nil
		}
	}
	items := dst[:0]
	for i := range classes {
		c := &classes[i]
		if c.DeltaR() <= 0 {
			continue
		}
		e := g.Edge(c.Edge)
		items = append(items, Item{
			Edge:     c.Edge,
			Deadline: tm.Start[e.To],
			Size:     e.Size,
			DeltaR:   c.DeltaR(),
		})
	}
	slices.SortFunc(items, func(a, b Item) int {
		if a.Deadline != b.Deadline {
			return a.Deadline - b.Deadline
		}
		return int(a.Edge - b.Edge)
	})
	return items, nil
}

// Allocation is the outcome of the optimal data allocation.
type Allocation struct {
	// Assignment gives the chosen placement of every IPR in the
	// graph, indexed by dag.EdgeID.
	Assignment retime.Assignment
	// Profit is the total ΔR harvested: Σ ΔR(m) over cached items —
	// the value B[S,n] of the recurrence.
	Profit int
	// CacheUsed is the capacity consumed by cached items.
	CacheUsed int
	// CachedCount is the number of IPRs placed in on-chip cache (the
	// quantity Figure 6 reports).
	CachedCount int
	// Competitors is the number of positive-ΔR IPRs that competed.
	Competitors int
}

// optScratch pools the allocation pipeline's intermediates — the DP
// item list and its deadline buckets, the decision vector and the
// zero-ΔR filler keys — so a steady-state OptimizeInto call allocates
// nothing beyond what dst itself lacks.
type optScratch struct {
	items   []Item
	buckets []int32
	chosen  []bool
	fillers []filler
}

var optPool = sync.Pool{New: func() any { return new(optScratch) }}

// OptimizeInto runs the full §3.3 pipeline into dst: build the
// competitor list, solve the dynamic program under cache capacity, and
// reconstruct the placement of every IPR.  Capacity left over after
// the competitors are placed is back-filled with zero-ΔR IPRs in
// decreasing traffic order (§3.3.3): they cannot shorten the prologue,
// but every one kept on chip avoids an eDRAM round trip's latency and
// energy.  The dynamic program checks ctx at every item-row boundary
// and returns the context's error if it is cancelled mid-solve.
//
// dst's Assignment slice is reused when it has the capacity — the
// caller-buffer form mirroring KnapsackInto for pooled solve paths;
// all other Allocation fields are overwritten.
//
//paraconv:hotpath
func OptimizeInto(ctx context.Context, dst *Allocation, g *dag.Graph, classes []retime.EdgeClass, tm retime.Timing, capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("core: cache capacity %d; want >= 0", capacity)
	}
	sc := optPool.Get().(*optScratch)
	defer optPool.Put(sc)
	items, err := buildItems(sc.items[:0], &sc.buckets, g, classes, tm)
	if items != nil {
		sc.items = items
	}
	if err != nil {
		return err
	}
	if cap(sc.chosen) < len(items) {
		sc.chosen = make([]bool, len(items))
	}
	chosen := sc.chosen[:len(items)]
	dpSpan := span.Start(ctx, "core.knapsack")
	profit, err := KnapsackInto(ctx, chosen, items, capacity)
	dpSpan.End()
	if err != nil {
		return err
	}
	if cap(dst.Assignment) < g.NumEdges() {
		dst.Assignment = make(retime.Assignment, g.NumEdges())
	}
	dst.Assignment = dst.Assignment[:g.NumEdges()]
	for i := range dst.Assignment {
		dst.Assignment[i] = pim.InEDRAM
	}
	dst.Profit = profit
	dst.Competitors = len(items)
	dst.CacheUsed, dst.CachedCount = 0, 0
	for i, item := range items {
		if chosen[i] {
			dst.Assignment[item.Edge] = pim.InCache
			dst.CacheUsed += item.Size
			dst.CachedCount++
		}
	}
	sc.fillers = fillZeroDelta(g, classes, dst, capacity, sc.fillers[:0])
	if check.Enabled() {
		claim := check.Claim{CacheUsed: dst.CacheUsed, CachedCount: dst.CachedCount, RMax: -1}
		if err := check.CheckAllocation(g, dst.Assignment, capacity, claim, nil); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// filler is a zero-ΔR back-fill candidate with its sort keys
// extracted, so the ordering comparator captures nothing.
type filler struct {
	traffic int64
	size    int
	id      dag.EdgeID
}

// fillZeroDelta back-fills remaining cache capacity with zero-profit
// IPRs, largest traffic first (ties by smaller footprint, then edge
// ID, for determinism).  Only IPRs no larger than the capacity left
// after the DP are candidates: what is left only shrinks as the fill
// proceeds, so a larger one could never be placed, and leaving it out
// of the sort changes no placement.  It appends candidates into buf[:0]
// and returns the (possibly grown) buffer for reuse.
func fillZeroDelta(g *dag.Graph, classes []retime.EdgeClass, alloc *Allocation, capacity int, buf []filler) []filler {
	fillers := buf
	left := capacity - alloc.CacheUsed
	for i := range classes {
		if classes[i].DeltaR() <= 0 {
			if e := g.Edge(classes[i].Edge); e.Size <= left {
				fillers = append(fillers, filler{traffic: trafficOf(e), size: e.Size, id: classes[i].Edge})
			}
		}
	}
	slices.SortFunc(fillers, func(a, b filler) int {
		if a.traffic != b.traffic {
			if a.traffic > b.traffic {
				return -1
			}
			return 1
		}
		if a.size != b.size {
			return a.size - b.size
		}
		return int(a.id - b.id)
	})
	for _, f := range fillers {
		if f.size <= left {
			alloc.Assignment[f.id] = pim.InCache
			alloc.CacheUsed += f.size
			alloc.CachedCount++
			left -= f.size
		}
	}
	return fillers
}

func trafficOf(e *dag.Edge) int64 {
	if e.Bytes > 0 {
		return e.Bytes
	}
	return int64(e.Size)
}

// BruteForce computes the optimal knapsack profit by exhaustive subset
// enumeration.  Exponential — usable only for small item counts (it
// returns an error beyond 24 items); it exists to certify KnapsackInto's
// optimality in tests and ablations.
func BruteForce(items []Item, capacity int) (int, error) {
	n := len(items)
	if n > 24 {
		return 0, fmt.Errorf("core: BruteForce over %d items would enumerate 2^%d subsets", n, n)
	}
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		size, profit := 0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += items[i].Size
				profit += items[i].DeltaR
			}
		}
		if size <= capacity && profit > best {
			best = profit
		}
	}
	return best, nil
}
