// Package check is the run-time invariant layer: executable
// restatements of the paper's correctness conditions, callable from
// any stage of the pipeline.
//
// Each validator re-derives one contract from first principles —
// retiming legality R(i) >= R(i,j) >= R(j) with the Theorem 3.1 bound
// rrv <= 2, schedule soundness (no PE runs two tasks at once, cached
// IPRs fit the array), allocation bookkeeping (the DP's claimed
// profit, footprint and prologue match its placement), and DAG
// structural sanity.  Production code calls them behind Enabled(),
// which holds only inside a test binary, so the checks cost nothing in
// a served request; tests get them unconditionally.
//
// The validators deliberately take plain slices rather than the
// producing packages' result types: check imports only dag and pim, so
// retime, sched, core, opt, sim and synth can all call it without
// import cycles.
package check

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
)

// Enabled reports whether the invariant checks should run: exactly
// when executing inside a test binary.
func Enabled() bool { return testing.Testing() }

// CheckDAG verifies structural sanity of a task graph: every edge
// connects vertices that exist, no self-loops, and the graph is
// acyclic.  It is the invariant every generator and graph transform
// (synth, clustering, replication, codec) must preserve.
func CheckDAG(g *dag.Graph) error {
	if g == nil {
		return fmt.Errorf("check: nil graph")
	}
	n := g.NumNodes()
	for i := range g.Edges() {
		e := &g.Edges()[i]
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return fmt.Errorf("check: graph %q edge %d: endpoints %d->%d outside [0,%d)", g.Name(), i, e.From, e.To, n)
		}
		if e.From == e.To {
			return fmt.Errorf("check: graph %q edge %d: self-loop on vertex %d", g.Name(), i, e.From)
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return fmt.Errorf("check: graph %q: %w", g.Name(), err)
	}
	return nil
}

// CheckRetiming verifies Definition 3.1's legality and the Theorem 3.1
// bound for a retiming: r holds the per-vertex retiming values R(i),
// rEdge the chosen per-edge relative retiming values rrv(i,j).  A
// legal retiming has every R(i) >= 0 and, on every edge, an edge
// retiming R(i,j) with R(i) >= R(i,j) >= R(j) — equivalently
// R(i) - R(j) >= rrv(i,j) >= 0 — and Theorem 3.1 caps rrv at 2
// whenever transfers fit within one period.
func CheckRetiming(g *dag.Graph, r, rEdge []int) error {
	if len(r) != g.NumNodes() || len(rEdge) != g.NumEdges() {
		return fmt.Errorf("check: retiming covers %d vertices, %d edges; graph %q has %d, %d",
			len(r), len(rEdge), g.Name(), g.NumNodes(), g.NumEdges())
	}
	for v, x := range r {
		if x < 0 {
			return fmt.Errorf("check: vertex %d has negative retiming %d", v, x)
		}
	}
	for i := range g.Edges() {
		e := &g.Edges()[i]
		rrv := rEdge[i]
		if rrv < 0 || rrv > 2 {
			return fmt.Errorf("check: edge %d (%d->%d): rrv %d outside Theorem 3.1's [0,2]", i, e.From, e.To, rrv)
		}
		if gap := r[e.From] - r[e.To]; gap < rrv {
			return fmt.Errorf("check: edge %d (%d->%d): R(i)-R(j) = %d < rrv %d; no legal edge retiming exists",
				i, e.From, e.To, gap, rrv)
		}
	}
	return nil
}

// Slot is one task's occupancy of a PE within an iteration period.
type Slot struct {
	PE     int
	Start  int
	Finish int
}

// CheckSchedule verifies an iteration schedule against the hardware:
// slots[v] places vertex v (with execution time exec[v]) on a PE for
// [Start, Finish).  No PE may run two tasks at once, every window must
// lie inside [0, period], every duration must equal the vertex's
// execution time, and the cached-IPR footprint cacheLoad must fit the
// array's cacheCap capacity units.
func CheckSchedule(numPEs, period int, exec []int, slots []Slot, cacheLoad, cacheCap int) error {
	if numPEs < 1 {
		return fmt.Errorf("check: %d PEs; want >= 1", numPEs)
	}
	if period < 1 {
		return fmt.Errorf("check: period %d; want >= 1", period)
	}
	if len(slots) != len(exec) {
		return fmt.Errorf("check: %d slots for %d vertices", len(slots), len(exec))
	}
	byPE := make(map[int][]int) // PE -> slot indices
	for v, s := range slots {
		if s.PE < 0 || s.PE >= numPEs {
			return fmt.Errorf("check: vertex %d on PE %d; want in [0,%d)", v, s.PE, numPEs)
		}
		if s.Start < 0 || s.Finish > period {
			return fmt.Errorf("check: vertex %d window [%d,%d] outside [0,%d]", v, s.Start, s.Finish, period)
		}
		if got := s.Finish - s.Start; got != exec[v] {
			return fmt.Errorf("check: vertex %d occupies %d units; execution time is %d", v, got, exec[v])
		}
		byPE[s.PE] = append(byPE[s.PE], v)
	}
	pes := make([]int, 0, len(byPE))
	for pe := range byPE {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		vs := byPE[pe]
		sort.Slice(vs, func(a, b int) bool {
			if slots[vs[a]].Start != slots[vs[b]].Start {
				return slots[vs[a]].Start < slots[vs[b]].Start
			}
			return vs[a] < vs[b]
		})
		for i := 1; i < len(vs); i++ {
			prev, cur := vs[i-1], vs[i]
			if slots[cur].Start < slots[prev].Finish {
				return fmt.Errorf("check: PE %d oversubscribed: vertices %d and %d overlap ([%d,%d) vs [%d,%d))",
					pe, prev, cur, slots[prev].Start, slots[prev].Finish, slots[cur].Start, slots[cur].Finish)
			}
		}
	}
	if cacheLoad > cacheCap {
		return fmt.Errorf("check: cached IPRs need %d capacity units; array has %d", cacheLoad, cacheCap)
	}
	return nil
}

// Claim is the bookkeeping an allocation/retiming stage reports about
// its own result, re-verified by CheckAllocation.
type Claim struct {
	// CacheUsed is the claimed cache footprint of the placement.
	CacheUsed int
	// CachedCount is the claimed number of cached IPRs.
	CachedCount int
	// RMax is the claimed maximum retiming value (prologue iterations).
	// Negative means "not claimed" (allocation-only call sites).
	RMax int
}

// CheckAllocation verifies DP/prologue consistency: the placement's
// actual footprint and cached count must match the claim and fit the
// capacity, and — when a retiming r is supplied — the claimed RMax
// must equal max over R (the prologue is R_max x p, §3.2).  Pass
// r == nil and Claim.RMax < 0 to check an allocation alone.
func CheckAllocation(g *dag.Graph, placement []pim.Placement, capacity int, claim Claim, r []int) error {
	if len(placement) != g.NumEdges() {
		return fmt.Errorf("check: placement covers %d/%d edges", len(placement), g.NumEdges())
	}
	used, count := 0, 0
	for i := range g.Edges() {
		switch placement[i] {
		case pim.InCache:
			used += g.Edges()[i].Size
			count++
		case pim.InEDRAM:
			// eDRAM costs no cache capacity.
		default:
			return fmt.Errorf("check: edge %d has invalid placement %v", i, placement[i])
		}
	}
	if used > capacity {
		return fmt.Errorf("check: placement uses %d cache units; capacity is %d", used, capacity)
	}
	if used != claim.CacheUsed {
		return fmt.Errorf("check: placement uses %d cache units; stage claimed %d", used, claim.CacheUsed)
	}
	if count != claim.CachedCount {
		return fmt.Errorf("check: placement caches %d IPRs; stage claimed %d", count, claim.CachedCount)
	}
	if r != nil && claim.RMax >= 0 {
		rmax := 0
		for _, x := range r {
			if x > rmax {
				rmax = x
			}
		}
		if rmax != claim.RMax {
			return fmt.Errorf("check: retiming has R_max %d; stage claimed %d", rmax, claim.RMax)
		}
	}
	return nil
}
