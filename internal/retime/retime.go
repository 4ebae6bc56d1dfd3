// Package retime implements the retiming analysis of Para-CONV
// (paper §3.2).
//
// Retiming (Definition 3.1) maps each vertex T_i of the task DAG to a
// count R(i) of iterations re-allocated into the prologue; a retiming
// is legal when R(i) >= R(i,j) >= R(j) holds across every edge.  After
// retiming, an intra-iteration dependency becomes an inter-iteration
// one: consumer T_j in steady-state iteration ℓ reads the output that
// producer T_i computed back in iteration ℓ - (R(i)-R(j)).  The
// difference rrv = R(i) - R(j) is the *relative retiming value* of the
// edge, and Theorem 3.1 bounds it by 2 whenever execution and transfer
// times fit within one period.
//
// For a fixed objective schedule (starts/finishes within one period p)
// the minimal rrv of an edge depends on where its intermediate
// processing result is placed: the slow eDRAM transfer may force the
// producer one or two extra iterations ahead, while the fast cache
// would not.  Enumerating (rrv_cache, rrv_edram) with
// 0 <= rrv_cache <= rrv_edram <= 2 yields exactly the six cases of
// Figure 4; the profit ΔR = rrv_edram - rrv_cache of promoting the IPR
// to cache is what the dynamic program in internal/core maximizes.
package retime

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/dag"
	"repro/internal/pim"
)

// Timing is the objective schedule context the analysis runs against:
// modulo-p start and finish times of every vertex (indexed by
// dag.NodeID) and the iteration period p.
type Timing struct {
	Start  []int
	Finish []int
	Period int
}

// Validate checks the timing is usable for a graph with n vertices.
func (t Timing) Validate(n int) error {
	if t.Period < 1 {
		return fmt.Errorf("retime: period %d; want >= 1", t.Period)
	}
	if len(t.Start) != n || len(t.Finish) != n {
		return fmt.Errorf("retime: timing covers %d/%d vertices; want %d", len(t.Start), len(t.Finish), n)
	}
	for v := 0; v < n; v++ {
		if t.Start[v] < 0 || t.Finish[v] < t.Start[v] || t.Finish[v] > t.Period {
			return fmt.Errorf("retime: vertex %d has start %d finish %d outside [0, %d]", v, t.Start[v], t.Finish[v], t.Period)
		}
	}
	return nil
}

// MinRelative returns the minimal relative retiming value that makes
// an edge schedulable under the paper's transfer discipline: the IPR
// transfer I_{i,j} is itself a periodic task that must fit inside one
// iteration window (the Theorem 3.1 proof places it at
// s_i + c_i <= s_{i,j} and s_{i,j} + c_{i,j} <= s_j within whole
// periods — transfers do not straddle period boundaries, matching a
// periodic TSV/vault reservation schedule).  Hence:
//
//   - rrv 0: the transfer fits between producer finish and consumer
//     start inside the same iteration: finish + transfer <= start;
//   - rrv 1: it fits in the producer iteration's tail after finish, or
//     in the consumer iteration's head before start:
//     transfer <= max(period - finish, start);
//   - rrv 2: it gets a dedicated intermediate iteration, which always
//     suffices when transfer <= period (Theorem 3.1's precondition).
//
// Feasibility is monotone in rrv, so the six (cache, eDRAM) pairs with
// 0 <= rrv_cache <= rrv_edram <= 2 are exactly Figure 4's cases.
// The caller must guarantee transfer <= period (Classify enforces it).
func MinRelative(finish, transfer, start, period int) int {
	if finish+transfer <= start {
		return 0
	}
	if transfer <= period-finish || transfer <= start {
		return 1
	}
	return 2
}

// Case identifies one of the paper's six Figure-4 classes by the pair
// (rrv with cache placement, rrv with eDRAM placement).
type Case int

// The six cases of Figure 4, ordered as in the paper:
// (0,0) (0,1) (0,2) (1,1) (1,2) (2,2).
const (
	Case1 Case = iota + 1 // cache 0, eDRAM 0 — placement irrelevant
	Case2                 // cache 0, eDRAM 1
	Case3                 // cache 0, eDRAM 2
	Case4                 // cache 1, eDRAM 1 — placement irrelevant
	Case5                 // cache 1, eDRAM 2
	Case6                 // cache 2, eDRAM 2 — placement irrelevant
)

// String implements fmt.Stringer.
func (c Case) String() string {
	if c >= Case1 && c <= Case6 {
		return fmt.Sprintf("case%d", int(c))
	}
	return fmt.Sprintf("case(%d)", int(c))
}

// caseOf maps the (cache, eDRAM) rrv pair to its Figure-4 case.  It
// runs once per edge per classification, so it is a plain switch (the
// obvious 6-entry map would be rebuilt — and heap-allocated — on
// every call).
func caseOf(rc, re int) (Case, error) {
	switch rc {
	case 0:
		switch re {
		case 0:
			return Case1, nil
		case 1:
			return Case2, nil
		case 2:
			return Case3, nil
		}
	case 1:
		switch re {
		case 1:
			return Case4, nil
		case 2:
			return Case5, nil
		}
	case 2:
		if re == 2 {
			return Case6, nil
		}
	}
	return 0, fmt.Errorf("retime: rrv pair (cache=%d, edram=%d) outside the six Figure-4 cases", rc, re)
}

// EdgeClass is the classification of one IPR edge against a timing.
type EdgeClass struct {
	Edge   dag.EdgeID
	RCache int  // minimal rrv with the IPR in on-chip cache
	REDRAM int  // minimal rrv with the IPR in eDRAM
	Class  Case // the Figure-4 case
}

// DeltaR is the retiming-value reduction obtained by promoting this
// IPR from eDRAM to cache — the ΔR(m) of the paper's recurrence.
func (c EdgeClass) DeltaR() int { return c.REDRAM - c.RCache }

// Rel returns the minimal rrv for the given placement.
func (c EdgeClass) Rel(p pim.Placement) int {
	if p == pim.InCache {
		return c.RCache
	}
	return c.REDRAM
}

// Classify computes, for every edge, its minimal relative retiming
// value under both placements and the resulting Figure-4 case.  It
// returns an error if any edge violates the Theorem 3.1 precondition
// (its transfer time exceeds the period, which would need rrv > 2) or
// if the timing itself is inconsistent.
func Classify(g *dag.Graph, tm Timing) ([]EdgeClass, error) {
	return ClassifyInto(nil, g, tm)
}

// ClassifyInto is Classify writing into dst[:0], so a caller that
// plans repeatedly (the scheduler's pooled solve scratch) can reuse
// one classification buffer across solves.  It allocates only when
// dst lacks capacity.
//
//paraconv:hotpath
func ClassifyInto(dst []EdgeClass, g *dag.Graph, tm Timing) ([]EdgeClass, error) {
	if err := tm.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	if cap(dst) < g.NumEdges() {
		dst = make([]EdgeClass, g.NumEdges())
	}
	classes := dst[:g.NumEdges()]
	for i := range g.Edges() {
		e := g.Edge(dag.EdgeID(i))
		if e.EDRAMTime > tm.Period {
			return nil, fmt.Errorf("retime: edge %d (%d->%d) eDRAM transfer %d exceeds period %d; Theorem 3.1 bound would break",
				e.ID, e.From, e.To, e.EDRAMTime, tm.Period)
		}
		rc := MinRelative(tm.Finish[e.From], e.CacheTime, tm.Start[e.To], tm.Period)
		re := MinRelative(tm.Finish[e.From], e.EDRAMTime, tm.Start[e.To], tm.Period)
		cls, err := caseOf(rc, re)
		if err != nil {
			return nil, fmt.Errorf("retime: edge %d (%d->%d): %w", e.ID, e.From, e.To, err)
		}
		classes[i] = EdgeClass{Edge: e.ID, RCache: rc, REDRAM: re, Class: cls}
	}
	return classes, nil
}

// AggregateCopies merges the per-edge classifications of `copies`
// disjoint replicas of a graph (as produced by dag.Replicate, whose
// copy k maps logical edge i to edge id k*logicalEdges+i) into one
// classification per logical edge.  An intermediate processing result
// I_{i,j} is one logical datum whose cache slot is reused every
// iteration, so all replicas must share one placement; the merged
// class takes the worst (largest) relative retiming value over the
// replicas for each placement, which is safe because feasibility is
// monotone in rrv.
func AggregateCopies(classes []EdgeClass, logicalEdges, copies int) ([]EdgeClass, error) {
	if copies < 1 || logicalEdges < 0 {
		return nil, fmt.Errorf("retime: AggregateCopies(%d edges, %d copies)", logicalEdges, copies)
	}
	if len(classes) != logicalEdges*copies {
		return nil, fmt.Errorf("retime: %d classes for %d logical edges x %d copies", len(classes), logicalEdges, copies)
	}
	out := make([]EdgeClass, logicalEdges)
	for i := 0; i < logicalEdges; i++ {
		rc, re := 0, 0
		for k := 0; k < copies; k++ {
			c := &classes[k*logicalEdges+i]
			if c.RCache > rc {
				rc = c.RCache
			}
			if c.REDRAM > re {
				re = c.REDRAM
			}
		}
		cls, err := caseOf(rc, re)
		if err != nil {
			return nil, fmt.Errorf("retime: logical edge %d: %w", i, err)
		}
		out[i] = EdgeClass{Edge: dag.EdgeID(i), RCache: rc, REDRAM: re, Class: cls}
	}
	return out, nil
}

// ExpandAssignment replicates a logical-edge assignment to `copies`
// replicas (the inverse of AggregateCopies for placements).
func ExpandAssignment(a Assignment, copies int) Assignment {
	out := make(Assignment, 0, len(a)*copies)
	for k := 0; k < copies; k++ {
		out = append(out, a...)
	}
	return out
}

// CaseHistogram counts how many edges fall into each of the six
// Figure-4 cases — the classification mix that decides how much
// leverage the cache allocation has (cases 2, 3 and 5 are the
// profitable ones).
func CaseHistogram(classes []EdgeClass) map[Case]int {
	h := make(map[Case]int, 6)
	for i := range classes {
		h[classes[i].Class]++
	}
	return h
}

// Assignment records the chosen placement of every IPR, indexed by
// dag.EdgeID.
type Assignment []pim.Placement

// TransferTime is the one placement→transfer rule every scheduler and
// simulator applies: an IPR placed in on-chip cache moves in
// e.CacheTime, any other placement pays the eDRAM round trip
// e.EDRAMTime.
func TransferTime(e *dag.Edge, p pim.Placement) int {
	if p == pim.InCache {
		return e.CacheTime
	}
	return e.EDRAMTime
}

// AllEDRAM returns the assignment that places every IPR in eDRAM —
// the no-cache baseline.
func AllEDRAM(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = pim.InEDRAM
	}
	return a
}

// AllCache returns the assignment that places every IPR in on-chip
// cache — the infinite-cache bound.
func AllCache(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = pim.InCache
	}
	return a
}

// Result is the outcome of a retiming analysis under one assignment.
type Result struct {
	// R is the per-vertex retiming value (Definition 3.1), minimal
	// for the edge requirements.
	R []int
	// REdge is the chosen per-edge relative retiming value.
	REdge []int
	// RMax is max over R, so prologue time = RMax * period.
	RMax int
	// Period echoes the analysis period.
	Period int
}

// Prologue returns the prologue time R_max x p (§3.2).
func (r Result) Prologue() int { return r.RMax * r.Period }

// ApplyInto computes the minimal legal vertex retiming for the given
// placement assignment under iteration period p: every edge requires
// R(producer) - R(consumer) >= rrv(placement), and we minimize every
// R (hence R_max) by a longest-path pass in reverse topological
// order, with sinks pinned at 0.  The result is written into res,
// reusing the capacity of its R and REdge slices.  A non-nil order
// must be a topological order of g (as returned by TopoSort), letting
// a caller that already holds one skip the re-sort; nil recomputes
// it.
//
//paraconv:hotpath
func ApplyInto(res *Result, g *dag.Graph, classes []EdgeClass, a Assignment, period int, order []dag.NodeID) error {
	if period < 1 {
		return fmt.Errorf("retime: period %d; want >= 1", period)
	}
	if len(classes) != g.NumEdges() || len(a) != g.NumEdges() {
		return fmt.Errorf("retime: classes/assignment cover %d/%d edges; want %d", len(classes), len(a), g.NumEdges())
	}
	if order == nil {
		var err error
		order, err = g.TopoSort()
		if err != nil {
			return err
		}
	} else if len(order) != g.NumNodes() {
		return fmt.Errorf("retime: supplied order covers %d vertices; want %d", len(order), g.NumNodes())
	}
	if cap(res.REdge) < g.NumEdges() {
		res.REdge = make([]int, g.NumEdges())
	}
	rEdge := res.REdge[:g.NumEdges()]
	for i := range classes {
		rEdge[i] = classes[i].Rel(a[i])
	}
	if cap(res.R) < g.NumNodes() {
		res.R = make([]int, g.NumNodes())
	}
	r := res.R[:g.NumNodes()]
	clear(r)
	for idx := len(order) - 1; idx >= 0; idx-- {
		v := order[idx]
		for _, eid := range g.Out(v) {
			e := g.Edge(eid)
			if need := r[e.To] + rEdge[eid]; need > r[v] {
				r[v] = need
			}
		}
	}
	rmax := 0
	for _, x := range r {
		if x > rmax {
			rmax = x
		}
	}
	res.R, res.REdge, res.RMax, res.Period = r, rEdge, rmax, period
	return nil
}

// AnalyzeAssignment is the one-call variant: classify every edge
// against tm and compute the retiming result for assignment a.
func AnalyzeAssignment(g *dag.Graph, tm Timing, a Assignment) (Result, []EdgeClass, error) {
	classes, err := Classify(g, tm)
	if err != nil {
		return Result{}, nil, err
	}
	var res Result
	if err := ApplyInto(&res, g, classes, a, tm.Period, nil); err != nil {
		return Result{}, nil, err
	}
	return res, classes, nil
}

// CheckLegal verifies Definition 3.1's legality for the result with
// check.CheckRetiming, always on: all retimings non-negative, every
// rrv within Theorem 3.1's [0,2], and R(i) - R(j) at least the rrv of
// every edge.  It returns a descriptive error for the first violation.
func CheckLegal(g *dag.Graph, res Result) error {
	if err := check.CheckRetiming(g, res.R, res.REdge); err != nil {
		return fmt.Errorf("retime: %w", err)
	}
	return nil
}
