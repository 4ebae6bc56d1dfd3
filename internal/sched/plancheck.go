package sched

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
)

var (
	errUnknownScheme = errors.New("sched: plan names no known scheme (want para-conv, sparta or naive)")
	errKernelGraph   = errors.New("sched: plan kernel is not the problem graph unrolled ConcurrentIterations times")
	errReplica       = errors.New("sched: plan kernel's groups are not copies of its first group")
	errBaseline      = errors.New("sched: baseline plan is replicated or retimed; sparta and naive never are")
)

// CheckPlan is the one plan check, run on every plan a solver returns
// and every plan admitted from the store or a peer, against g, the
// problem graph, and cfg, the array.  It proves that the cached IPRs
// fit the capacity S (§3.3.2), that the retiming is legal (Definition
// 3.1, Theorem 3.1) and the minimal one the plan's schedule and
// placement imply, and that a replicated kernel copies its first group.
// A baseline honours its dependencies and carries no retiming.  It
// does not re-run IterationSchedule.Validate, which a solver's schedule
// passes by construction and internal/run runs on every decoded plan.
// A solver holding pooled scratch calls checkPlan directly.
func CheckPlan(p *Plan, g *dag.Graph, cfg pim.Config) error {
	sc := planPool.Get().(*planScratch)
	defer planPool.Put(sc)
	sc.start = ints(sc.start, g.NumNodes())
	return checkPlan(p, g, cfg, sc.start)
}

// checkPlan is CheckPlan over need, caller-owned scratch of at least
// |V| ints whose contents it overwrites.
//
//paraconv:hotpath
func checkPlan(p *Plan, g *dag.Graph, cfg pim.Config, need []int) error {
	it, lr := &p.Iter, &p.LogicalRetiming
	ci, n, m := p.ConcurrentIterations, g.NumNodes(), g.NumEdges()
	switch { // lengths first: nothing below may index out of range
	case ci < 1 || cfg.NumPEs%ci != 0:
		return planError(p.Scheme, "%d concurrent iterations do not divide %d PEs", ci, cfg.NumPEs)
	case len(it.Tasks) != ci*n:
		return planError(p.Scheme, "%d tasks; want %d", len(it.Tasks), ci*n)
	case len(it.Assignment) != ci*m:
		return planError(p.Scheme, "%d placements; want %d", len(it.Assignment), ci*m)
	case it.PEs > cfg.NumPEs || ci > 1 && it.PEs != cfg.NumPEs:
		// A given objective schedule may use fewer PEs than the array
		// (Table 2 sweeps the array under one schedule); a replicated
		// kernel spans it.
		return planError(p.Scheme, "schedule on %d PEs for an array of %d", it.PEs, cfg.NumPEs)
	case it.Graph == nil || ci == 1 && it.Graph != g || it.Graph.NumNodes() != ci*n || it.Graph.NumEdges() != ci*m:
		return errKernelGraph
	}

	// One group's placement sets the cached count and footprint.
	group, used, cached := it.Assignment[:m], 0, 0
	for i, pl := range group {
		if pl == pim.InCache {
			used += g.Edges()[i].Size
			cached++
		} else if pl != pim.InEDRAM {
			return planError(p.Scheme, "edge %d has placement %d", i, int(pl))
		}
	}
	switch {
	case cached != p.CachedIPRs:
		return planError(p.Scheme, "%d IPRs cached; plan claims %d", cached, p.CachedIPRs)
	case ci*used != p.CacheLoadUnits:
		return planError(p.Scheme, "cached IPRs occupy %d units; plan claims %d", ci*used, p.CacheLoadUnits)
	case p.CacheLoadUnits > cfg.TotalCacheUnits():
		return planError(p.Scheme, "cached IPRs occupy %d units; the array holds %d", p.CacheLoadUnits, cfg.TotalCacheUnits())
	}
	// Group k is group 0 shifted by k·|V| vertices and k·PEs/CI PEs.
	for k := 1; k < ci; k++ {
		if !slices.Equal(it.Assignment[k*m:(k+1)*m], group) {
			return errReplica
		}
		for v, t := range it.Tasks[:n] {
			c := it.Tasks[k*n+v]
			if c.Node != t.Node+dag.NodeID(k*n) || c.PE != t.PE+pim.PEID(k*it.PEs/ci) || c.Start != t.Start || c.Finish != t.Finish {
				return errReplica
			}
		}
	}

	kr := &p.Retiming
	switch p.Scheme {
	case "sparta", "naive":
		if ci != 1 || p.RMax != 0 || len(kr.R)+len(kr.REdge)+len(lr.R)+len(lr.REdge) != 0 || kr.RMax|kr.Period|lr.RMax|lr.Period != 0 {
			return errBaseline
		}
		return it.CheckDependencies()
	case "para-conv":
	default:
		return errUnknownScheme
	}
	period, edges := it.Period, g.Edges()
	switch {
	case len(lr.R) != n || len(lr.REdge) != m:
		return planError(p.Scheme, "retiming covers %d vertices, %d edges", len(lr.R), len(lr.REdge))
	case lr.Period != period:
		return planError(p.Scheme, "retiming period %d; schedule period %d", lr.Period, period)
	}
	// Each rrv is the least its placement needs under the group's timing
	// (Figure 4), so 0 ≤ rrv ≤ 2 (Theorem 3.1), and each R(v) the least
	// that honours its out-edges, R(v) − R(j) ≥ rrv (Definition 3.1),
	// with sinks at 0.  One pass in edge order, so the graph is read
	// sequentially; need[v] gathers each vertex's least R.
	need = need[:n]
	clear(need)
	for i := range edges {
		e := &edges[i]
		if e.EDRAMTime > period {
			return planError(p.Scheme, "edge %d's eDRAM transfer exceeds period %d (Theorem 3.1)", i, period)
		}
		rrv := retime.MinRelative(it.Tasks[e.From].Finish, retime.TransferTime(e, group[i]), it.Tasks[e.To].Start, period)
		if lr.REdge[i] != rrv {
			return planError(p.Scheme, "edge %d's rrv is not %d, the least its placement needs", i, rrv)
		}
		need[e.From] = max(need[e.From], lr.R[e.To]+rrv)
	}
	rmax := 0
	for v, r := range lr.R {
		if r != need[v] {
			return planError(p.Scheme, "R(%d) is not %d, the least its out-edges need", v, need[v])
		}
		rmax = max(rmax, r)
	}
	if p.RMax != rmax || lr.RMax != rmax {
		return planError(p.Scheme, "R_max claimed %d; max R is %d", p.RMax, rmax)
	}
	// The kernel retiming repeats the logical one once per group.
	if len(kr.R) != ci*n || len(kr.REdge) != ci*m || kr.RMax != rmax || kr.Period != period {
		return errReplica
	}
	for k := 0; k < ci; k++ {
		if !slices.Equal(kr.R[k*n:(k+1)*n], lr.R) || !slices.Equal(kr.REdge[k*m:(k+1)*m], lr.REdge) {
			return errReplica
		}
	}
	return nil
}

// planError builds CheckPlan's errors out of line, so the hot path
// itself boxes nothing.
//
//go:noinline
func planError(scheme, format string, a, b int) error {
	return fmt.Errorf("sched: %s plan: "+format, scheme, a, b)
}
