package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dag"
	"repro/internal/frame"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
)

// The plan frames carry a complete *sched.Plan — everything a
// restarted daemon needs to serve a previously solved graph without
// re-running the solver.  The lean frame is the durable store's payload
// and the cluster fill protocol's, for every scheme; the stored-plan
// frame is written and read only by the benchmarks.  Both open with the
// solver epoch that made the plan (sched.SolverEpoch, 4 bytes
// little-endian) after the envelope and decode only in that epoch, so a
// plan from a solver that may plan differently is a miss, never served.
// Epochless frames from older builds hold their scheme's length and
// first letters there, which never read as a small epoch.  The stored-plan frame embeds the
// kernel graph as a length-prefixed dag frame mid-stream (more fields
// follow it); both round-trip the full retiming results.

// kindStoredPlan is the frame kind byte of a self-contained plan, which
// embeds its kernel graph.  No program keeps a plan in it: a store or
// peer frame of this kind is a miss.
const kindStoredPlan = 'L'

// kindLeanPlan is the frame kind byte of a kernel-free plan: the same
// fields as a stored plan minus the embedded graph, and the at-rest
// form of every plan.  Every reader of a plan outside memory holds the
// problem graph it was solved from — a store hit runs after the
// request's graph is decoded, a fill requester ships it — and every
// kernel is derivable from it: a plan at one concurrent iteration
// schedules the problem graph itself, and a para-conv kernel is
// Replicate(graph, ConcurrentIterations) by construction (see
// internal/sched), so keeping it is redundancy.
const kindLeanPlan = 'l'

// SchemeParaCONV is the one plan scheme that replicates its kernel
// (Iter.Graph == Replicate(g, CI) for every para-conv plan the solvers
// build), so the only one a lean frame may carry at CI > 1.
const SchemeParaCONV = "para-conv"

// planEpochSize is the width of the solver-epoch field.
const planEpochSize = 4

// appendPlanHeader opens a plan frame of the given kind: the envelope,
// then the solver epoch.
func appendPlanHeader(dst []byte, kind byte) []byte {
	dst = frame.AppendHeader(dst, kind, Version)
	return binary.LittleEndian.AppendUint32(dst, sched.SolverEpoch)
}

// openPlan opens a plan frame of the given kind, rejecting one solved
// in another epoch.
func openPlan(data []byte, kind byte) frame.Reader {
	d := open(data, kind)
	if epoch := d.Uint32("solver epoch"); epoch != sched.SolverEpoch {
		d.Fail(fmt.Errorf("wire: plan frame from solver epoch %d; this build plans in epoch %d", epoch, sched.SolverEpoch))
	}
	return d
}

func appendPlacements(dst []byte, a retime.Assignment) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a)))
	for _, p := range a {
		dst = append(dst, byte(p))
	}
	return dst
}

func appendRetimeResult(dst []byte, r *retime.Result) []byte {
	dst = appendInts(dst, r.R)
	dst = appendInts(dst, r.REdge)
	dst = appendInt(dst, r.RMax)
	return appendInt(dst, r.Period)
}

// appendPlanBody appends every plan field after the kernel graph —
// the part stored-plan and lean frames share.
func appendPlanBody(dst []byte, p *sched.Plan) []byte {
	dst = appendInt(dst, p.Iter.PEs)
	dst = appendInt(dst, p.Iter.Period)
	dst = binary.AppendUvarint(dst, uint64(len(p.Iter.Tasks)))
	for i := range p.Iter.Tasks {
		t := &p.Iter.Tasks[i]
		dst = appendInt(dst, int(t.Node))
		dst = appendInt(dst, int(t.PE))
		dst = appendInt(dst, t.Start)
		dst = appendInt(dst, t.Finish)
	}
	dst = appendPlacements(dst, p.Iter.Assignment)
	dst = appendInt(dst, p.ConcurrentIterations)
	dst = appendInt(dst, p.RMax)
	dst = appendRetimeResult(dst, &p.Retiming)
	dst = appendRetimeResult(dst, &p.LogicalRetiming)
	dst = appendInt(dst, p.CachedIPRs)
	return appendInt(dst, p.CacheLoadUnits)
}

// AppendPlan appends the self-contained stored-plan frame of p to dst.
// No program keeps a plan in it: only the serve-path benchmark and the
// kernel chain's store/plan_encode_200 row write it, and ROADMAP items
// 4a/8 and 17 retire those.
//
//paraconv:hotpath
func AppendPlan(dst []byte, p *sched.Plan) []byte {
	dst = appendPlanHeader(dst, kindStoredPlan)
	dst = frame.AppendBytes(dst, p.Scheme)
	// The kernel graph is length-prefixed because plan fields follow
	// it; the dag decoder is handed exactly its slice.
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0) // fixed 4-byte length backpatched below
	dst = dag.AppendBinary(dst, p.Iter.Graph)
	binary.LittleEndian.PutUint32(dst[mark:], uint32(len(dst)-mark-4))
	return appendPlanBody(dst, p)
}

// AppendLeanPlan appends the kernel-free encoding of p to dst: the
// frame every plan is kept in outside memory — the memory entry's
// copy, the store payload and every fill answer.
//
//paraconv:hotpath
func AppendLeanPlan(dst []byte, p *sched.Plan) []byte {
	dst = appendPlanHeader(dst, kindLeanPlan)
	dst = frame.AppendBytes(dst, p.Scheme)
	return appendPlanBody(dst, p)
}

// leanPlanFrame reports whether data is a lean (kernel-free) plan
// frame, so DecodeFillPlan can pick the matching decoder without
// committing to a parse.
func leanPlanFrame(data []byte) bool {
	return len(data) >= 4 && data[0] == 'P' && data[1] == 'C' && data[2] == kindLeanPlan
}

// placements reads an IPR assignment: one placement byte per edge.
func placements(d *frame.Reader, what string) retime.Assignment {
	n := d.Len(what)
	if d.Err() != nil || n == 0 {
		return nil
	}
	a := make(retime.Assignment, n)
	for i := range a {
		b := d.Byte(what)
		if b != byte(pim.InCache) && b != byte(pim.InEDRAM) {
			d.Fail(fmt.Errorf("wire: %s entry %d has placement byte %d", what, i, b))
			return nil
		}
		a[i] = pim.Placement(b)
	}
	return a
}

// retimeResult reads one retime.Result; each label names its field.
func retimeResult(d *frame.Reader, r, redge, rmax, period string) retime.Result {
	return retime.Result{R: ints(d, r, nil), REdge: ints(d, redge, nil), RMax: d.Int(rmax), Period: d.Int(period)}
}

// DecodePlan parses a stored-plan frame into a fresh plan.  The
// embedded kernel graph is decoded under lim (zero = unlimited) and
// validated by the dag decoder; the schedule's structural soundness is
// the caller's check.  No production code reads this frame: the
// serve-path benchmark does, and ROADMAP items 4a/8 retire it.
func DecodePlan(data []byte, lim dag.Limits) (*sched.Plan, error) {
	d := openPlan(data, kindStoredPlan)
	p := &sched.Plan{Scheme: d.String("scheme")}
	graph := d.Take(int(d.Uint32("graph length")), "graph")
	if err := d.Err(); err != nil {
		return nil, err
	}
	g, err := dag.DecodeBinary(graph, lim)
	if err != nil {
		return nil, &GraphError{Err: err}
	}
	p.Iter.Graph = g
	if err := planBody(&d, p); err != nil {
		return nil, err
	}
	return p, nil
}

// planBody decodes every plan field after the kernel graph and seals
// the frame.
func planBody(d *frame.Reader, p *sched.Plan) error {
	p.Iter.PEs = d.Int("pes")
	p.Iter.Period = d.Int("period")
	n := d.Len("tasks")
	if err := d.Err(); err != nil {
		return err
	}
	if n > 0 {
		p.Iter.Tasks = make([]sched.Task, n)
		for i := range p.Iter.Tasks {
			p.Iter.Tasks[i] = sched.Task{Node: dag.NodeID(d.Int("task node")), PE: pim.PEID(d.Int("task pe")),
				Start: d.Int("task start"), Finish: d.Int("task finish")}
		}
	}
	p.Iter.Assignment = placements(d, "assignment")
	p.ConcurrentIterations = d.Int("concurrent_iterations")
	p.RMax = d.Int("r_max")
	p.Retiming = retimeResult(d, "retiming r", "retiming redge", "retiming rmax", "retiming period")
	p.LogicalRetiming = retimeResult(d, "logical_retiming r", "logical_retiming redge", "logical_retiming rmax", "logical_retiming period")
	p.CachedIPRs = d.Int("cached_iprs")
	p.CacheLoadUnits = d.Int("cache_load_units")
	return d.Finish()
}

// DecodeLeanPlan parses a kernel-free plan frame against g, the
// problem graph the requester already holds, rebuilding the kernel the
// solver would have built: for one concurrent iteration, of any scheme,
// the kernel IS the problem graph (aliased, exactly as every solver
// plans on its caller's graph), and for a para-conv plan at more,
// Replicate derives it.  The decoded plan still carries no proof it
// matches g: internal/run's admission runs IterationSchedule.Validate
// and sched.CheckPlan on it before serving it.
//
//paraconv:hotpath
func DecodeLeanPlan(data []byte, g *dag.Graph) (*sched.Plan, error) {
	d := openPlan(data, kindLeanPlan)
	p := &sched.Plan{Scheme: d.String("scheme")}
	if g == nil {
		d.Fail(fmt.Errorf("wire: lean plan frame needs the problem graph to rebuild its kernel"))
	}
	if err := planBody(&d, p); err != nil {
		return nil, err
	}
	// One task per kernel vertex: checking that here keeps a lying CI
	// from sizing the Replicate, as the frame's length bounds the tasks.
	n, ci := g.NumNodes(), p.ConcurrentIterations
	if ci < 1 || ci > len(p.Iter.Tasks) || len(p.Iter.Tasks) != ci*n {
		return nil, fmt.Errorf("wire: lean plan has %d tasks for %d concurrent iterations of a %d-vertex graph", len(p.Iter.Tasks), ci, n)
	}
	if ci > 1 && p.Scheme != SchemeParaCONV {
		return nil, fmt.Errorf("wire: lean %q plan replicates its kernel; only %s kernels replicate", p.Scheme, SchemeParaCONV)
	}
	var err error
	if ci == 1 {
		p.Iter.Graph = g
	} else if p.Iter.Graph, err = dag.Replicate(g, ci); err != nil {
		return nil, fmt.Errorf("wire: rebuilding lean plan kernel: %w", err)
	}
	return p, nil
}

// DecodeFillPlan decodes a plan frame of either kind — lean against g,
// the problem graph in hand, or the self-contained stored-plan frame
// under lim.  No production code calls it: admission reads only lean
// frames (DecodeLeanPlan), so a stored-plan frame from disk or a peer
// is a miss.  The serve-path benchmark times it, and ROADMAP items
// 4a/8 retire it.
func DecodeFillPlan(data []byte, g *dag.Graph, lim dag.Limits) (*sched.Plan, error) {
	if leanPlanFrame(data) {
		return DecodeLeanPlan(data, g)
	}
	return DecodePlan(data, lim)
}
