package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dag"
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
	dst = appendHeader(dst, kind)
	return binary.LittleEndian.AppendUint32(dst, sched.SolverEpoch)
}

// newPlanDecoder opens a plan frame of the given kind, rejecting one
// solved in another epoch.
func newPlanDecoder(data []byte, kind byte) (*decoder, error) {
	d, err := newDecoder(data, kind)
	if err != nil {
		return nil, err
	}
	if len(d.data)-d.off < planEpochSize {
		return nil, d.truncated("solver epoch")
	}
	if epoch := binary.LittleEndian.Uint32(d.data[d.off:]); epoch != sched.SolverEpoch {
		return nil, fmt.Errorf("wire: plan frame from solver epoch %d; this build plans in epoch %d", epoch, sched.SolverEpoch)
	}
	d.off += planEpochSize
	return d, nil
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
	dst = appendString(dst, p.Scheme)
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
	dst = appendString(dst, p.Scheme)
	return appendPlanBody(dst, p)
}

// leanPlanFrame reports whether data is a lean (kernel-free) plan
// frame, so DecodeFillPlan can pick the matching decoder without
// committing to a parse.
func leanPlanFrame(data []byte) bool {
	return len(data) >= 4 && data[0] == 'P' && data[1] == 'C' && data[2] == kindLeanPlan
}

func (d *decoder) placements(what string) (retime.Assignment, error) {
	n, err := d.length(what)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	a := make(retime.Assignment, n)
	for i := 0; i < n; i++ {
		b := d.data[d.off]
		d.off++
		if b != byte(pim.InCache) && b != byte(pim.InEDRAM) {
			return nil, fmt.Errorf("wire: %s entry %d has placement byte %d", what, i, b)
		}
		a[i] = pim.Placement(b)
	}
	return a, nil
}

func (d *decoder) retimeResult(what string, r *retime.Result) error {
	var err error
	if r.R, err = d.ints(what+" r", nil); err != nil {
		return err
	}
	if r.REdge, err = d.ints(what+" redge", nil); err != nil {
		return err
	}
	if r.RMax, err = d.integer(what + " rmax"); err != nil {
		return err
	}
	r.Period, err = d.integer(what + " period")
	return err
}

// DecodePlan parses a stored-plan frame into a fresh plan.  The
// embedded kernel graph is decoded under lim (zero = unlimited) and
// validated by the dag decoder; the schedule's structural soundness is
// the caller's check.  No production code reads this frame: the
// serve-path benchmark does, and ROADMAP items 4a/8 retire it.
func DecodePlan(data []byte, lim dag.Limits) (*sched.Plan, error) {
	d, err := newPlanDecoder(data, kindStoredPlan)
	if err != nil {
		return nil, err
	}
	p := &sched.Plan{}
	if p.Scheme, err = d.str("scheme"); err != nil {
		return nil, err
	}
	if len(d.data)-d.off < 4 {
		return nil, d.truncated("graph length")
	}
	glen := int(binary.LittleEndian.Uint32(d.data[d.off:]))
	d.off += 4
	if glen > len(d.data)-d.off {
		return nil, fmt.Errorf("wire: graph length %d exceeds the %d input bytes remaining", glen, len(d.data)-d.off)
	}
	g, err := dag.DecodeBinary(d.data[d.off:d.off+glen], lim)
	if err != nil {
		return nil, &GraphError{Err: err}
	}
	d.off += glen
	p.Iter.Graph = g
	if err := d.planBody(p); err != nil {
		return nil, err
	}
	return p, nil
}

// planBody decodes every plan field after the kernel graph and seals
// the frame.
func (d *decoder) planBody(p *sched.Plan) error {
	var err error
	if p.Iter.PEs, err = d.integer("pes"); err != nil {
		return err
	}
	if p.Iter.Period, err = d.integer("period"); err != nil {
		return err
	}
	ntasks, err := d.length("tasks")
	if err != nil {
		return err
	}
	if ntasks > 0 {
		p.Iter.Tasks = make([]sched.Task, ntasks)
		for i := range p.Iter.Tasks {
			t := &p.Iter.Tasks[i]
			var v int
			if v, err = d.integer("task node"); err != nil {
				return err
			}
			t.Node = dag.NodeID(v)
			if v, err = d.integer("task pe"); err != nil {
				return err
			}
			t.PE = pim.PEID(v)
			if t.Start, err = d.integer("task start"); err != nil {
				return err
			}
			if t.Finish, err = d.integer("task finish"); err != nil {
				return err
			}
		}
	}
	if p.Iter.Assignment, err = d.placements("assignment"); err != nil {
		return err
	}
	if p.ConcurrentIterations, err = d.integer("concurrent_iterations"); err != nil {
		return err
	}
	if p.RMax, err = d.integer("r_max"); err != nil {
		return err
	}
	if err = d.retimeResult("retiming", &p.Retiming); err != nil {
		return err
	}
	if err = d.retimeResult("logical_retiming", &p.LogicalRetiming); err != nil {
		return err
	}
	if p.CachedIPRs, err = d.integer("cached_iprs"); err != nil {
		return err
	}
	if p.CacheLoadUnits, err = d.integer("cache_load_units"); err != nil {
		return err
	}
	return d.finish()
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
	d, err := newPlanDecoder(data, kindLeanPlan)
	if err != nil {
		return nil, err
	}
	p := &sched.Plan{}
	if p.Scheme, err = d.str("scheme"); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("wire: lean plan frame needs the problem graph to rebuild its kernel")
	}
	if err := d.planBody(p); err != nil {
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
