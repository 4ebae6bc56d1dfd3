// Package sched builds executable schedules for CNN task graphs on the
// PIM PE array: the Para-CONV software-pipelined schedule (paper §3),
// the SPARTA baseline [6] it is evaluated against (§4), and a naive
// round-robin floor below both.
//
// Para-CONV produces a compact steady-state kernel: vertices are
// packed onto PEs ignoring intra-iteration dependencies (retiming
// turns them into inter-iteration dependencies), yielding an iteration
// period close to the rate-optimal bound max(⌈Σc_i/P⌉, max c_i).  The
// price is a prologue of R_max iterations that pre-executes retimed
// operations; Para-CONV's DP allocator (internal/core) minimizes that
// price under the cache capacity.  When one iteration cannot fill the
// array, the kernel is replicated across equal PE groups, each running
// its own iterations (Plan.ConcurrentIterations).
//
// SPARTA is a throughput-aware runtime task allocator for many-core
// platforms: it characterizes tasks from sensor observations (here:
// their measured execution times and traffic volumes), prioritizes
// them, and list-schedules each iteration respecting all intra-
// iteration dependencies — no retiming, no software pipelining.  One
// iteration spans the whole array and iterations run back to back, so
// the iteration interval is the whole makespan.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
)

// SolverEpoch names the planning behaviour of this build: bump it when
// any solver or cost-model change can alter a plan for the same input.
// Every encoded plan carries the epoch it was solved in, and a frame
// from another epoch — a stale -data-dir, an older ring member — is a
// miss that re-solves, never a plan this build would not produce.
const SolverEpoch = 1

// Task is one vertex's placement in an iteration schedule.
type Task struct {
	Node   dag.NodeID
	PE     pim.PEID
	Start  int
	Finish int
}

// IterationSchedule is the schedule of a single iteration of the task
// graph on a PE group.
type IterationSchedule struct {
	// Graph is the scheduled task graph.
	Graph *dag.Graph
	// PEs is the number of processing engines the iteration uses.
	PEs int
	// Period is the iteration interval: for Para-CONV, the kernel
	// length after which the next iteration starts; for SPARTA, the
	// iteration makespan.
	Period int
	// Tasks is indexed by dag.NodeID.
	Tasks []Task
	// Assignment places every IPR in cache or eDRAM.
	Assignment retime.Assignment
}

// Timing projects the schedule into the form the retiming analysis
// consumes.
func (s *IterationSchedule) Timing() retime.Timing {
	tm := retime.Timing{
		Start:  make([]int, len(s.Tasks)),
		Finish: make([]int, len(s.Tasks)),
		Period: s.Period,
	}
	for i := range s.Tasks {
		tm.Start[i] = s.Tasks[i].Start
		tm.Finish[i] = s.Tasks[i].Finish
	}
	return tm
}

// Validate checks structural soundness: every vertex scheduled exactly
// once, task windows inside [0, Period], durations matching Exec, PEs
// in range, and no two tasks overlapping on one PE.  It does NOT check
// dependencies — Para-CONV kernels intentionally break intra-iteration
// ordering (retiming legality is checked separately via
// retime.CheckLegal), while SPARTA schedules check them with
// CheckDependencies.
func (s *IterationSchedule) Validate() error {
	var errs []error
	if s.Graph == nil {
		return errors.New("sched: schedule has no graph")
	}
	if len(s.Tasks) != s.Graph.NumNodes() {
		return fmt.Errorf("sched: %d tasks for %d vertices", len(s.Tasks), s.Graph.NumNodes())
	}
	if s.Period < 1 {
		errs = append(errs, fmt.Errorf("sched: period %d; want >= 1", s.Period))
	}
	if len(s.Assignment) != s.Graph.NumEdges() {
		errs = append(errs, fmt.Errorf("sched: assignment covers %d/%d edges", len(s.Assignment), s.Graph.NumEdges()))
	}
	// The overlap check buckets tasks by PE through one counting pass
	// and one scatter pass into a single backing slice, then
	// insertion-sorts each PE's short run by start time.  Validate
	// guards every decoded plan — store hits and cluster peer fills —
	// so it stays off maps and sort closures; PE counts above the task
	// count fall back to counting only the PEs in use (a frame can
	// declare any PE count it likes, and the counts slice must not
	// scale with a lie).
	inRange := 0
	for i := range s.Tasks {
		t := s.Tasks[i]
		if t.Node != dag.NodeID(i) {
			errs = append(errs, fmt.Errorf("sched: task %d carries node id %d", i, t.Node))
		}
		if t.PE < 0 || int(t.PE) >= s.PEs {
			errs = append(errs, fmt.Errorf("sched: task %d on PE %d; want in [0,%d)", i, t.PE, s.PEs))
		} else {
			inRange++
		}
		if t.Start < 0 || t.Finish > s.Period {
			errs = append(errs, fmt.Errorf("sched: task %d window [%d,%d] outside [0,%d]", i, t.Start, t.Finish, s.Period))
		}
		if got, want := t.Finish-t.Start, s.Graph.Node(dag.NodeID(i)).Exec; got != want {
			errs = append(errs, fmt.Errorf("sched: task %d duration %d; Exec is %d", i, got, want))
		}
	}
	if s.PEs < 0 {
		// Every task already errored as out of range; there is no PE
		// axis to check overlaps on.
		return errors.Join(errs...)
	}
	if s.PEs > 4*len(s.Tasks)+4096 {
		// Absurdly wide PE declaration relative to the task count:
		// check overlaps through a flat (PE, start) sort instead of
		// per-PE buckets.  Only reachable through hostile or corrupt
		// frames, so clarity beats speed here.
		flat := make([]Task, 0, inRange)
		for _, t := range s.Tasks {
			if t.PE >= 0 && int(t.PE) < s.PEs {
				flat = append(flat, t)
			}
		}
		sort.SliceStable(flat, func(a, b int) bool {
			if flat[a].PE != flat[b].PE {
				return flat[a].PE < flat[b].PE
			}
			return flat[a].Start < flat[b].Start
		})
		for i := 1; i < len(flat); i++ {
			if flat[i].PE == flat[i-1].PE && flat[i].Start < flat[i-1].Finish {
				errs = append(errs, overlapError(flat[i].PE, flat[i-1], flat[i]))
			}
		}
		return errors.Join(errs...)
	}
	counts := make([]int, s.PEs+1)
	for _, t := range s.Tasks {
		if t.PE >= 0 && int(t.PE) < s.PEs {
			counts[t.PE+1]++
		}
	}
	for pe := 1; pe <= s.PEs; pe++ {
		counts[pe] += counts[pe-1]
	}
	byPE := make([]Task, inRange)
	next := counts
	for _, t := range s.Tasks {
		if t.PE >= 0 && int(t.PE) < s.PEs {
			byPE[next[t.PE]] = t
			next[t.PE]++
		}
	}
	// next[pe] now holds each run's end offset (= the original prefix
	// sum shifted by one use), so run pe spans [next[pe-1], next[pe]) —
	// iterated in PE order, keeping the joined error text (part of
	// golden test output and reports) deterministic.
	start := 0
	for pe := 0; pe < s.PEs; pe++ {
		run := byPE[start:next[pe]]
		start = next[pe]
		// Stable insertion sort by start time: runs are short (tasks
		// spread across the array), and stability keeps tie order — and
		// therefore error text — deterministic.
		for i := 1; i < len(run); i++ {
			for j := i; j > 0 && run[j].Start < run[j-1].Start; j-- {
				run[j], run[j-1] = run[j-1], run[j]
			}
		}
		for i := 1; i < len(run); i++ {
			if run[i].Start < run[i-1].Finish {
				errs = append(errs, overlapError(pim.PEID(pe), run[i-1], run[i]))
			}
		}
	}
	return errors.Join(errs...)
}

func overlapError(pe pim.PEID, a, b Task) error {
	return fmt.Errorf("sched: PE %d: tasks %d and %d overlap ([%d,%d] vs [%d,%d])",
		pe, a.Node, b.Node, a.Start, a.Finish, b.Start, b.Finish)
}

// CheckDependencies verifies that every edge's consumer starts no
// earlier than its producer's finish plus the transfer time of the
// chosen placement — the discipline SPARTA schedules must satisfy
// within one iteration.
func (s *IterationSchedule) CheckDependencies() error {
	var errs []error
	for i := range s.Graph.Edges() {
		e := s.Graph.Edge(dag.EdgeID(i))
		transfer := e.CacheTime
		if len(s.Assignment) == s.Graph.NumEdges() {
			transfer = retime.TransferTime(e, s.Assignment[i])
		}
		ready := s.Tasks[e.From].Finish + transfer
		if s.Tasks[e.To].Start < ready {
			errs = append(errs, fmt.Errorf("sched: edge %d->%d: consumer starts %d before data ready %d",
				e.From, e.To, s.Tasks[e.To].Start, ready))
		}
	}
	return errors.Join(errs...)
}

// PELoads returns the busy time of each PE in the iteration.
func (s *IterationSchedule) PELoads() []int {
	loads := make([]int, s.PEs)
	for i := range s.Tasks {
		loads[s.Tasks[i].PE] += s.Tasks[i].Finish - s.Tasks[i].Start
	}
	return loads
}

// Utilization returns the fraction of PE-time spent computing within
// the iteration period.
func (s *IterationSchedule) Utilization() float64 {
	if s.PEs == 0 || s.Period == 0 {
		return 0
	}
	busy := 0
	for _, l := range s.PELoads() {
		busy += l
	}
	return float64(busy) / float64(s.PEs*s.Period)
}

// Plan is a complete execution plan for an application: how one
// iteration is scheduled, how iterations compose over time, and the
// retiming cost.
type Plan struct {
	// Scheme names the scheduler that produced the plan
	// ("para-conv", "sparta" or "naive").
	Scheme string
	// Iter is the schedule of a single iteration.
	Iter IterationSchedule
	// ConcurrentIterations is the number of independent iterations one
	// period completes: the PE groups a Para-CONV kernel is replicated
	// across; 1 for SPARTA and naive, whose iterations run back to
	// back.
	ConcurrentIterations int
	// RMax is the maximum retiming value (0 for SPARTA and naive).
	RMax int
	// Retiming carries the per-vertex retiming result expanded to the
	// kernel graph Iter.Graph (zero value for SPARTA and naive).
	Retiming retime.Result
	// LogicalRetiming is the retiming result on the original
	// (un-unrolled) application graph for Para-CONV plans.
	LogicalRetiming retime.Result
	// CachedIPRs is the number of logical intermediate processing
	// results placed in on-chip cache (Figure 6's metric).
	CachedIPRs int
	// CacheLoadUnits is the cache capacity those IPRs occupy; each
	// logical IPR holds one slot that successive iterations reuse.
	CacheLoadUnits int
}

// PrologueTime returns the preprocessing time R_max x p before the
// steady-state kernel (0 for SPARTA and naive).
func (p *Plan) PrologueTime() int { return p.RMax * p.Iter.Period }

// TotalTime returns the end-to-end execution time of `iterations`
// iterations of the application: prologue plus steady state, each
// period completing ConcurrentIterations iterations (a replicated
// Para-CONV kernel's groups).
func (p *Plan) TotalTime(iterations int) int {
	if iterations <= 0 {
		return 0
	}
	groups := p.ConcurrentIterations
	if groups < 1 {
		groups = 1
	}
	rounds := (iterations + groups - 1) / groups
	return p.PrologueTime() + rounds*p.Iter.Period
}

// Throughput returns iterations completed per unit time over a run of
// the given length.
func (p *Plan) Throughput(iterations int) float64 {
	t := p.TotalTime(iterations)
	if t == 0 {
		return 0
	}
	return float64(iterations) / float64(t)
}

// IterationTime returns the effective per-iteration execution time in
// steady state: the period divided by the iterations in flight.
func (p *Plan) IterationTime() float64 {
	groups := p.ConcurrentIterations
	if groups < 1 {
		groups = 1
	}
	return float64(p.Iter.Period) / float64(groups)
}
