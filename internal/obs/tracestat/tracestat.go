// Package tracestat derives observability analytics from a simulation
// event log (sim.Trace): per-PE utilization timelines and a breakdown
// of idle time into pipeline-fill prologue, waiting-on-transfer and
// no-ready-task — the quantities the paper's utilization argument
// (§2.3, §4) is made of, reconstructed from events rather than closed
// forms so the two accountings cross-check each other.
package tracestat

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/sched"
	"repro/internal/sim"
)

// State classifies one segment of a PE's timeline.
type State uint8

const (
	// Busy: the PE is executing a task instance.
	Busy State = iota
	// Prologue: idle during the pipeline-fill rounds (the first
	// RMax kernel periods of a retimed plan) — the iteration streams
	// feeding this PE have not all started yet.
	Prologue
	// WaitTransfer: idle outside the prologue while at least one IPR
	// transfer is in flight somewhere — the pipeline is stalled on
	// data movement, not on work supply.
	WaitTransfer
	// NoReady: idle with no transfer in flight — the schedule simply
	// has no task for this PE at this time (load imbalance, drain).
	NoReady State = 3
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Busy:
		return "busy"
	case Prologue:
		return "prologue"
	case WaitTransfer:
		return "wait-transfer"
	case NoReady:
		return "no-ready-task"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Segment is one maximal run of a single state on a PE's timeline.
type Segment struct {
	Start int // inclusive, in schedule time units
	End   int // exclusive
	State State
}

// Lane is one PE's full timeline plus its per-state totals.
type Lane struct {
	PE int
	// Segments tile [0, Cycles) exactly, in time order.
	Segments []Segment
	// Per-state totals, in time units; they sum to Cycles.
	Busy         int
	Prologue     int
	WaitTransfer int
	NoReady      int
}

// Utilization is the lane's busy fraction of the run.
func (l *Lane) Utilization(cycles int) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(l.Busy) / float64(cycles)
}

// Report is the trace-derived analytics of one simulation run.
type Report struct {
	// Cycles is the run length; every lane tiles [0, Cycles).
	Cycles int
	// PrologueEnd is the absolute time the pipeline fill completes
	// (RMax x period for retimed plans, 0 otherwise).
	PrologueEnd int
	// Lanes holds one timeline per PE, indexed by PE id.
	Lanes []Lane
	// Aggregate per-state totals over all lanes, in PE-time units.
	Busy         int
	Prologue     int
	WaitTransfer int
	NoReady      int
}

// Utilization is the aggregate busy fraction — it equals
// sim.Stats.Utilization for the same run.
func (r *Report) Utilization() float64 {
	total := r.Cycles * len(r.Lanes)
	if total == 0 {
		return 0
	}
	return float64(r.Busy) / float64(total)
}

// interval is a half-open [start, end) span.
type interval struct{ start, end int }

// mergeIntervals sorts and unions overlapping/adjacent intervals.
func mergeIntervals(in []interval) []interval {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].start != in[j].start {
			return in[i].start < in[j].start
		}
		return in[i].end < in[j].end
	})
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Analyze post-processes a trace into the per-PE utilization timelines
// and the idle-time breakdown.  plan must be the plan the trace was
// generated from (its retiming locates the prologue) and stats the
// matching run statistics (its Cycles and NumPEs frame the timelines).
func Analyze(tr *sim.Trace, plan *sched.Plan, stats sim.Stats) (*Report, error) {
	if tr == nil {
		return nil, fmt.Errorf("tracestat: nil trace")
	}
	if plan == nil {
		return nil, fmt.Errorf("tracestat: nil plan")
	}
	if stats.Cycles < 0 || stats.NumPEs < 1 {
		return nil, fmt.Errorf("tracestat: stats frame %d cycles x %d PEs; want >= 0 x >= 1", stats.Cycles, stats.NumPEs)
	}

	rep := &Report{Cycles: stats.Cycles, Lanes: make([]Lane, stats.NumPEs)}
	if plan.Scheme == "para-conv" {
		rep.PrologueEnd = plan.RMax * plan.Iter.Period
	}

	// Busy intervals per PE and the union of in-flight transfers.
	busy := make([][]interval, stats.NumPEs)
	var transfers []interval
	err := tr.Instances(func(s, ev *sim.Event) error {
		switch ev.Kind {
		case sim.EvTaskEnd:
			if int(ev.PE) >= stats.NumPEs {
				return fmt.Errorf("tracestat: event on PE %d; stats say %d PEs", ev.PE, stats.NumPEs)
			}
			if ev.Time > s.Time {
				busy[ev.PE] = append(busy[ev.PE], interval{s.Time, ev.Time})
			}
		case sim.EvTransferEnd:
			if ev.Time > s.Time {
				transfers = append(transfers, interval{s.Time, ev.Time})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	moving := mergeIntervals(transfers)

	for pe := range rep.Lanes {
		lane := &rep.Lanes[pe]
		lane.PE = pe
		peBusy := mergeIntervals(busy[pe]) // already disjoint for a legal schedule; merge sorts
		cursor := 0
		for _, b := range append(peBusy, interval{rep.Cycles, rep.Cycles}) {
			if b.start > cursor {
				classifyIdle(lane, cursor, min(b.start, rep.Cycles), rep.PrologueEnd, moving)
			}
			if b.end > b.start && b.start < rep.Cycles {
				end := min(b.end, rep.Cycles)
				lane.Segments = append(lane.Segments, Segment{Start: b.start, End: end, State: Busy})
				lane.Busy += end - b.start
			}
			if b.end > cursor {
				cursor = b.end
			}
		}
		rep.Busy += lane.Busy
		rep.Prologue += lane.Prologue
		rep.WaitTransfer += lane.WaitTransfer
		rep.NoReady += lane.NoReady
	}
	return rep, nil
}

// classifyIdle splits the idle span [start, end) of a lane at the
// prologue boundary and against the in-flight transfer union, and
// appends the resulting segments.
func classifyIdle(lane *Lane, start, end, prologueEnd int, moving []interval) {
	if start >= end {
		return
	}
	if start < prologueEnd {
		cut := min(end, prologueEnd)
		lane.Segments = append(lane.Segments, Segment{Start: start, End: cut, State: Prologue})
		lane.Prologue += cut - start
		start = cut
		if start >= end {
			return
		}
	}
	// Walk the transfer union across [start, end).
	cursor := start
	for _, mv := range moving {
		if mv.end <= cursor {
			continue
		}
		if mv.start >= end {
			break
		}
		if mv.start > cursor {
			lane.Segments = append(lane.Segments, Segment{Start: cursor, End: mv.start, State: NoReady})
			lane.NoReady += mv.start - cursor
			cursor = mv.start
		}
		stop := min(mv.end, end)
		lane.Segments = append(lane.Segments, Segment{Start: cursor, End: stop, State: WaitTransfer})
		lane.WaitTransfer += stop - cursor
		cursor = stop
		if cursor >= end {
			return
		}
	}
	if cursor < end {
		lane.Segments = append(lane.Segments, Segment{Start: cursor, End: end, State: NoReady})
		lane.NoReady += end - cursor
	}
}

// WriteText renders the report as an aligned table: one row per PE
// with its utilization and idle breakdown, then the aggregate line.
func (r *Report) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PE\tbusy\tutil%\tprologue\twait-xfer\tno-ready")
	for i := range r.Lanes {
		l := &r.Lanes[i]
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%d\t%d\t%d\n",
			l.PE, l.Busy, 100*l.Utilization(r.Cycles), l.Prologue, l.WaitTransfer, l.NoReady)
	}
	fmt.Fprintf(tw, "all\t%d\t%.1f\t%d\t%d\t%d\n",
		r.Busy, 100*r.Utilization(), r.Prologue, r.WaitTransfer, r.NoReady)
	return tw.Flush()
}
