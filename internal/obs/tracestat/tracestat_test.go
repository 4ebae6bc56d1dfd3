package tracestat

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/synth"
)

func synthGraph(t *testing.T, v, e int, seed int64) *dag.Graph {
	t.Helper()
	g, err := synth.Generate(synth.Params{Vertices: v, Edges: e, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkReport asserts the structural invariants every report must
// satisfy against its source run: lanes tile [0, Cycles) exactly, the
// per-state totals partition each lane, busy time matches the
// simulator's per-PE accounting, and the aggregate utilization equals
// the closed-form one.
func checkReport(t *testing.T, rep *Report, stats sim.Stats) {
	t.Helper()
	if len(rep.Lanes) != stats.NumPEs {
		t.Fatalf("report has %d lanes, want %d", len(rep.Lanes), stats.NumPEs)
	}
	for i := range rep.Lanes {
		lane := &rep.Lanes[i]
		cursor := 0
		totals := map[State]int{}
		for _, seg := range lane.Segments {
			if seg.Start != cursor {
				t.Fatalf("PE %d: segment starts at %d, cursor %d (gap or overlap)", i, seg.Start, cursor)
			}
			if seg.End <= seg.Start {
				t.Fatalf("PE %d: empty or inverted segment %+v", i, seg)
			}
			totals[seg.State] += seg.End - seg.Start
			cursor = seg.End
		}
		if cursor != rep.Cycles {
			t.Errorf("PE %d: timeline ends at %d, want %d", i, cursor, rep.Cycles)
		}
		if totals[Busy] != lane.Busy || totals[Prologue] != lane.Prologue ||
			totals[WaitTransfer] != lane.WaitTransfer || totals[NoReady] != lane.NoReady {
			t.Errorf("PE %d: segment totals %v disagree with lane counters %+v", i, totals, lane)
		}
		if lane.Busy != stats.PEBusy[i] {
			t.Errorf("PE %d: lane busy %d != Stats.PEBusy %d", i, lane.Busy, stats.PEBusy[i])
		}
	}
	if rep.Busy != stats.BusyPE {
		t.Errorf("aggregate busy %d != BusyPE %d", rep.Busy, stats.BusyPE)
	}
	if got, want := rep.Utilization(), stats.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Errorf("report utilization %v != stats utilization %v", got, want)
	}
}

func TestAnalyzeParaCONV(t *testing.T) {
	g := synthGraph(t, 40, 90, 5)
	cfg := pim.Neurocube(8)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, tr, err := sim.TraceRunCtx(context.Background(), plan, cfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(tr, plan, stats)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, stats)
	if want := plan.RMax * plan.Iter.Period; rep.PrologueEnd != want {
		t.Errorf("PrologueEnd = %d, want %d", rep.PrologueEnd, want)
	}
	if plan.RMax > 0 && rep.Prologue == 0 {
		t.Error("retimed plan reported no prologue idle time")
	}
}

func TestAnalyzeSPARTA(t *testing.T) {
	g := synthGraph(t, 30, 60, 9)
	cfg := pim.Neurocube(8)
	plan, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, tr, err := sim.TraceRunCtx(context.Background(), plan, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(tr, plan, stats)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, stats)
	if rep.PrologueEnd != 0 || rep.Prologue != 0 {
		t.Errorf("sequential plan reported prologue idle (%d units before %d)", rep.Prologue, rep.PrologueEnd)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, &sched.Plan{}, sim.Stats{NumPEs: 1}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Analyze(&sim.Trace{}, nil, sim.Stats{NumPEs: 1}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := Analyze(&sim.Trace{}, &sched.Plan{}, sim.Stats{}); err == nil {
		t.Error("zero-PE stats accepted")
	}
}

func TestWriteText(t *testing.T) {
	g := synthGraph(t, 20, 40, 3)
	cfg := pim.Neurocube(4)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, tr, err := sim.TraceRunCtx(context.Background(), plan, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(tr, plan, stats)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "no-ready") || !strings.Contains(out, "all") {
		t.Errorf("report text missing expected columns:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != cfg.NumPEs+2 {
		t.Errorf("report has %d lines, want %d (header + lanes + aggregate)", got, cfg.NumPEs+2)
	}
}
