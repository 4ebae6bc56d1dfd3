package sim

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
	"repro/internal/synth"
)

func TestTraceRunMatchesRunParaCONV(t *testing.T) {
	g := synthGraph(t, 50, 120, 21)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, tr, err := TraceRunCtx(context.Background(), plan, cfg, 60)
	if err != nil {
		t.Fatalf("TraceRun: %v", err)
	}
	fast, err := RunCtx(context.Background(), plan, cfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, fast) {
		t.Errorf("TraceRun stats %+v != Run stats %+v", stats, fast)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	// Events sorted by time.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time < tr.Events[i-1].Time {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestTraceRunMatchesRunSPARTA(t *testing.T) {
	g := synthGraph(t, 40, 100, 8)
	cfg := pim.Neurocube(16)
	plan, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, tr, err := TraceRunCtx(context.Background(), plan, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunCtx(context.Background(), plan, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, fast) {
		t.Errorf("stats mismatch: %+v vs %+v", stats, fast)
	}
	// Every iteration appears and completes in order.
	prevDone := -1
	for it := 0; it < 20; it++ {
		start, done, ok := tr.IterationSpan(it)
		if !ok {
			t.Fatalf("iteration %d missing from trace", it)
		}
		if start >= done {
			t.Errorf("iteration %d: start %d >= done %d", it, start, done)
		}
		if done <= prevDone {
			t.Errorf("iteration %d completes at %d, not after %d", it, done, prevDone)
		}
		prevDone = done
	}
}

// TestTraceTaskInstanceCounts verifies the retimed execution table:
// every vertex executes once per completed round, plus R(v) prologue
// instances... i.e. exactly `rounds` instances within the horizon.
func TestTraceTaskInstanceCounts(t *testing.T) {
	g := synthGraph(t, 30, 70, 5)
	cfg := pim.Neurocube(8)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	iters := 24
	_, tr, err := TraceRunCtx(context.Background(), plan, cfg, iters)
	if err != nil {
		t.Fatal(err)
	}
	kernel := plan.ConcurrentIterations
	rounds := (iters + kernel - 1) / kernel
	for v := 0; v < plan.Iter.Graph.NumNodes(); v++ {
		evs := tr.TaskEvents(dag.NodeID(v))
		// start+end per instance.
		if len(evs) != 2*rounds {
			t.Fatalf("vertex %d has %d task events, want %d", v, len(evs), 2*rounds)
		}
	}
}

// TestTraceInstances checks the pairing both trace readers share:
// every end meets the start of its own instance, no earlier in time,
// every non-start event is visited once in log order, and an end whose
// start is missing is an error.
func TestTraceInstances(t *testing.T) {
	g := synthGraph(t, 30, 70, 5)
	cfg := pim.Neurocube(8)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := TraceRunCtx(context.Background(), plan, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	var visited []*Event
	err = tr.Instances(func(start, end *Event) error {
		visited = append(visited, end)
		same := start.Iter == end.Iter && start.Time <= end.Time
		switch end.Kind {
		case EvTaskEnd:
			same = same && start.Kind == EvTaskStart && start.Node == end.Node && start.PE == end.PE
		case EvTransferEnd:
			same = same && start.Kind == EvTransferStart && start.Edge == end.Edge
		default:
			same = start == end
		}
		if !same {
			t.Fatalf("%+v paired with %+v", *end, *start)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []*Event
	for i := range tr.Events {
		if k := tr.Events[i].Kind; k != EvTaskStart && k != EvTransferStart {
			want = append(want, &tr.Events[i])
		}
	}
	if !slices.Equal(visited, want) {
		t.Fatalf("visited %d events, want the log's %d non-start events in order", len(visited), len(want))
	}
	for _, kind := range []EventKind{EvTaskStart, EvTransferStart} {
		orphan := &Trace{Events: slices.DeleteFunc(slices.Clone(tr.Events), func(ev Event) bool { return ev.Kind == kind })}
		if err := orphan.Instances(func(_, _ *Event) error { return nil }); err == nil || !strings.Contains(err.Error(), "without start") {
			t.Errorf("trace without %v events: err = %v, want an end without a start", kind, err)
		}
	}
}

// TestTraceTransfersRespectInstanceOrder checks, for every transfer
// event pair, that the data leaves after its producer instance ends
// and arrives before its consumer instance starts.
func TestTraceTransfersRespectInstanceOrder(t *testing.T) {
	g := synthGraph(t, 40, 95, 13)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := TraceRunCtx(context.Background(), plan, cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	kg := plan.Iter.Graph

	type key struct {
		node dag.NodeID
		iter int
	}
	taskStart := map[key]int{}
	taskEnd := map[key]int{}
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvTaskStart:
			taskStart[key{ev.Node, ev.Iter}] = ev.Time
		case EvTaskEnd:
			taskEnd[key{ev.Node, ev.Iter}] = ev.Time
		}
	}
	checked := 0
	for _, ev := range tr.Events {
		if ev.Kind != EvTransferStart {
			continue
		}
		e := kg.Edge(ev.Edge)
		endT, ok1 := taskEnd[key{e.From, ev.Iter}]
		startT, ok2 := taskStart[key{e.To, ev.Iter}]
		if !ok1 || !ok2 {
			continue // instance outside horizon
		}
		if ev.Time < endT {
			t.Errorf("edge %d->%d iter %d: transfer at %d before producer end %d",
				e.From, e.To, ev.Iter, ev.Time, endT)
		}
		// Find the matching end event time = start + duration.
		dur := e.CacheTime
		if ev.Place == pim.InEDRAM {
			dur = e.EDRAMTime
		}
		if ev.Time+dur > startT {
			t.Errorf("edge %d->%d iter %d: transfer ends %d after consumer start %d",
				e.From, e.To, ev.Iter, ev.Time+dur, startT)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no transfers verified")
	}
}

func TestPlaceTransfer(t *testing.T) {
	cases := []struct {
		name                                    string
		dur, finish, start, period, gap, pr, cr int
		wantTime                                int
	}{
		{"same-round fits", 1, 2, 4, 8, 0, 3, 3, 26},
		{"tail fits", 3, 4, 1, 8, 1, 2, 3, 20},
		{"head fits", 5, 6, 5, 8, 1, 2, 3, 24},
		{"dedicated round", 8, 8, 0, 8, 2, 1, 3, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := placeTransfer(c.dur, c.finish, c.start, c.period, c.gap, c.pr, c.cr); got != c.wantTime {
				t.Errorf("time = %d, want %d", got, c.wantTime)
			}
		})
	}
}

// windowPlan is a two-vertex para-conv plan whose one eDRAM edge has
// the given transfer time, producer finish, consumer start, period and
// retiming gap, so a test can put the edge in any transfer window.
func windowPlan(dur, finish, start, period, gap int) *sched.Plan {
	g := dag.New("window")
	g.AddNode(dag.Node{Kind: dag.OpConv, Exec: finish})
	g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1})
	g.AddEdge(dag.Edge{From: 0, To: 1, Size: 1, CacheTime: 1, EDRAMTime: dur})
	return &sched.Plan{
		Scheme: "para-conv",
		Iter: sched.IterationSchedule{
			Graph:  g,
			PEs:    2,
			Period: period,
			Tasks: []sched.Task{
				{Node: 0, PE: 0, Start: 0, Finish: finish},
				{Node: 1, PE: 1, Start: start, Finish: start + 1},
			},
			Assignment: retime.Assignment{pim.InEDRAM},
		},
		ConcurrentIterations: 1,
		RMax:                 gap,
		Retiming:             retime.Result{R: []int{gap, 0}, REdge: []int{gap}, RMax: gap, Period: period},
	}
}

// TestTraceRunRejectsBadInput runs every row through both simulator
// entries: they prove a plan with one pass, so each must reject it
// with the same error.
func TestTraceRunRejectsBadInput(t *testing.T) {
	g := synthGraph(t, 20, 45, 1)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sparta, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	badCfg := cfg
	badCfg.NumPEs = 0
	// Half the PEs with the same total cache: only the PE count is wrong.
	small := pim.Neurocube(cfg.NumPEs / 2)
	small.CacheUnitsPerPE = 2 * cfg.CacheUnitsPerPE
	unknown := *plan
	unknown.Scheme = "wat"
	overfull := *plan
	overfull.CacheLoadUnits = cfg.TotalCacheUnits() + 1
	// A consumer moved ahead of its producer's data.
	late := *sparta
	late.Iter.Tasks = slices.Clone(sparta.Iter.Tasks)
	c := &late.Iter.Tasks[g.Edge(0).To]
	c.Finish -= c.Start
	c.Start = 0
	// An edge whose chosen rrv exceeds its retiming gap.
	raised := *plan
	raised.Retiming.REdge = slices.Clone(plan.Retiming.REdge)
	for i := range g.Edges() {
		e := g.Edge(dag.EdgeID(i))
		if gap := plan.Retiming.R[e.From] - plan.Retiming.R[e.To]; gap < 2 {
			raised.Retiming.REdge[i] = gap + 1
			break
		}
	}
	rows := []struct {
		name       string
		plan       *sched.Plan
		cfg        pim.Config
		iterations int
		want       string
	}{
		{"nil plan", nil, cfg, 5, "nil plan"},
		{"zero iterations", plan, cfg, 0, "0 iterations"},
		{"invalid config", plan, badCfg, 5, "sim: "},
		{"more PEs than the array", plan, small, 5, "the array has"},
		{"unknown scheme", &unknown, cfg, 5, "unknown scheme"},
		{"cache over capacity", &overfull, cfg, 5, "capacity units"},
		{"dependency violation", &late, cfg, 5, "violates dependencies"},
		{"REdge above gap", &raised, cfg, 5, "< rrv"},
		{"same-round misses", windowPlan(3, 2, 4, 8, 0), cfg, 5, "unschedulable"},
		{"one-gap misses", windowPlan(7, 6, 5, 8, 1), cfg, 5, "unschedulable"},
		{"oversize", windowPlan(9, 8, 0, 8, 2), cfg, 5, "unschedulable"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, runErr := RunCtx(context.Background(), row.plan, row.cfg, row.iterations)
			_, tr, traceErr := TraceRunCtx(context.Background(), row.plan, row.cfg, row.iterations)
			if runErr == nil || traceErr == nil {
				t.Fatalf("RunCtx err = %v, TraceRunCtx err = %v; want both to reject", runErr, traceErr)
			}
			if runErr.Error() != traceErr.Error() {
				t.Errorf("RunCtx err = %q, TraceRunCtx err = %q; want the same", runErr, traceErr)
			}
			if !strings.Contains(runErr.Error(), row.want) {
				t.Errorf("err = %q, want it to name %q", runErr, row.want)
			}
			if tr != nil {
				t.Error("TraceRunCtx returned a trace with its error")
			}
		})
	}
	// The window rows' plans are sound apart from the one transfer: at
	// one time unit the same edge fits every window.
	for _, gap := range []int{0, 1, 2} {
		fits := windowPlan(1, 6, 7, 8, gap)
		if _, err := RunCtx(context.Background(), fits, cfg, 5); err != nil {
			t.Errorf("gap %d: RunCtx rejected a fitting transfer: %v", gap, err)
		}
		if _, _, err := TraceRunCtx(context.Background(), fits, cfg, 5); err != nil {
			t.Errorf("gap %d: TraceRunCtx rejected a fitting transfer: %v", gap, err)
		}
	}
}

func TestTraceResourceProfiles(t *testing.T) {
	g := synthGraph(t, 60, 150, 17)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := TraceRunCtx(context.Background(), plan, cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PeakConcurrentEDRAM < 0 {
		t.Error("negative eDRAM concurrency")
	}
	// Some transfers must be in flight at peak unless everything is
	// cached.
	if plan.CachedIPRs < plan.Iter.Graph.NumEdges() && tr.PeakConcurrentEDRAM == 0 {
		t.Error("eDRAM transfers exist but peak concurrency is zero")
	}
}

func TestEventKindString(t *testing.T) {
	for ev, want := range map[EventKind]string{
		EvTaskStart: "task-start", EvTransferEnd: "xfer-end",
		EvIterationDone: "iter-done", EventKind(99): "event(99)",
	} {
		if ev.String() != want {
			t.Errorf("%d.String() = %q, want %q", ev, ev.String(), want)
		}
	}
}

// Property: the trace-driven and closed-form simulators agree for
// random graphs and architectures, for both schemes.
func TestTraceAgreesWithRunProperty(t *testing.T) {
	f := func(seed int64, vRaw, peRaw, schemeRaw uint8) bool {
		v := int(vRaw%30) + 5
		e := v + int(seed&0x0F)%v
		g, err := synth.Generate(synth.Params{Vertices: v, Edges: e, Seed: seed})
		if err != nil {
			return true
		}
		cfg := pim.Neurocube([]int{4, 8, 16}[int(peRaw)%3])
		var plan *sched.Plan
		if schemeRaw%2 == 0 {
			plan, err = sched.ParaCONVCtx(context.Background(), g, cfg)
		} else {
			plan, err = sched.SPARTACtx(context.Background(), g, cfg)
		}
		if err != nil {
			return false
		}
		slow, _, err := TraceRunCtx(context.Background(), plan, cfg, 11)
		if err != nil {
			return false
		}
		fast, err := RunCtx(context.Background(), plan, cfg, 11)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(slow, fast)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTracePEBusyProfile(t *testing.T) {
	g := synthGraph(t, 40, 100, 19)
	cfg := pim.Neurocube(8)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, tr, err := TraceRunCtx(context.Background(), plan, cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range tr.PEBusy {
		if b < 0 {
			t.Fatalf("negative busy time %d", b)
		}
		total += b
	}
	if total != stats.BusyPE {
		t.Errorf("trace busy sum %d != stats.BusyPE %d", total, stats.BusyPE)
	}
	if tr.BusySpread() < 0 {
		t.Error("negative spread")
	}
	if (&Trace{}).BusySpread() != 0 {
		t.Error("empty trace spread != 0")
	}
}
