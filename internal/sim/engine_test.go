package sim

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/pim"
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
		wantOK                                  bool
		wantTime                                int
	}{
		{"same-round fits", 1, 2, 4, 8, 0, 3, 3, true, 26},
		{"same-round misses", 3, 2, 4, 8, 0, 3, 3, false, 0},
		{"tail fits", 3, 4, 1, 8, 1, 2, 3, true, 20},
		{"head fits", 5, 6, 5, 8, 1, 2, 3, true, 24},
		{"one-gap misses", 7, 6, 5, 8, 1, 2, 3, false, 0},
		{"dedicated round", 8, 8, 0, 8, 2, 1, 3, true, 16},
		{"oversize", 9, 8, 0, 8, 2, 1, 3, false, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := placeTransfer(c.dur, c.finish, c.start, c.period, c.gap, c.pr, c.cr)
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v", ok, c.wantOK)
			}
			if ok && got != c.wantTime {
				t.Errorf("time = %d, want %d", got, c.wantTime)
			}
		})
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

func TestTraceRunRejectsBadInput(t *testing.T) {
	g := synthGraph(t, 20, 45, 1)
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := TraceRunCtx(context.Background(), nil, cfg, 5); err == nil {
		t.Error("nil plan accepted")
	}
	if _, _, err := TraceRunCtx(context.Background(), plan, cfg, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	unknown := *plan
	unknown.Scheme = "wat"
	if _, _, err := TraceRunCtx(context.Background(), &unknown, cfg, 5); err == nil {
		t.Error("unknown scheme accepted")
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
