package sim

import (
	"context"
	"testing"

	"repro/internal/pim"
	"repro/internal/sched"
)

// TestTraceEventBufferExactPrealloc pins the plan-derived sizing of
// the trace event log: both generators must compute the event count
// exactly from the plan (tasks, edges, rounds) and allocate the log
// once, so a full run never regrows the buffer.  A drift between the
// formula and the emission loops shows up here as cap != len.
func TestTraceEventBufferExactPrealloc(t *testing.T) {
	g := synthGraph(t, 40, 90, 11)
	cfg := pim.Neurocube(8)

	pc, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]*sched.Plan{"para-conv": pc, "sparta": sp} {
		t.Run(name, func(t *testing.T) {
			for _, iters := range []int{1, 7, 24} {
				_, tr, err := TraceRunCtx(context.Background(), plan, cfg, iters)
				if err != nil {
					t.Fatal(err)
				}
				if len(tr.Events) == 0 {
					t.Fatalf("iters=%d: empty trace", iters)
				}
				if cap(tr.Events) != len(tr.Events) {
					t.Errorf("iters=%d: event log len %d but cap %d; plan-derived bound is not exact",
						iters, len(tr.Events), cap(tr.Events))
				}
				if len(tr.PEBusy) != plan.Iter.PEs {
					t.Errorf("iters=%d: PEBusy length %d, want preallocated %d", iters, len(tr.PEBusy), plan.Iter.PEs)
				}
			}
		})
	}
}
