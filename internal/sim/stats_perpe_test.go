package sim

import (
	"context"
	"testing"

	"repro/internal/pim"
	"repro/internal/sched"
)

// TestPerPEBusySumsToBusyPE checks the satellite invariant: the new
// Stats.PEBusy vector partitions BusyPE exactly, for both the retimed
// Para-CONV scheme and a sequential baseline, and agrees with the
// event-derived Trace.PEBusy profile entry by entry.
func TestPerPEBusySumsToBusyPE(t *testing.T) {
	g := synthGraph(t, 40, 90, 11)
	cfg := pim.Neurocube(8)

	plans := map[string]*sched.Plan{}
	pc, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans["para-conv"] = pc
	sp, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans["sparta"] = sp

	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			stats, tr, err := TraceRunCtx(context.Background(), plan, cfg, 24)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.PEBusy) != cfg.NumPEs {
				t.Fatalf("len(PEBusy) = %d, want %d", len(stats.PEBusy), cfg.NumPEs)
			}
			sum := 0
			for _, b := range stats.PEBusy {
				sum += b
			}
			if sum != stats.BusyPE {
				t.Errorf("sum(PEBusy) = %d, want BusyPE = %d", sum, stats.BusyPE)
			}
			// The closed-form vector must match the event-derived
			// profile: equal where the trace has entries, zero beyond
			// (Trace.PEBusy stops at the highest PE that ran a task).
			for pe, want := range tr.PEBusy {
				if stats.PEBusy[pe] != want {
					t.Errorf("PE %d: Stats.PEBusy = %d, Trace.PEBusy = %d", pe, stats.PEBusy[pe], want)
				}
			}
			for pe := len(tr.PEBusy); pe < len(stats.PEBusy); pe++ {
				if stats.PEBusy[pe] != 0 {
					t.Errorf("PE %d: Stats.PEBusy = %d, but the trace never ran it", pe, stats.PEBusy[pe])
				}
			}
		})
	}
}
