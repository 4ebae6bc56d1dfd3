package sim

import (
	"context"
	"testing"

	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/synth"
)

// The sim benchmarks cover both execution paths: the closed-form RunCtx
// (the serving path's workhorse) and the event-level TraceRunCtx whose
// buffers are preallocated from plan-derived bounds.

func benchPlan(b *testing.B) (*sched.Plan, pim.Config) {
	b.Helper()
	g, err := synth.Generate(synth.Params{Name: "simbench", Vertices: 240, Edges: 600, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	cfg := pim.Neurocube(16)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return plan, cfg
}

func BenchmarkSimRun(b *testing.B) {
	plan, cfg := benchPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCtx(context.Background(), plan, cfg, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceRun(b *testing.B) {
	plan, cfg := benchPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TraceRunCtx(context.Background(), plan, cfg, 20); err != nil {
			b.Fatal(err)
		}
	}
}
