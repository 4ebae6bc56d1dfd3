package span

import (
	"context"
	"testing"
	"time"
)

// withTracing turns the global gate on for one test and restores the
// default (off) afterwards.
func withTracing(t *testing.T) {
	t.Helper()
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(false) })
}

func TestStartEndNesting(t *testing.T) {
	withTracing(t)
	tr := New()
	ctx := NewContext(context.Background(), tr)

	root := Start(ctx, "server.plan")
	child := Start(ctx, "run.cache")
	grand := Start(ctx, "sched.knapsack")
	grand.End()
	child.End()
	sib := Start(ctx, "server.encode")
	sib.End()
	root.End()
	tr.Finish()

	spans := tr.Export()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	wantParents := map[string]int{
		"server.plan":    -1,
		"run.cache":      0,
		"sched.knapsack": 1,
		"server.encode":  0,
	}
	for i, sp := range spans {
		if want, ok := wantParents[sp.Name]; !ok || sp.Parent != want {
			t.Errorf("span %d %q: parent = %d, want %d", i, sp.Name, sp.Parent, want)
		}
		if sp.End < sp.Start {
			t.Errorf("span %q ends (%d) before it starts (%d)", sp.Name, sp.End, sp.Start)
		}
	}
	if tr.Duration() <= 0 {
		t.Errorf("finished trace duration = %v, want > 0", tr.Duration())
	}
}

func TestStartWithoutTraceOrGateIsNoop(t *testing.T) {
	// Gate off, trace present: no-op.
	tr := New()
	ctx := NewContext(context.Background(), tr)
	sp := Start(ctx, "ignored")
	sp.End()
	if n := tr.Len(); n != 0 {
		t.Fatalf("gate off recorded %d spans, want 0", n)
	}

	// Gate on, no trace in context: no-op (and End on the zero Span is
	// harmless).
	withTracing(t)
	sp = Start(context.Background(), "ignored")
	sp.End()
	sp.End()
}

func TestDisabledStartAllocsZero(t *testing.T) {
	// The serving path calls Start unconditionally; when tracing is off
	// it must not allocate.  This is the AllocsPerRun gate the serve
	// path's untraced requests (tracing disabled) lean on.
	SetEnabled(false)
	ctx := NewContext(context.Background(), New())
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := Start(ctx, "server.plan")
		sp.End()
	}); allocs != 0 {
		t.Fatalf("disabled Start/End allocates %.1f objects/op, want 0", allocs)
	}

	// Enabled but traceless contexts are the other no-op lane (every
	// non-server caller, e.g. benchtab, runs here when a daemon has
	// tracing on).
	SetEnabled(true)
	defer SetEnabled(false)
	bg := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := Start(bg, "server.plan")
		sp.End()
	}); allocs != 0 {
		t.Fatalf("traceless Start/End allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSpanCapDrops(t *testing.T) {
	withTracing(t)
	tr := New()
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < maxSpans+10; i++ {
		sp := Start(ctx, "s")
		sp.End()
	}
	if n := tr.Len(); n != maxSpans {
		t.Fatalf("trace holds %d spans, want cap %d", n, maxSpans)
	}
	tr.mu.Lock()
	dropped := tr.dropped
	tr.mu.Unlock()
	if dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
}

func TestIDString(t *testing.T) {
	id := ID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	if got, want := id.String(), "0123456789abcdeffedcba9876543210"; got != want {
		t.Fatalf("ID.String() = %q, want %q", got, want)
	}
	a, b := newID(), newID()
	if a == b {
		t.Fatal("consecutive ids collide")
	}
}

func TestSamplerEveryAndSlowLane(t *testing.T) {
	s := &Sampler{Every: 4, Slow: 10 * time.Millisecond}
	sampled := 0
	for i := 0; i < 100; i++ {
		if s.Sampled() {
			sampled++
		}
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 sampler admitted %d of 100, want 25", sampled)
	}
	if !s.Admit(true, 0) {
		t.Error("sampled trace rejected")
	}
	if s.Admit(false, 5*time.Millisecond) {
		t.Error("fast unsampled trace admitted")
	}
	if !s.Admit(false, 20*time.Millisecond) {
		t.Error("slow unsampled trace rejected (slow lane broken)")
	}

	off := &Sampler{}
	if off.Tracing() || off.Sampled() || off.Admit(true, time.Hour) {
		t.Error("zero sampler must never trace")
	}
	var nilSampler *Sampler
	if nilSampler.Tracing() {
		t.Error("nil sampler reports tracing")
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := New()
	d1 := tr.Finish()
	time.Sleep(time.Millisecond)
	d2 := tr.Finish()
	if d1 != d2 {
		t.Fatalf("second Finish changed the duration: %v -> %v", d1, d2)
	}
}
