package run

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pim"
	"repro/internal/synth"

	"repro/internal/dag"
)

func testGraph(t *testing.T, name string, vertices, edges int, seed int64) *dag.Graph {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: name, Vertices: vertices, Edges: edges, Seed: seed})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return g
}

func TestPlanCacheHitSharesPointer(t *testing.T) {
	s := New(context.Background())
	g := testGraph(t, "hit", 46, 121, 1046)
	cfg := pim.Neurocube(16)

	p1, err := s.Plan(g, cfg)
	if err != nil {
		t.Fatalf("first Plan: %v", err)
	}
	p2, err := s.Plan(g, cfg)
	if err != nil {
		t.Fatalf("second Plan: %v", err)
	}
	if p1 != p2 {
		t.Fatalf("cache hit returned a different *Plan: %p vs %p", p1, p2)
	}
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, size 1", st)
	}
}

func TestPlanCacheKeysByContent(t *testing.T) {
	s := New(context.Background())
	// Two separately generated graphs with identical parameters have
	// identical content, so the second solve must hit.
	g1 := testGraph(t, "content", 46, 121, 1046)
	g2 := testGraph(t, "content", 46, 121, 1046)
	if GraphFingerprint(g1) != GraphFingerprint(g2) {
		t.Fatalf("identical graphs fingerprint differently")
	}
	g3 := testGraph(t, "content", 46, 121, 99)
	if GraphFingerprint(g1) == GraphFingerprint(g3) {
		t.Fatalf("different graphs share a fingerprint")
	}

	cfg := pim.Neurocube(16)
	if _, err := s.Plan(g1, cfg); err != nil {
		t.Fatalf("Plan g1: %v", err)
	}
	if _, err := s.Plan(g2, cfg); err != nil {
		t.Fatalf("Plan g2: %v", err)
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want content-keyed hit across distinct pointers", st)
	}
}

func TestPlanCacheVariantsAndConfigsAreDistinct(t *testing.T) {
	s := New(context.Background())
	g := testGraph(t, "variants", 46, 121, 1046)

	if _, err := s.Plan(g, pim.Neurocube(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlanVariant("para-conv-single", g, pim.Neurocube(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Baseline(g, pim.Neurocube(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BaselineNaive(g, pim.Neurocube(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Plan(g, pim.Neurocube(32)); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Hits != 0 || st.Misses != 5 || st.Size != 5 {
		t.Fatalf("stats = %+v; want 5 distinct entries, no hits", st)
	}
}

func TestPlanCacheEvictsLRU(t *testing.T) {
	s := NewWithCacheBound(context.Background(), 2)
	g := testGraph(t, "evict", 46, 121, 1046)

	for _, pes := range []int{16, 32, 64} {
		if _, err := s.Plan(g, pim.Neurocube(pes)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v; want 1 eviction, size 2", st)
	}
	// The oldest entry (16 PEs) was evicted; re-planning it misses.
	if _, err := s.Plan(g, pim.Neurocube(16)); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("stats = %+v; want evicted entry to miss", st)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	s := NewWithCacheBound(context.Background(), 0)
	g := testGraph(t, "nocache", 46, 121, 1046)
	cfg := pim.Neurocube(16)
	p1, err := s.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("disabled cache still shared a plan pointer")
	}
	if st := s.CacheStats(); st.Size != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v; want size 0, 2 misses", st)
	}
}

func TestScheduleFingerprintDistinguishesSchedules(t *testing.T) {
	g := testGraph(t, "schedfp", 46, 121, 1046)
	s := New(context.Background())
	base, err := s.Baseline(g, pim.Neurocube(16))
	if err != nil {
		t.Fatal(err)
	}
	fp1 := ScheduleFingerprint(base.Iter)
	other := base.Iter
	other.Period++
	if fp1 == ScheduleFingerprint(other) {
		t.Fatalf("schedules with different periods share a fingerprint")
	}
	if fp1 != ScheduleFingerprint(base.Iter) {
		t.Fatalf("schedule fingerprint is not deterministic")
	}
}

// countingCtx is a context whose Err() starts returning
// context.Canceled after `limit` calls — a deterministic stand-in for
// mid-computation cancellation that also proves the planners and
// simulators actually poll ctx at iteration boundaries (a code path a
// timing-based test could miss entirely).
type countingCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func TestPlanReturnsContextCanceled(t *testing.T) {
	before := runtime.NumGoroutine()
	g := testGraph(t, "cancel-plan", 546, 1449, 1546)
	cctx := &countingCtx{Context: context.Background(), limit: 5}
	s := New(cctx)
	_, err := s.Plan(g, pim.Neurocube(64))
	if err == nil {
		t.Fatalf("Plan succeeded despite cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Plan error = %v; want errors.Is(err, context.Canceled)", err)
	}
	if calls := cctx.calls.Load(); calls <= 5 {
		t.Fatalf("ctx.Err polled %d times; cancellation never reached the solver loops", calls)
	}
	// Cancellation must not leak goroutines: the pipeline is
	// synchronous, so the count returns to its starting neighborhood.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew from %d to %d after cancelled Plan", before, after)
	}
}

func TestSimulateTraceReturnsContextCanceled(t *testing.T) {
	g := testGraph(t, "cancel-trace", 546, 1449, 1546)
	plan, err := New(context.Background()).Plan(g, pim.Neurocube(64))
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	cctx := &countingCtx{Context: context.Background(), limit: 10}
	s := New(cctx)
	_, _, err = s.SimulateTrace(plan, pim.Neurocube(64), 100)
	if err == nil {
		t.Fatalf("SimulateTrace succeeded despite cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateTrace error = %v; want errors.Is(err, context.Canceled)", err)
	}
}

func TestSimulateReturnsContextCanceled(t *testing.T) {
	g := testGraph(t, "cancel-sim", 546, 1449, 1546)
	plan, err := New(context.Background()).Plan(g, pim.Neurocube(64))
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	cctx := &countingCtx{Context: context.Background(), limit: 3}
	s := New(cctx)
	if _, err := s.Simulate(plan, pim.Neurocube(64), 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulate error = %v; want errors.Is(err, context.Canceled)", err)
	}
}

func TestSelectArchReturnsContextCanceled(t *testing.T) {
	g := testGraph(t, "cancel-select", 247, 652, 1247)
	cctx := &countingCtx{Context: context.Background(), limit: 2}
	s := New(cctx)
	_, _, err := s.SelectArch(g, []pim.Config{pim.Neurocube(16), pim.Neurocube(32)}, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectArch error = %v; want errors.Is(err, context.Canceled)", err)
	}
}
