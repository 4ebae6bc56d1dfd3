package run

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/store"
	"repro/internal/synth"
)

// openStore opens a store on dir and lands its accepted writes before
// the test's temp dirs are removed.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Flush(context.Background()); err != nil {
			t.Error(err)
		}
	})
	return st
}

func storeTestGraph(t *testing.T, seed int64) *dag.Graph {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: "runstore", Vertices: 30, Edges: 60, Seed: seed})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return g
}

// TestStoreWarmRestart is the subsystem's reason to exist in
// miniature: a first "boot" solves and writes through, a second boot —
// a fresh Session over the same data dir — serves the same problems
// with zero solves.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := pim.Neurocube(8)
	graphs := []*dag.Graph{storeTestGraph(t, 1), storeTestGraph(t, 2), storeTestGraph(t, 3)}

	st1 := openStore(t, dir)
	boot1 := New(context.Background())
	boot1.AttachStore(st1)
	wantPeriods := make([]int, len(graphs))
	for i, g := range graphs {
		p, err := boot1.Plan(g, cfg)
		if err != nil {
			t.Fatalf("boot1 Plan(%d): %v", i, err)
		}
		wantPeriods[i] = p.Iter.Period
	}
	cs := boot1.CacheStats()
	if cs.StoreHits != 0 || cs.StoreMisses != uint64(len(graphs)) {
		t.Fatalf("boot1 store counters = %d hits / %d misses, want 0 / %d", cs.StoreHits, cs.StoreMisses, len(graphs))
	}
	if st1.Stats().Writes != uint64(len(graphs)) {
		t.Fatalf("boot1 wrote %d entries, want %d", st1.Stats().Writes, len(graphs))
	}

	// Second boot: fresh in-memory cache, same dir, once the first
	// boot's writes have landed.  Every plan must come from the durable
	// tier — StoreHits counts exactly the lookups, and the solver (which
	// would bump StoreMisses on its way in) never runs.
	if err := st1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	boot2 := New(context.Background())
	boot2.AttachStore(st2)
	for i, g := range graphs {
		p, err := boot2.Plan(g, cfg)
		if err != nil {
			t.Fatalf("boot2 Plan(%d): %v", i, err)
		}
		if p.Iter.Period != wantPeriods[i] {
			t.Fatalf("boot2 plan %d period = %d, want %d", i, p.Iter.Period, wantPeriods[i])
		}
		if err := p.Iter.Validate(); err != nil {
			t.Fatalf("boot2 plan %d invalid: %v", i, err)
		}
	}
	cs = boot2.CacheStats()
	if cs.StoreHits != uint64(len(graphs)) || cs.StoreMisses != 0 {
		t.Fatalf("boot2 store counters = %d hits / %d misses, want %d / 0 (zero solves)", cs.StoreHits, cs.StoreMisses, len(graphs))
	}
	// Third lookup of a warm graph stays in memory: the store is not
	// consulted again once an entry is promoted.
	if _, err := boot2.Plan(graphs[0], cfg); err != nil {
		t.Fatal(err)
	}
	if cs2 := boot2.CacheStats(); cs2.StoreHits != cs.StoreHits {
		t.Fatalf("in-memory hit re-consulted the store: %d -> %d", cs.StoreHits, cs2.StoreHits)
	}
}

// TestStoreUndecodableEntryFallsThrough plants a frame that passes the
// store's CRC but is not a plan; run must treat it as a miss and
// solve.
func TestStoreUndecodableEntryFallsThrough(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	g := storeTestGraph(t, 4)
	cfg := pim.Neurocube(8)
	key := PlanFingerprint("", "", g, cfg)
	if err := st.Put(key, []byte("not a plan frame")); err != nil {
		t.Fatal(err)
	}
	sess := New(context.Background())
	sess.AttachStore(st)
	p, err := sess.Plan(g, cfg)
	if err != nil {
		t.Fatalf("Plan with a poisoned store entry: %v", err)
	}
	if p.Iter.Period <= 0 {
		t.Fatalf("Plan returned an empty plan: %+v", p)
	}
	cs := sess.CacheStats()
	if cs.StoreHits != 0 || cs.StoreMisses != 1 {
		t.Fatalf("store counters = %d hits / %d misses, want 0 / 1", cs.StoreHits, cs.StoreMisses)
	}
	// The write-through replaced the junk; a fresh session now hits.
	fresh := New(context.Background())
	fresh.AttachStore(st)
	if _, err := fresh.Plan(g, cfg); err != nil {
		t.Fatal(err)
	}
	if cs := fresh.CacheStats(); cs.StoreHits != 1 {
		t.Fatalf("replaced entry did not serve a fresh session: %+v", cs)
	}
}

// failingStore satisfies BlobStore and refuses every write.
type failingStore struct{}

func (failingStore) Get(string) ([]byte, bool) { return nil, false }
func (failingStore) Put(string, []byte) error  { return errors.New("disk full") }

func TestStoreWriteThroughFailureIsNotFatal(t *testing.T) {
	sess := New(context.Background())
	sess.AttachStore(failingStore{})
	p, err := sess.Plan(storeTestGraph(t, 5), pim.Neurocube(8))
	if err != nil {
		t.Fatalf("Plan failed because write-through failed: %v", err)
	}
	if p == nil || p.Iter.Period <= 0 {
		t.Fatal("Plan returned no usable plan")
	}
}

func TestWithContextSharesStore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	sess := New(context.Background())
	sess.AttachStore(st)
	derived := sess.WithContext(context.Background())
	if _, err := derived.Plan(storeTestGraph(t, 6), pim.Neurocube(8)); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Writes != 1 {
		t.Fatalf("derived session did not write through: %+v", st.Stats())
	}
}
