package run

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/wire"
)

// stubFiller is a PeerFiller with canned ownership and payload, so the
// run tier's fill logic is testable without a network.
type stubFiller struct {
	owns    bool
	payload []byte
	ok      bool

	calls    atomic.Int32
	mu       sync.Mutex
	lastFP   string
	lastFill []byte
}

func (f *stubFiller) Owns(string) bool { return f.owns }

func (f *stubFiller) Fill(_ context.Context, fp string, fill func() []byte) ([]byte, bool) {
	f.calls.Add(1)
	f.mu.Lock()
	f.lastFP = fp
	f.lastFill = nil
	if fill != nil {
		f.lastFill = append([]byte(nil), fill()...)
	}
	f.mu.Unlock()
	return f.payload, f.ok
}

// memBlobStore is an in-memory BlobStore for write-through assertions.
type memBlobStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemBlobStore() *memBlobStore { return &memBlobStore{m: make(map[string][]byte)} }

func (s *memBlobStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[key]
	return p, ok
}

func (s *memBlobStore) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), payload...)
	return nil
}

// TestPeerFillServesAndPromotes: a successful fill must return the
// peer's plan, count as a fill (not a solve fallback), and promote the
// payload into both local tiers — memory (so EncodedPlanByFingerprint
// serves it) and the durable store.
func TestPeerFillServesAndPromotes(t *testing.T) {
	g := testGraph(t, "peerfill", 24, 50, 9200)
	cfg := pim.Neurocube(16)
	fp := PlanFingerprint("", "", g, cfg)

	// Pre-solve the problem in an isolated session to play the owner.
	owner := New(context.Background())
	want, err := owner.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	filler := &stubFiller{payload: wire.AppendPlan(nil, want), ok: true}
	st := newMemBlobStore()
	s := New(context.Background())
	s.AttachStore(st)
	s.AttachPeers(filler)

	p, err := s.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Iter.Period != want.Iter.Period {
		t.Fatalf("filled plan period = %d, want the owner's %d", p.Iter.Period, want.Iter.Period)
	}
	if n := filler.calls.Load(); n != 1 {
		t.Fatalf("Fill called %d times, want 1", n)
	}
	filler.mu.Lock()
	gotFP, gotFill := filler.lastFP, filler.lastFill
	filler.mu.Unlock()
	if gotFP != fp {
		t.Errorf("Fill asked for %s, want %s", gotFP, fp)
	}
	// The fill frame must carry the full problem so the owner can solve
	// on the requester's behalf.
	pf, frame, err := wire.SplitPeerFill(gotFill)
	if err != nil {
		t.Fatalf("fill frame failed to split: %v", err)
	}
	if pf.Variant != variantParaCONV || pf.Config != cfg {
		t.Errorf("fill frame carries variant %q config %+v, want %q %+v", pf.Variant, pf.Config, variantParaCONV, cfg)
	}
	if FrameFingerprint(frame) != GraphFingerprint(g) {
		t.Error("fill frame's graph does not match the requested graph")
	}

	cs := s.CacheStats()
	if cs.PeerFills != 1 || cs.PeerFallbacks != 0 {
		t.Errorf("counters = %d fills / %d fallbacks, want 1 / 0", cs.PeerFills, cs.PeerFallbacks)
	}
	// Promoted into the durable tier verbatim-decodable…
	if _, ok := st.Get(fp); !ok {
		t.Error("fill was not written through to the durable store")
	}
	// …and into the memory tier's fingerprint index.
	payload, ok := s.EncodedPlanByFingerprint(fp)
	if !ok {
		t.Fatal("EncodedPlanByFingerprint missed after a fill")
	}
	if !bytes.Equal(payload, filler.payload) {
		t.Fatal("memory tier does not serve the fill's bytes verbatim")
	}

	// A second Plan is a plain memory hit: no second fill.
	if _, err := s.Plan(g, cfg); err != nil {
		t.Fatal(err)
	}
	if n := filler.calls.Load(); n != 1 {
		t.Errorf("Fill called %d times after a warm hit, want still 1", n)
	}
}

// TestPeerFillBadPayloadFallsBack: a peer handing back garbage must
// not fail the request — the leader logs, counts a fallback, and
// solves locally.
func TestPeerFillBadPayloadFallsBack(t *testing.T) {
	g := testGraph(t, "peerjunk", 24, 50, 9300)
	cfg := pim.Neurocube(16)

	filler := &stubFiller{payload: []byte("not a plan frame"), ok: true}
	s := New(context.Background())
	s.AttachPeers(filler)

	p, err := s.Plan(g, cfg)
	if err != nil {
		t.Fatalf("Plan failed instead of degrading to a local solve: %v", err)
	}
	if err := p.Iter.Validate(); err != nil {
		t.Fatalf("fallback plan invalid: %v", err)
	}
	cs := s.CacheStats()
	if cs.PeerFills != 0 || cs.PeerFallbacks != 1 {
		t.Errorf("counters = %d fills / %d fallbacks, want 0 / 1", cs.PeerFills, cs.PeerFallbacks)
	}
}

// TestPeerFillOwnerAndOptOut: the fingerprint's owner never fills
// (its local solve IS the cluster-wide solve), and a session derived
// with WithoutPeerFill never consults the cluster even as a non-owner.
func TestPeerFillOwnerAndOptOut(t *testing.T) {
	cfg := pim.Neurocube(16)

	ownerSide := &stubFiller{owns: true, ok: true}
	s1 := New(context.Background())
	s1.AttachPeers(ownerSide)
	if _, err := s1.Plan(testGraph(t, "peerown", 24, 50, 9400), cfg); err != nil {
		t.Fatal(err)
	}
	if n := ownerSide.calls.Load(); n != 0 {
		t.Errorf("owner issued %d fills for its own fingerprint, want 0", n)
	}

	optOut := &stubFiller{ok: true}
	s2 := New(context.Background())
	s2.AttachPeers(optOut)
	if _, err := s2.WithoutPeerFill().Plan(testGraph(t, "peeropt", 24, 50, 9500), cfg); err != nil {
		t.Fatal(err)
	}
	if n := optOut.calls.Load(); n != 0 {
		t.Errorf("WithoutPeerFill session issued %d fills, want 0", n)
	}
	cs := s2.CacheStats()
	if cs.PeerFills != 0 || cs.PeerFallbacks != 0 {
		t.Errorf("counters = %d fills / %d fallbacks for opted-out solves, want 0 / 0", cs.PeerFills, cs.PeerFallbacks)
	}
}

// TestEncodedPlanByFingerprintStoreTier: a restarted owner (fresh
// memory cache, same durable store) serves peer fills from the store's
// payload verbatim — the lean frame a para-conv plan rests in, and a
// baseline's self-contained frame.
func TestEncodedPlanByFingerprintStoreTier(t *testing.T) {
	g := testGraph(t, "peerstore", 24, 50, 9600)
	cfg := pim.Neurocube(16)
	fp := PlanFingerprint("", "", g, cfg)
	baselineFP := PlanFingerprint(variantSPARTA, "", g, cfg)
	st := newMemBlobStore()

	boot1 := New(context.Background())
	boot1.AttachStore(st)
	want, err := boot1.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := boot1.Baseline(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	boot2 := New(context.Background())
	boot2.AttachStore(st)
	for _, tc := range []struct {
		fp   string
		want *sched.Plan
	}{{fp, want}, {baselineFP, baseline}} {
		payload, ok := boot2.EncodedPlanByFingerprint(tc.fp)
		if !ok {
			t.Fatalf("%s: restarted owner missed a store-resident fingerprint", tc.want.Scheme)
		}
		if stored, _ := st.Get(tc.fp); !bytes.Equal(payload, stored) || !bytes.Equal(payload, wire.AppendAtRest(nil, tc.want)) {
			t.Fatalf("%s: store-served fill is not the stored at-rest frame", tc.want.Scheme)
		}
		p, err := wire.DecodeFillPlan(payload, g, dag.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Scheme != tc.want.Scheme || p.Iter.Period != tc.want.Iter.Period {
			t.Fatalf("store-served plan = %s period %d, want %s period %d", p.Scheme, p.Iter.Period, tc.want.Scheme, tc.want.Iter.Period)
		}
	}
	if _, ok := boot2.EncodedPlanByFingerprint("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"); ok {
		t.Fatal("unknown fingerprint claimed a hit")
	}
}

// TestPeerFillLeanPayload: a lean (kernel-free) fill payload must
// decode against the requester's own graph, serve the plan, and go
// through to the durable store verbatim — the lean frame is the
// para-conv plan's at-rest form, so the fill is written, not
// re-encoded.
func TestPeerFillLeanPayload(t *testing.T) {
	g := testGraph(t, "peerlean", 24, 50, 9700)
	cfg := pim.Neurocube(16)
	fp := PlanFingerprint("", "", g, cfg)

	owner := New(context.Background())
	want, err := owner.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Scheme != wire.SchemeParaCONV {
		t.Fatalf("fixture solved as %q, want %s", want.Scheme, wire.SchemeParaCONV)
	}

	filler := &stubFiller{payload: wire.AppendLeanPlan(nil, want), ok: true}
	st := newMemBlobStore()
	s := New(context.Background())
	s.AttachStore(st)
	s.AttachPeers(filler)

	p, err := s.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Iter.Period != want.Iter.Period {
		t.Fatalf("lean-filled plan period = %d, want %d", p.Iter.Period, want.Iter.Period)
	}
	if err := p.Iter.Validate(); err != nil {
		t.Fatalf("lean-filled plan invalid: %v", err)
	}
	cs := s.CacheStats()
	if cs.PeerFills != 1 || cs.PeerFallbacks != 0 {
		t.Errorf("counters = %d fills / %d fallbacks, want 1 / 0", cs.PeerFills, cs.PeerFallbacks)
	}
	payload, ok := st.Get(fp)
	if !ok {
		t.Fatal("lean fill was not written through to the durable store")
	}
	if !bytes.Equal(payload, filler.payload) {
		t.Fatal("durable store did not receive the fill's lean bytes verbatim")
	}
}

// TestEncodedFillByFingerprint: fill serving hands out the entry's
// at-rest frame on the memory tier — the same bytes every time, never
// re-encoded — and the stored bytes on the durable tier, and the two
// are identical.
func TestEncodedFillByFingerprint(t *testing.T) {
	g := testGraph(t, "peerleansrv", 24, 50, 9800)
	cfg := pim.Neurocube(16)
	fp := PlanFingerprint("", "", g, cfg)
	st := newMemBlobStore()

	boot1 := New(context.Background())
	boot1.AttachStore(st)
	want, err := boot1.Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	memLean, ok := boot1.EncodedPlanByFingerprint(fp)
	if !ok {
		t.Fatal("memory tier missed its own fingerprint")
	}
	if !bytes.Equal(memLean, wire.AppendLeanPlan(nil, want)) {
		t.Fatal("memory-tier fill payload is not the plan's lean frame")
	}
	again, ok := boot1.EncodedPlanByFingerprint(fp)
	if !ok || &again[0] != &memLean[0] {
		t.Error("second fill did not serve the entry's own at-rest frame")
	}

	boot2 := New(context.Background())
	boot2.AttachStore(st)
	storeLean, ok := boot2.EncodedPlanByFingerprint(fp)
	if !ok {
		t.Fatal("store tier missed a store-resident fingerprint")
	}
	if stored, _ := st.Get(fp); !bytes.Equal(storeLean, stored) {
		t.Fatal("store tier did not serve the stored bytes")
	}
	if !bytes.Equal(storeLean, memLean) {
		t.Fatal("store-tier fill differs from the memory tier's")
	}
	p, err := wire.DecodeLeanPlan(storeLean, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Iter.Period != want.Iter.Period {
		t.Fatalf("lean store fill period = %d, want %d", p.Iter.Period, want.Iter.Period)
	}
	if _, ok := boot2.EncodedPlanByFingerprint("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"); ok {
		t.Fatal("unknown fingerprint claimed a fill hit")
	}
}
