package run

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/wire"
)

// tierCounts is every counter that tells which tier served a plan: the
// session's own CacheStats plus the registry families benchmark/scrape.go
// asserts each workload's path from.
type tierCounts struct {
	memHits, memMisses     uint64
	storeHits, storeMisses uint64
	peerFills, fallbacks   uint64
	solves                 uint64 // paraconv_plan_solve_seconds_count
	obsStoreHits           int64  // paraconv_store_hits_total
	obsStoreWrites         int64  // paraconv_store_writes_total
	obsFallbacks           int64  // paraconv_cluster_fallback_solves_total
}

func readTierCounts(s *Session) tierCounts {
	cs := s.CacheStats()
	return tierCounts{
		memHits: cs.Hits, memMisses: cs.Misses,
		storeHits: cs.StoreHits, storeMisses: cs.StoreMisses,
		peerFills: cs.PeerFills, fallbacks: cs.PeerFallbacks,
		solves:         obs.PlanSolveTimer(variantParaCONV).Histogram().State().Count,
		obsStoreHits:   obs.StoreHits.Value(),
		obsStoreWrites: obs.StoreWrites.Value(),
		obsFallbacks:   obs.ClusterFallbackSolves.Value(),
	}
}

func (a tierCounts) minus(b tierCounts) tierCounts {
	return tierCounts{
		memHits: a.memHits - b.memHits, memMisses: a.memMisses - b.memMisses,
		storeHits: a.storeHits - b.storeHits, storeMisses: a.storeMisses - b.storeMisses,
		peerFills: a.peerFills - b.peerFills, fallbacks: a.fallbacks - b.fallbacks,
		solves:         a.solves - b.solves,
		obsStoreHits:   a.obsStoreHits - b.obsStoreHits,
		obsStoreWrites: a.obsStoreWrites - b.obsStoreWrites,
		obsFallbacks:   a.obsFallbacks - b.obsFallbacks,
	}
}

// TestTierDifferential serves one problem through every path a plan
// can take — local solve, memory hit, store hit, peer fill with a full
// and with a lean frame, and a corrupted frame in either outer tier —
// and requires that each path returns the plan a local solve produces
// (byte-identical wire.AppendPlan frames), moves exactly the counters
// that name its tier, and leaves a memory entry whose cached response
// bytes are the object path's.
func TestTierDifferential(t *testing.T) {
	g := testGraph(t, "tierdiff", 30, 70, 9900)
	cfg := pim.Neurocube(16)
	fp := PlanFingerprint("", "", g, cfg)

	ref, err := New(context.Background()).Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.AppendPlan(nil, ref)
	corrupt := append([]byte(nil), want...)
	corrupt = corrupt[:len(corrupt)/2] // still a plan header, no longer a plan

	openStore := func(t *testing.T, seed []byte) *store.Store {
		st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if seed != nil {
			if err := st.Put(fp, seed); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}

	for _, tc := range []struct {
		name string
		// build attaches the tiers under test to a fresh session.
		build func(t *testing.T, s *Session)
		// warm plans once before the measured call (the memory-hit row).
		warm bool
		want tierCounts
	}{
		{
			name:  "local solve",
			build: func(*testing.T, *Session) {},
			want:  tierCounts{memMisses: 1, solves: 1},
		},
		{
			name:  "memory hit",
			build: func(*testing.T, *Session) {},
			warm:  true,
			want:  tierCounts{memHits: 1},
		},
		{
			name:  "cold solve writes through",
			build: func(t *testing.T, s *Session) { s.AttachStore(openStore(t, nil)) },
			want:  tierCounts{memMisses: 1, storeMisses: 1, solves: 1, obsStoreWrites: 1},
		},
		{
			name:  "store hit",
			build: func(t *testing.T, s *Session) { s.AttachStore(openStore(t, want)) },
			want:  tierCounts{memMisses: 1, storeHits: 1, obsStoreHits: 1},
		},
		{
			name:  "store frame corrupted",
			build: func(t *testing.T, s *Session) { s.AttachStore(openStore(t, corrupt)) },
			// The store served bytes (its own hit), run rejected them (its
			// miss), the solver ran and the write-through replaced them.
			want: tierCounts{memMisses: 1, storeMisses: 1, solves: 1, obsStoreHits: 1, obsStoreWrites: 1},
		},
		{
			name:  "peer fill, full frame",
			build: func(t *testing.T, s *Session) { s.AttachPeers(&stubFiller{payload: want, ok: true}) },
			want:  tierCounts{memMisses: 1, peerFills: 1},
		},
		{
			name: "peer fill, lean frame",
			build: func(t *testing.T, s *Session) {
				s.AttachPeers(&stubFiller{payload: wire.AppendLeanPlan(nil, ref), ok: true})
			},
			want: tierCounts{memMisses: 1, peerFills: 1},
		},
		{
			name: "peer fill promotes to the store",
			build: func(t *testing.T, s *Session) {
				s.AttachStore(openStore(t, nil))
				s.AttachPeers(&stubFiller{payload: wire.AppendLeanPlan(nil, ref), ok: true})
			},
			want: tierCounts{memMisses: 1, storeMisses: 1, peerFills: 1, obsStoreWrites: 1},
		},
		{
			name:  "peer frame corrupted",
			build: func(t *testing.T, s *Session) { s.AttachPeers(&stubFiller{payload: corrupt, ok: true}) },
			want:  tierCounts{memMisses: 1, fallbacks: 1, solves: 1, obsFallbacks: 1},
		},
		{
			name:  "peer unavailable",
			build: func(t *testing.T, s *Session) { s.AttachPeers(&stubFiller{}) },
			want:  tierCounts{memMisses: 1, fallbacks: 1, solves: 1, obsFallbacks: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(context.Background())
			tc.build(t, s)
			if tc.warm {
				if _, err := s.Plan(g, cfg); err != nil {
					t.Fatal(err)
				}
			}
			before := readTierCounts(s)
			p, err := s.Plan(g, cfg)
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			if got := readTierCounts(s).minus(before); got != tc.want {
				t.Errorf("counters moved by %+v, want %+v", got, tc.want)
			}
			if !bytes.Equal(wire.AppendPlan(nil, p), want) {
				t.Error("plan does not re-encode to the local solve's frame")
			}
			// Whatever tier answered, the memory tier now holds the plan:
			// a caller knowing only the graph's hash gets it without ever
			// producing the graph, along with response bytes that equal
			// the object path's encoding at any horizon.
			hit, err := s.PlanVariantHashed("", GraphFingerprint(g), cfg, func() (*dag.Graph, error) {
				t.Error("a memory hit asked for the graph")
				return g, nil
			})
			if err != nil || hit.Plan != p {
				t.Fatalf("second plan = (%p, %v), want the promoted %p", hit.Plan, err, p)
			}
			if !hit.Frame.Built() {
				t.Fatal("memory entry carries no response frame")
			}
			for _, n := range []int{1, 100, 1_000_003} {
				got := hit.Frame.Append(nil, n, hit.Plan.TotalTime(n), hit.Plan.Throughput(n))
				if !bytes.Equal(got, wire.AppendPlanResponse(nil, wire.NewPlanResponse(ref, cfg.Name, n))) {
					t.Errorf("cached response frame at %d iterations differs from the object path's encoding", n)
				}
			}
			full, ok := s.EncodedPlanByFingerprint(fp, false)
			if !ok || !bytes.Equal(full, want) {
				t.Error("EncodedPlanByFingerprint(full) does not serve the local solve's frame")
			}
			lean, ok := s.EncodedPlanByFingerprint(fp, true)
			if !ok {
				t.Fatal("EncodedPlanByFingerprint(lean) missed")
			}
			var rebuilt *sched.Plan
			if rebuilt, err = wire.DecodeLeanPlan(lean, g); err != nil {
				t.Fatalf("lean frame: %v", err)
			}
			if !bytes.Equal(wire.AppendPlan(nil, rebuilt), want) {
				t.Error("lean frame does not rebuild to the local solve's frame")
			}
		})
	}
}

// TestFingerprintValuesPinned holds fingerprints to the hex strings the
// builds before hash-before-decode produced.  They name files in every
// existing -data-dir and route fills in every mixed-version ring, so a
// change here silently turns a warm fleet cold.
func TestFingerprintValuesPinned(t *testing.T) {
	g := testGraph(t, "pinned", 30, 70, 4242)
	for _, tc := range []struct{ name, got, want string }{
		{"graph", GraphFingerprint(g),
			"graph:e5b427d9dead54ca7d87467702e6601e7d8b07f48a24d12369ace1b410e0cb74"},
		{"default plan", PlanFingerprint("", "", g, pim.Neurocube(16)),
			"29d3cd09e088a773646ecd01537aec02a1550a54d08c4d12383cbdd75376f0fd"},
		{"variant and extra", PlanFingerprint("sparta", "x", g, pim.Neurocube(32)),
			"4edc81ff598351aa16709f7810441d53b381258ca079be04b72b186bb702e1ef"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// TestFrameAndGraphFingerprintsAgree: hashing a graph's frame in place
// and hashing the graph object give one key, across shapes and for
// every part of the plan key that is composed around it.
func TestFrameAndGraphFingerprintsAgree(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g := testGraph(t, "agree", 10+int(seed)*7, 20+int(seed)*19, 5000+seed)
		gfp := FrameFingerprint(dag.AppendBinary(nil, g))
		if gfp != GraphFingerprint(g) {
			t.Fatalf("seed %d: frame hash %s, graph hash %s", seed, gfp, GraphFingerprint(g))
		}
		cfg := pim.Neurocube(8 << (seed % 3))
		for _, k := range []struct{ variant, extra string }{{"", ""}, {"sparta", ""}, {variantGiven, "iter:abc"}} {
			if got, want := PlanFingerprintHashed(k.variant, k.extra, gfp, cfg), PlanFingerprint(k.variant, k.extra, g, cfg); got != want {
				t.Fatalf("seed %d %+v: hashed entry %s, graph entry %s", seed, k, got, want)
			}
		}
	}
}

// TestTextAndBinarySubmissionsAgree: one problem arriving as a text
// graph (parsed, then fingerprinted) and as a binary frame (hashed in
// place, decoded only on the miss) is one fingerprint and, solved on
// separate sessions, one plan byte for byte.
func TestTextAndBinarySubmissionsAgree(t *testing.T) {
	g := testGraph(t, "codecs", 40, 95, 9901)
	cfg := pim.Neurocube(16)
	var text bytes.Buffer
	if err := dag.WriteText(&text, g); err != nil {
		t.Fatal(err)
	}
	fromText, err := dag.ReadText(&text)
	if err != nil {
		t.Fatal(err)
	}
	frame := dag.AppendBinary(nil, g)
	if a, b := GraphFingerprint(fromText), FrameFingerprint(frame); a != b {
		t.Fatalf("text submission hashes to %s, binary to %s", a, b)
	}

	viaText, err := New(context.Background()).Plan(fromText, cfg)
	if err != nil {
		t.Fatal(err)
	}
	decodes := 0
	viaFrame, err := New(context.Background()).PlanVariantHashed("", FrameFingerprint(frame), cfg,
		func() (*dag.Graph, error) {
			decodes++
			return dag.DecodeBinary(frame, dag.Limits{})
		})
	if err != nil {
		t.Fatal(err)
	}
	if decodes != 1 {
		t.Errorf("a miss decoded the frame %d times, want once", decodes)
	}
	if !bytes.Equal(wire.AppendPlan(nil, viaText), wire.AppendPlan(nil, viaFrame.Plan)) {
		t.Error("text and binary submissions of one problem planned differently")
	}
}

// TestGraphErrorSurfacesUnwrapped: a graph that fails to materialise on
// the miss path is the caller's error verbatim — one counted miss, no
// flight, nothing cached.
func TestGraphErrorSurfacesUnwrapped(t *testing.T) {
	s := New(context.Background())
	boom := errors.New("frame does not decode")
	_, err := s.PlanVariantHashed("", FrameFingerprint([]byte("not a frame")), pim.Neurocube(16),
		func() (*dag.Graph, error) { return nil, boom })
	if err != boom {
		t.Fatalf("err = %v, want the graph func's own error", err)
	}
	if st := s.CacheStats(); st.Misses != 1 || st.Hits != 0 || st.Size != 0 {
		t.Errorf("stats = %+v, want exactly one miss and no entry", st)
	}
}
