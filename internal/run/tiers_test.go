package run

import (
	"bytes"
	"context"
	"testing"

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
// (byte-identical wire.AppendPlan frames) and moves exactly the
// counters that name its tier.
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
			// Whatever tier answered, the memory tier now holds the plan
			// and serves it to a peer in both framings.
			again, err := s.Plan(g, cfg)
			if err != nil || again != p {
				t.Fatalf("second Plan = (%p, %v), want the promoted %p", again, err, p)
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
