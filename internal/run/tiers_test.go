package run

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/check"
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
		solves: obs.PlanSolveTimer(variantParaCONV).Histogram().State().Count +
			obs.PlanSolveTimer(variantSPARTA).Histogram().State().Count,
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

// checkAgainstProblem re-derives a plan's correctness from g, the
// problem graph, trusting none of the plan's own bookkeeping: its
// kernel is g unrolled ConcurrentIterations times, the kernel schedule
// fits the array with every duration g's execution time, and — for a
// Para-CONV plan — the retiming is legal on g (Definition 3.1, Theorem
// 3.1) and the allocation's footprint, count and R_max match its claim.
func checkAgainstProblem(t *testing.T, g *dag.Graph, cfg pim.Config, p *sched.Plan) {
	t.Helper()
	groups := p.ConcurrentIterations
	if groups < 1 || cfg.NumPEs%groups != 0 || len(p.Iter.Assignment) < g.NumEdges() {
		t.Fatalf("plan has %d groups and %d placements for %d PEs and %d edges", groups, len(p.Iter.Assignment), cfg.NumPEs, g.NumEdges())
	}
	kernel, err := dag.Replicate(g, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dag.AppendBinary(nil, kernel), dag.AppendBinary(nil, p.Iter.Graph)) {
		t.Fatalf("plan kernel is not the problem graph unrolled %d times", groups)
	}
	exec := make([]int, kernel.NumNodes())
	slots := make([]check.Slot, len(p.Iter.Tasks))
	for i, task := range p.Iter.Tasks {
		exec[i] = kernel.Node(dag.NodeID(i)).Exec
		slots[i] = check.Slot{PE: int(task.PE), Start: task.Start, Finish: task.Finish}
	}
	if err := check.CheckSchedule(p.Iter.PEs, p.Iter.Period, exec, slots, p.CacheLoadUnits, cfg.TotalCacheUnits()); err != nil {
		t.Fatal(err)
	}
	r, rMax := []int(nil), -1
	if p.Scheme == wire.SchemeParaCONV {
		if err := check.CheckRetiming(g, p.LogicalRetiming.R, p.LogicalRetiming.REdge); err != nil {
			t.Fatal(err)
		}
		r, rMax = p.LogicalRetiming.R, p.RMax
	}
	claim := check.Claim{CacheUsed: p.CacheLoadUnits / groups, CachedCount: p.CachedIPRs, RMax: rMax}
	capacity := cfg.NumPEs / groups * cfg.CacheUnitsPerPE
	if err := check.CheckAllocation(g, p.Iter.Assignment[:g.NumEdges()], capacity, claim, r); err != nil {
		t.Fatal(err)
	}
}

// TestTierDifferential serves one problem through every path a plan
// can take — local solve, memory hit, store hit, peer fill with a full
// and with a lean frame, a stale, epochless or corrupted frame in
// either outer tier, and a baseline through the store — and requires
// that each path returns the plan a local solve produces (byte-identical
// wire.AppendPlan frames) and one that checks out against the problem
// graph, moves exactly the counters that name its tier, leaves the
// store holding the plan's at-rest frame in this epoch, and leaves a
// memory entry whose cached response bytes are the object path's.
func TestTierDifferential(t *testing.T) {
	g := testGraph(t, "tierdiff", 30, 70, 9900)
	cfg := pim.Neurocube(16)

	refs := make(map[string]*sched.Plan)
	for _, v := range []string{variantParaCONV, variantSPARTA} {
		p, err := New(context.Background()).PlanVariant(v, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs[v] = p
	}
	ref := refs[variantParaCONV]
	full, lean := wire.AppendPlan(nil, ref), wire.AppendLeanPlan(nil, ref)
	corrupt := append([]byte(nil), lean[:len(lean)/2]...) // still a plan header, no longer a plan
	foreign := append([]byte(nil), lean...)
	binary.LittleEndian.PutUint32(foreign[4:], sched.SolverEpoch+1)
	// The build before plan frames carried an epoch wrote this problem's
	// plan as the stored-plan frame minus the 4-byte epoch field.
	legacy, err := os.ReadFile("testdata/parent_build_stored_plan.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy, append(full[:4:4], full[8:]...)) {
		t.Fatal("testdata/parent_build_stored_plan.bin is not the epochless frame of this problem's plan")
	}
	stale := tierCounts{memMisses: 1, storeMisses: 1, solves: 1, obsStoreHits: 1, obsStoreWrites: 1}

	for _, tc := range []struct {
		name    string
		variant string // "" is para-conv
		// warm plans once before the measured call (the memory-hit row).
		warm bool
		// store attaches a fresh durable store, holding seed (if any)
		// under the plan's fingerprint.
		store bool
		seed  []byte
		peer  *stubFiller
		want  tierCounts
	}{
		{name: "local solve", want: tierCounts{memMisses: 1, solves: 1}},
		{name: "memory hit", warm: true, want: tierCounts{memHits: 1}},
		{
			name:  "cold solve writes through",
			store: true,
			want:  tierCounts{memMisses: 1, storeMisses: 1, solves: 1, obsStoreWrites: 1},
		},
		{
			name:  "store hit",
			store: true, seed: lean,
			want: tierCounts{memMisses: 1, storeHits: 1, obsStoreHits: 1},
		},
		// The store served bytes (its own hit), run rejected them (its
		// miss), the solver ran and the write-through replaced them.
		{name: "store frame corrupted", store: true, seed: corrupt, want: stale},
		{name: "store frame from another epoch", store: true, seed: foreign, want: stale},
		{name: "store frame from the parent build", store: true, seed: legacy, want: stale},
		{
			name:    "baseline writes through a full frame",
			variant: variantSPARTA, store: true,
			want: tierCounts{memMisses: 1, storeMisses: 1, solves: 1, obsStoreWrites: 1},
		},
		{
			name:    "baseline store hit",
			variant: variantSPARTA, store: true, seed: wire.AppendPlan(nil, refs[variantSPARTA]),
			want: tierCounts{memMisses: 1, storeHits: 1, obsStoreHits: 1},
		},
		{
			name: "peer fill, full frame",
			peer: &stubFiller{payload: full, ok: true},
			want: tierCounts{memMisses: 1, peerFills: 1},
		},
		{
			name: "peer fill, lean frame",
			peer: &stubFiller{payload: lean, ok: true},
			want: tierCounts{memMisses: 1, peerFills: 1},
		},
		{
			name:  "peer fill promotes to the store",
			store: true, peer: &stubFiller{payload: lean, ok: true},
			want: tierCounts{memMisses: 1, storeMisses: 1, peerFills: 1, obsStoreWrites: 1},
		},
		{
			name: "peer frame corrupted",
			peer: &stubFiller{payload: corrupt, ok: true},
			want: tierCounts{memMisses: 1, fallbacks: 1, solves: 1, obsFallbacks: 1},
		},
		{
			name: "peer unavailable",
			peer: &stubFiller{},
			want: tierCounts{memMisses: 1, fallbacks: 1, solves: 1, obsFallbacks: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := refs[canonicalVariant(tc.variant)]
			want := wire.AppendPlan(nil, ref)
			fp := PlanFingerprint(tc.variant, "", g, cfg)
			s := New(context.Background())
			var st *store.Store
			if tc.store {
				st = openStore(t, t.TempDir())
				if tc.seed != nil {
					if err := st.Put(fp, tc.seed); err != nil {
						t.Fatal(err)
					}
				}
				s.AttachStore(st)
			}
			if tc.peer != nil {
				s.AttachPeers(tc.peer)
			}
			if tc.warm {
				if _, err := s.PlanVariant(tc.variant, g, cfg); err != nil {
					t.Fatal(err)
				}
			}
			before := readTierCounts(s)
			p, err := s.PlanVariant(tc.variant, g, cfg)
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			if got := readTierCounts(s).minus(before); got != tc.want {
				t.Errorf("counters moved by %+v, want %+v", got, tc.want)
			}
			if !bytes.Equal(wire.AppendPlan(nil, p), want) {
				t.Error("plan does not re-encode to the local solve's frame")
			}
			checkAgainstProblem(t, g, cfg, p)
			// The store holds the plan at rest in this epoch — lean for
			// para-conv, full for a baseline — whatever it held before.
			if st != nil {
				if got, ok := st.Get(fp); !ok || !bytes.Equal(got, wire.AppendAtRest(nil, ref)) {
					t.Error("store does not hold the plan's at-rest frame")
				}
			}
			// Whatever tier answered, the memory tier now holds the plan:
			// a caller knowing only the graph's hash gets it without ever
			// producing the graph, along with response bytes that equal
			// the object path's encoding at any horizon.
			hit, err := s.PlanVariantHashed(tc.variant, GraphFingerprint(g), cfg, func() (*dag.Graph, error) {
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
			fill, ok := s.EncodedPlanByFingerprint(fp)
			if !ok {
				t.Fatal("EncodedPlanByFingerprint missed")
			}
			rebuilt, err := wire.DecodeFillPlan(fill, g, dag.Limits{})
			if err != nil {
				t.Fatalf("fill frame: %v", err)
			}
			if !bytes.Equal(wire.AppendPlan(nil, rebuilt), want) {
				t.Error("fill frame does not rebuild to the local solve's frame")
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
