package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/run"
	"repro/internal/wire"
)

// The tests in this file pin the binary serve path's order of work: a
// request is keyed by a hash of its graph frame's bytes and the memory
// tier is probed before the graph is decoded, so a hit never decodes
// and a frame the decoder would reject can only miss.

// cacheMoves is the plan cache's hit/miss movement as both the session
// and the /metrics registry count it.
type cacheMoves struct {
	hits, misses       uint64
	obsHits, obsMisses int64
}

func readCacheMoves(s *Server) cacheMoves {
	cs := s.CacheStats()
	return cacheMoves{cs.Hits, cs.Misses, obs.PlanCacheHits.Value(), obs.PlanCacheMisses.Value()}
}

func (a cacheMoves) minus(b cacheMoves) cacheMoves {
	return cacheMoves{a.hits - b.hits, a.misses - b.misses, a.obsHits - b.obsHits, a.obsMisses - b.obsMisses}
}

var (
	oneMiss = cacheMoves{misses: 1, obsMisses: 1}
	oneHit  = cacheMoves{hits: 1, obsHits: 1}
)

// objectPathFrame is the reference a served frame is compared with: the
// problem solved on a private session and encoded field by field.
func objectPathFrame(t *testing.T, g *dag.Graph, cfg pim.Config, iterations int) []byte {
	t.Helper()
	p, err := run.New(context.Background()).Plan(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendPlanResponse(nil, wire.NewPlanResponse(p, cfg.Name, iterations))
}

// TestBinaryHitAndMissCountOnce: the first binary request for a problem
// is exactly one counted miss, every later one exactly one counted hit
// — whatever its iteration count — and a hit's cached-frame answer is
// byte-identical to the object path's encoding.
func TestBinaryHitAndMissCountOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := plansGraph(t, 310)
	cfg := pim.Neurocube(16)

	for i, tc := range []struct {
		iterations int
		want       cacheMoves
	}{
		{0, oneMiss}, // 0 takes the server default of 100
		{0, oneHit},
		{7, oneHit},
		{1_000_000, oneHit},
	} {
		before := readCacheMoves(s)
		body := wire.AppendRequest(nil, &request{PEs: 16, Iterations: tc.iterations}, g)
		resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, data)
		}
		if got := readCacheMoves(s).minus(before); got != tc.want {
			t.Errorf("request %d moved the cache counters by %+v, want %+v", i, got, tc.want)
		}
		n := tc.iterations
		if n == 0 {
			n = 100
		}
		if !bytes.Equal(data, objectPathFrame(t, g, cfg, n)) {
			t.Errorf("request %d (iterations %d): served frame differs from the object path's encoding", i, n)
		}
	}
}

// TestBinaryBadGraphIsMissThen400: a well-formed request header in
// front of a graph frame the decoder rejects hashes to a key nothing is
// stored under — one counted miss — and is then answered with the same
// 400 kinds an up-front decode gave; nothing is cached, and the intact
// request is still served afterwards.
func TestBinaryBadGraphIsMissThen400(t *testing.T) {
	g := plansGraph(t, 311)
	header := wire.AppendRequest(nil, &request{PEs: 16}, nil)
	frame := dag.AppendBinary(nil, g)
	// dag frame layout: magic+version (4), name length (1) + name, then
	// the node count — a single byte for this 24-vertex graph.
	countAt := 4 + 1 + len(g.Name())
	if int(frame[countAt]) != g.NumNodes() {
		t.Fatalf("frame byte %d is %d, not the node count %d", countAt, frame[countAt], g.NumNodes())
	}

	mutate := func(mut func(f []byte) []byte) []byte {
		return append(append([]byte(nil), header...), mut(append([]byte(nil), frame...))...)
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		body     []byte
		wantKind string
	}{
		{"corrupt", Config{}, mutate(func(f []byte) []byte { f[countAt+2] = 0xee; return f }), "bad_graph"},
		{"truncated", Config{}, mutate(func(f []byte) []byte { return f[:len(f)-3] }), "bad_graph"},
		{"trailing garbage", Config{}, mutate(func(f []byte) []byte { return append(f, 0) }), "bad_graph"},
		{"padded varint", Config{}, mutate(func(f []byte) []byte {
			// The node count re-spelt as a two-byte varint: the same
			// graph to a lenient decoder, different bytes to the hash.
			padded := append([]byte(nil), f[:countAt]...)
			padded = append(padded, f[countAt]|0x80, 0x00)
			return append(padded, f[countAt+1:]...)
		}), "bad_graph"},
		{"over the vertex cap", Config{MaxGraphNodes: 5}, mutate(func(f []byte) []byte { return f }), "graph_too_large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			before := readCacheMoves(s)
			resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
			}
			if e := decodeError(t, data); e.Kind != tc.wantKind {
				t.Errorf("kind %q, want %q (%s)", e.Kind, tc.wantKind, e.Error)
			}
			if got := readCacheMoves(s).minus(before); got != oneMiss {
				t.Errorf("cache counters moved by %+v, want exactly one miss", got)
			}
			if size := s.CacheStats().Size; size != 0 {
				t.Errorf("a rejected graph left %d cache entries", size)
			}
		})
	}

	// The decoder's strictness is what makes the hash a sound key: the
	// intact frame is a different key and still plans.
	_, ts := newTestServer(t, Config{})
	resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "", mutate(func(f []byte) []byte { return f }))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("intact request: status %d, body %s", resp.StatusCode, data)
	}
}

// TestBinaryHeaderErrorsAnswerBeforeLookup: scalar range errors and
// unknown preset / variant names are 400s that never touch the cache —
// even when the graph in the request is one the cache holds.
func TestBinaryHeaderErrorsAnswerBeforeLookup(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := plansGraph(t, 312)
	if resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "",
		wire.AppendRequest(nil, &request{PEs: 16}, g)); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming request: status %d, body %s", resp.StatusCode, data)
	}
	for _, tc := range []struct {
		name     string
		req      request
		wantKind string
	}{
		{"pes too large", request{PEs: 4097}, "bad_request"},
		{"pes negative", request{PEs: -1}, "bad_request"},
		{"iterations negative", request{PEs: 16, Iterations: -1}, "bad_request"},
		{"iterations too large", request{PEs: 16, Iterations: 1_000_000_001}, "bad_request"},
		{"timeout negative", request{PEs: 16, TimeoutMS: -1}, "bad_request"},
		{"unknown arch", request{PEs: 16, Arch: "tpu"}, "unplannable"},
		{"unknown variant", request{PEs: 16, Variant: "bogus"}, "bad_request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := readCacheMoves(s)
			resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "", wire.AppendRequest(nil, &tc.req, g))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
			}
			if e := decodeError(t, data); e.Kind != tc.wantKind {
				t.Errorf("kind %q, want %q (%s)", e.Kind, tc.wantKind, e.Error)
			}
			if got := readCacheMoves(s).minus(before); got != (cacheMoves{}) {
				t.Errorf("cache counters moved by %+v, want no lookup at all", got)
			}
		})
	}
}

// TestJSONAndBinarySubmissionsShareOneKey: one problem sent as a JSON
// text graph and as a binary frame is one cache entry — the second
// submission is a hit — and both are answered with the same bytes.
func TestJSONAndBinarySubmissionsShareOneKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := plansGraph(t, 313)
	var text strings.Builder
	if err := dag.WriteText(&text, g); err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(map[string]any{"graph": text.String(), "pes": 16})
	if err != nil {
		t.Fatal(err)
	}

	before := readCacheMoves(s)
	resp, viaJSON := postRaw(t, ts, "/v1/plan", wire.ContentTypeJSON, wire.ContentTypeBinary, jsonBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON submission: status %d, body %s", resp.StatusCode, viaJSON)
	}
	resp, viaBinary := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "",
		wire.AppendRequest(nil, &request{PEs: 16}, g))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary submission: status %d, body %s", resp.StatusCode, viaBinary)
	}
	if got, want := readCacheMoves(s).minus(before), (cacheMoves{1, 1, 1, 1}); got != want {
		t.Errorf("cache counters moved by %+v, want one miss then one hit", got)
	}
	if !bytes.Equal(viaJSON, viaBinary) {
		t.Error("the JSON and the binary submission of one problem were answered differently")
	}
	if !bytes.Equal(viaBinary, objectPathFrame(t, g, pim.Neurocube(16), 100)) {
		t.Error("served frame differs from a local solve's encoding")
	}
}

// TestPlansFillMismatchIsDecidedFromBytes: the owner checks a fill
// frame against the URL's fingerprint by hashing the frame's bytes.  A
// requester that derived its fingerprint from a non-canonical encoding
// passes that check, then fails the decode: 400 bad_graph, and nothing
// is stored under the fingerprint.
func TestPlansFillMismatchIsDecidedFromBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := plansGraph(t, 316)
	cfg := pim.Neurocube(16)
	fill := wire.AppendPeerFill(nil, "para-conv", cfg, g)
	fill = append(fill, 0) // trailing byte: the dag decoder rejects it
	_, frame, err := wire.SplitPeerFill(fill)
	if err != nil {
		t.Fatal(err)
	}
	fp := run.PlanFingerprintHashed("para-conv", "", run.FrameFingerprint(frame), cfg)
	if fp == run.PlanFingerprint("para-conv", "", g, cfg) {
		t.Fatal("a rejected frame hashed to the real graph's fingerprint")
	}

	resp, data := getPlans(t, ts.URL, fp, fill)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "bad_graph" {
		t.Errorf("kind %q, want bad_graph", e.Kind)
	}
	if size := s.CacheStats().Size; size != 0 {
		t.Errorf("a rejected fill left %d cache entries", size)
	}
	if resp, _ := getPlans(t, ts.URL, fp, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("probe after the rejected fill: status %d, want 404", resp.StatusCode)
	}
}
