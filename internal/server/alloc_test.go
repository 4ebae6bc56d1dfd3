package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/synth"
	"repro/internal/wire"
)

// discardResponseWriter satisfies http.ResponseWriter without touching
// the network, so the alloc gates measure only the decode path.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// resettableBody replays the same bytes as a fresh request body each
// run without allocating a reader per run.
type resettableBody struct{ bytes.Reader }

func (b *resettableBody) Close() error { return nil }

// TestAllocsDecodePath gates the request decode + graph parse path:
// its allocation count must stay O(1) in the graph's EDGE count.  The
// irreducible per-request spend is one string per named node (Node.Name
// must be heap-copied out of the transient scan buffer), the request
// struct with its graph string, the JSON decoder, the MaxBytesReader
// wrapper, and a constant handful of graph arrays (nodes, edges, the
// two adjacency tables and their shared backing, thanks to the
// counts-header bulk load).  Everything else — body buffer, scanner
// state, line tokens, numeric fields, per-vertex adjacency growth —
// is pooled or in-place.  The budget is one alloc per node plus fixed
// headroom; a return to per-line parsing or per-edge adjacency growth
// (~3 allocs per edge here) blows through it immediately.
func TestAllocsDecodePath(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs without -race")
	}
	s := New(Config{})

	g, err := synth.Generate(synth.Params{Name: "alloc", Vertices: 200, Edges: 520, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var gtext strings.Builder
	if err := dag.WriteText(&gtext, g); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{"graph": gtext.String(), "pes": 16})
	if err != nil {
		t.Fatal(err)
	}

	body := &resettableBody{}
	httpReq := httptest.NewRequest("POST", "/v1/plan", nil)
	httpReq.Body = body
	w := &discardResponseWriter{h: make(http.Header)}

	decodeOnce := func() {
		body.Reset(payload)
		bs := bodyStatePool.Get().(*bodyState)
		defer putBodyState(bs)
		in, ok := s.decodeRequest(w, httpReq, bs)
		if !ok {
			t.Fatal("decodeRequest rejected the request")
		}
		if in.g == nil || in.g.NumNodes() != g.NumNodes() {
			t.Fatal("decodeRequest returned an incomplete request")
		}
	}
	decodeOnce() // warm the pools
	budget := float64(g.NumNodes() + 64)
	allocs := testing.AllocsPerRun(30, decodeOnce)
	if allocs > budget {
		t.Errorf("decode+parse allocates %.0f objects per request; budget %.0f", allocs, budget)
	}
	t.Logf("decode+parse: %.1f allocs per request (budget %.0f)", allocs, budget)
}

// TestAllocsDecodePathBinary gates the binary request path of a plan
// cache MISS (a hit never decodes the graph; see
// TestAllocsWarmBinaryHit): unlike the text path (whose per-node name
// strings dominate), the binary decoder backs all node names with one
// string, so the whole decode — envelope, request strings, graph and
// its storage — must stay within a fixed budget independent of graph
// size.
func TestAllocsDecodePathBinary(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs without -race")
	}
	s := New(Config{})

	g, err := synth.Generate(synth.Params{Name: "alloc-bin", Vertices: 200, Edges: 520, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	payload := wire.AppendRequest(nil, &request{PEs: 16}, g)

	body := &resettableBody{}
	httpReq := httptest.NewRequest("POST", "/v1/plan", nil)
	httpReq.Body = body
	httpReq.Header.Set("Content-Type", wire.ContentTypeBinary)
	w := &discardResponseWriter{h: make(http.Header)}

	decodeOnce := func() {
		body.Reset(payload)
		bs := bodyStatePool.Get().(*bodyState)
		defer putBodyState(bs)
		in, ok := s.decodeRequest(w, httpReq, bs)
		if !ok || !in.respBinary {
			t.Fatal("decodeRequest rejected the binary request")
		}
		if in.g != nil {
			t.Fatal("decodeRequest decoded a binary request's graph up front")
		}
		if gotG, err := in.graph(); err != nil || gotG.NumNodes() != g.NumNodes() {
			t.Fatalf("graph() = %v, %v; want the %d-vertex graph", gotG, err, g.NumNodes())
		}
	}
	decodeOnce() // warm the pools
	allocs := testing.AllocsPerRun(30, decodeOnce)
	if allocs > 48 {
		t.Errorf("binary decode allocates %.0f objects per request; budget 48", allocs)
	}
	t.Logf("binary decode: %.1f allocs per request (budget 48)", allocs)
}

// TestAllocsWarmBinaryHit gates the whole serve path of a binary
// /v1/plan memory hit — header parse, frame hash, lookup, cached-frame
// response — at a small constant that does not depend on the graph: the
// graph is never decoded, and the plan's arrays are never re-encoded.
// (At the parent commit the decode alone was 48 objects and ≈ 188 KB at
// protein shape.)
func TestAllocsWarmBinaryHit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs without -race")
	}
	s := New(Config{})
	h := s.Handler()

	hitAllocs := func(vertices, edges int) float64 {
		g, err := synth.Generate(synth.Params{Name: "alloc-hit", Vertices: vertices, Edges: edges, Seed: 78})
		if err != nil {
			t.Fatal(err)
		}
		payload := wire.AppendRequest(nil, &request{PEs: 16}, g)
		body := &resettableBody{}
		httpReq := httptest.NewRequest("POST", "/v1/plan", nil)
		httpReq.Body = body
		httpReq.Header.Set("Content-Type", wire.ContentTypeBinary)
		w := &discardResponseWriter{h: make(http.Header)}
		serveOnce := func() {
			body.Reset(payload)
			h.ServeHTTP(w, httpReq)
		}
		serveOnce() // the miss that fills the cache
		before := s.CacheStats()
		allocs := testing.AllocsPerRun(30, serveOnce)
		if after := s.CacheStats(); after.Misses != before.Misses || after.Hits == before.Hits {
			t.Fatalf("measured requests were not memory hits: %+v -> %+v", before, after)
		}
		return allocs
	}
	small, large := hitAllocs(60, 150), hitAllocs(600, 1600)
	t.Logf("warm binary hit: %.1f allocs at 60 vertices, %.1f at 600", small, large)
	if small != large {
		t.Errorf("hit allocations depend on graph size: %.1f at 60 vertices, %.1f at 600", small, large)
	}
	if large > 40 {
		t.Errorf("warm binary hit allocates %.0f objects per request; budget 40", large)
	}
}

// TestAllocsWriteJSON gates the response encode path: after warm-up, a
// plan-sized response body costs only the encoder state and the JSON
// bytes' transient scratch, not a buffer per response.
func TestAllocsWriteJSON(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs without -race")
	}
	resp := planResponse{Scheme: "para-conv", Arch: "neurocube", PEs: 16, Period: 42,
		CachedEdges: []int{1, 2, 3, 5, 8, 13}}
	w := &discardResponseWriter{h: make(http.Header)}
	writeJSON(w, http.StatusOK, resp) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		writeJSON(w, http.StatusOK, resp)
	})
	// json.Encoder itself allocates a handful of objects per Encode;
	// the gate just pins that a fresh bytes.Buffer (and its growth
	// chain) is no longer part of the bill.
	if allocs > 12 {
		t.Errorf("writeJSON allocates %.0f objects per response; want <= 12", allocs)
	}
}

// TestAllocsWriteBinary gates the binary encode path: a warm pooled
// buffer plus reflection-free appends means the whole response write
// must be allocation-free.
func TestAllocsWriteBinary(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs without -race")
	}
	resp := &planResponse{Scheme: "para-conv", Arch: "neurocube", PEs: 16, Period: 42,
		VertexRetiming: []int{0, 1, 2}, CachedEdges: []int{1, 2, 3, 5, 8, 13}}
	w := &discardResponseWriter{h: make(http.Header)}
	writeResponse(w, http.StatusOK, resp, true) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		writeResponse(w, http.StatusOK, resp, true)
	})
	// Header.Set("Content-Length", ...) allocates its value slice; the
	// frame staging itself must contribute nothing.
	if allocs > 4 {
		t.Errorf("binary writeResponse allocates %.0f objects per response; want <= 4", allocs)
	}
}

var _ io.ReadCloser = (*resettableBody)(nil)
