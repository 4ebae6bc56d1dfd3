package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/wire"
)

// testGraphBinary parses testGraphText and re-encodes it as a dag
// binary frame.
func testGraphBinary(t *testing.T) (*dag.Graph, []byte) {
	t.Helper()
	g, err := dag.ReadText(strings.NewReader(testGraphText))
	if err != nil {
		t.Fatal(err)
	}
	return g, dag.AppendBinary(nil, g)
}

// postRaw sends body with explicit Content-Type and Accept headers.
func postRaw(t *testing.T, ts *httptest.Server, path, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func binaryPlanRequest(t *testing.T, pes int) []byte {
	t.Helper()
	g, _ := testGraphBinary(t)
	return wire.AppendRequest(nil, &request{PEs: pes}, g)
}

// TestBinaryRequestBinaryResponse drives the all-binary path: binary
// request in, binary plan frame out, equal in content to the JSON
// answer for the same solve.
func TestBinaryRequestBinaryResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "", binaryPlanRequest(t, 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Fatalf("Content-Type %q, want %q", ct, wire.ContentTypeBinary)
	}
	var plan planResponse
	if err := wire.DecodePlanResponse(data, &plan); err != nil {
		t.Fatalf("decoding binary plan: %v", err)
	}
	if plan.Scheme != "para-conv" || plan.Period <= 0 || plan.Vertices != 4*plan.ConcurrentIterations {
		t.Errorf("implausible binary plan: %+v", plan)
	}

	// The same solve over JSON must produce the same payload.
	jsonResp, jsonData := post(t, ts, "/v1/plan", map[string]any{"graph": testGraphText, "pes": 4})
	if jsonResp.StatusCode != http.StatusOK {
		t.Fatalf("JSON status %d", jsonResp.StatusCode)
	}
	var jsonPlan planResponse
	if err := json.Unmarshal(jsonData, &jsonPlan); err != nil {
		t.Fatal(err)
	}
	if jsonPlan.Period != plan.Period || jsonPlan.TotalTime != plan.TotalTime ||
		jsonPlan.RMax != plan.RMax || jsonPlan.CachedIPRs != plan.CachedIPRs ||
		!reflect.DeepEqual(jsonPlan.CachedEdges, plan.CachedEdges) {
		t.Errorf("codecs disagree:\nbinary %+v\njson   %+v", plan, jsonPlan)
	}
}

// TestBinaryRequestJSONAccept: a binary request whose Accept prefers
// JSON gets a JSON body back.
func TestBinaryRequestJSONAccept(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, wire.ContentTypeJSON, binaryPlanRequest(t, 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wire.ContentTypeJSON) {
		t.Fatalf("Content-Type %q, want JSON", ct)
	}
	var plan planResponse
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, data)
	}
	if plan.Scheme != "para-conv" {
		t.Errorf("plan: %+v", plan)
	}
}

// TestJSONRequestBinaryAccept: a JSON request asking for the binary
// response codec gets a frame back.
func TestJSONRequestBinaryAccept(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := json.Marshal(map[string]any{"graph": testGraphText, "pes": 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeJSON, wire.ContentTypeBinary, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Fatalf("Content-Type %q, want %q", ct, wire.ContentTypeBinary)
	}
	var plan planResponse
	if err := wire.DecodePlanResponse(data, &plan); err != nil {
		t.Fatalf("decoding binary plan: %v", err)
	}
}

// TestUnknownContentType415: anything that is neither JSON nor the
// wire format is rejected up front with a structured JSON error.
func TestUnknownContentType415(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, ct := range []string{"text/plain", "application/xml", "application/x-paraconv-bin2"} {
		resp, data := postRaw(t, ts, "/v1/plan", ct, "", []byte("{}"))
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
		if e := decodeError(t, data); e.Kind != "unsupported_media_type" {
			t.Errorf("Content-Type %q: kind %q, want unsupported_media_type", ct, e.Kind)
		}
	}
}

// TestContentTypeParameterIgnored: charset parameters do not change
// the negotiated codec.
func TestContentTypeParameterIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{"graph": testGraphText})
	resp, data := postRaw(t, ts, "/v1/plan", "application/json; charset=utf-8", "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
}

// TestBinaryErrorsAreJSON: failures on the binary path still answer
// with the structured JSON error body.
func TestBinaryErrorsAreJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tests := []struct {
		name       string
		body       []byte
		wantStatus int
		wantKind   string
	}{
		{"truncated frame", binaryPlanRequest(t, 4)[:9], http.StatusBadRequest, "bad_request"},
		{"garbage", []byte("this is not a frame"), http.StatusBadRequest, "bad_request"},
		{"no graph", wire.AppendRequest(nil, &request{PEs: 4}, nil), http.StatusBadRequest, "bad_graph"},
		{"bad pes", func() []byte {
			g, _ := testGraphBinary(t)
			return wire.AppendRequest(nil, &request{PEs: 99999}, g)
		}(), http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, wire.ContentTypeBinary, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("error Content-Type %q, want JSON", ct)
			}
			if e := decodeError(t, data); e.Kind != tc.wantKind {
				t.Errorf("kind %q, want %q", e.Kind, tc.wantKind)
			}
		})
	}
}

// TestBinaryGraphOverCapRejected: the graph size caps apply to the
// embedded binary graph exactly as to text graphs.
func TestBinaryGraphOverCapRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxGraphNodes: 2})
	resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "", binaryPlanRequest(t, 4))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "graph_too_large" {
		t.Errorf("kind %q, want graph_too_large", e.Kind)
	}
}

// TestBinaryOversizedBodyRejected: the body cap answers 413 before the
// frame is even inspected.
func TestBinaryOversizedBodyRejected(t *testing.T) {
	body := binaryPlanRequest(t, 4)
	_, ts := newTestServer(t, Config{MaxBodyBytes: int64(len(body)) - 1})
	resp, data := postRaw(t, ts, "/v1/plan", wire.ContentTypeBinary, "", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "too_large" {
		t.Errorf("kind %q, want too_large", e.Kind)
	}
}

// TestBinarySimulateAndSelectArch: the two other POST endpoints
// accept a binary request but have no binary response frame, so they
// answer JSON whatever Accept says — the same values a JSON request
// gets.
func TestBinarySimulateAndSelectArch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g, _ := testGraphBinary(t)
	for _, tc := range []struct {
		path string
		req  request
		into func() any
	}{
		{"/v1/simulate", request{PEs: 4, Iterations: 50}, func() any { return new(simulateResponse) }},
		{"/v1/selectarch", request{PEs: 4, Archs: []string{"neurocube", "edge"}}, func() any { return new(selectArchResponse) }},
	} {
		jsonBody, err := json.Marshal(map[string]any{
			"graph": testGraphText, "pes": tc.req.PEs, "iterations": tc.req.Iterations, "archs": tc.req.Archs,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postRaw(t, ts, tc.path, wire.ContentTypeJSON, "", jsonBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s JSON status %d, body %s", tc.path, resp.StatusCode, data)
		}
		want := tc.into()
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatal(err)
		}
		for _, accept := range []string{wire.ContentTypeBinary, ""} {
			resp, data := postRaw(t, ts, tc.path, wire.ContentTypeBinary, accept, wire.AppendRequest(nil, &tc.req, g))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s Accept %q: status %d, body %s", tc.path, accept, resp.StatusCode, data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wire.ContentTypeJSON) {
				t.Errorf("%s Accept %q: Content-Type %q, want JSON", tc.path, accept, ct)
			}
			got := tc.into()
			if err := json.Unmarshal(data, got); err != nil {
				t.Fatalf("%s Accept %q: body is not JSON: %v", tc.path, accept, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s Accept %q: binary request answered\n%+v\nJSON request answered\n%+v", tc.path, accept, got, want)
			}
		}
	}
}

// TestWriteBinaryPinCap: a binary response that balloons past the
// pooled-buffer cap is still delivered intact; the buffer is just not
// recycled (the cap protects the pool, not the client).
func TestWriteBinaryPinCap(t *testing.T) {
	big := &planResponse{Scheme: "para-conv", Arch: "neurocube"}
	// > 1 MiB of varint payload: 600k entries at >= 2 bytes each.
	big.VertexRetiming = make([]int, 600_000)
	for i := range big.VertexRetiming {
		big.VertexRetiming[i] = 300 + i%100
	}
	frame := wire.AppendPlanResponse(nil, big)
	if len(frame) <= maxPooledBodyBytes {
		t.Fatalf("test payload is %d bytes; needs > %d to exercise the pin cap", len(frame), maxPooledBodyBytes)
	}
	rec := httptest.NewRecorder()
	writeResponse(rec, http.StatusOK, big, true)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var got planResponse
	if err := wire.DecodePlanResponse(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decoding oversized frame: %v", err)
	}
	if len(got.VertexRetiming) != len(big.VertexRetiming) {
		t.Errorf("oversized response truncated: %d of %d entries", len(got.VertexRetiming), len(big.VertexRetiming))
	}
}
