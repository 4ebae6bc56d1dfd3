package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// testGraphText is a small diamond in the dag text format.
const testGraphText = `graph diamond
node 0 conv 2 a
node 1 conv 3 b
node 2 conv 1 c
node 3 conv 2 d
edge 0 1 1 0 3
edge 0 2 1 0 3
edge 1 3 1 0 3
edge 2 3 1 0 2
`

// newTestServer builds a Server plus an httptest front end and
// registers cleanup for both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		// Land the store's accepted writes and close it before its
		// temp dir goes.
		if c, ok := cfg.Store.(storeCloser); ok {
			if err := c.Close(context.Background()); err != nil {
				t.Error(err)
			}
		}
	})
	return s, ts
}

// post sends a JSON body and returns the response with its decoded
// body bytes.
func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
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

// decodeError asserts an errorResponse body and returns it.
func decodeError(t *testing.T, data []byte) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %q is not JSON: %v", data, err)
	}
	if e.Error == "" || e.Kind == "" {
		t.Fatalf("error body %q missing error/kind", data)
	}
	return e
}

func TestPlanHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/plan", map[string]any{
		"graph": testGraphText, "arch": "neurocube", "pes": 4, "iterations": 50,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	var plan planResponse
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatalf("decoding plan: %v", err)
	}
	if plan.Scheme != "para-conv" || plan.Period <= 0 || plan.TotalTime <= 0 {
		t.Errorf("implausible plan: %+v", plan)
	}
	// The plan reports the unrolled working graph: input vertices times
	// the concurrent-iteration count.
	if plan.ConcurrentIterations < 1 || plan.Vertices != 4*plan.ConcurrentIterations {
		t.Errorf("plan echoes %d vertices with %d concurrent iterations, want 4x",
			plan.Vertices, plan.ConcurrentIterations)
	}
	if plan.Arch == "" {
		t.Error("plan response missing arch name")
	}
}

func TestPlanVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, variant := range []string{"para-conv", "para-conv-single", "sparta", "naive"} {
		resp, data := post(t, ts, "/v1/plan", map[string]any{
			"graph": testGraphText, "variant": variant, "pes": 4,
		})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("variant %s: status %d, body %s", variant, resp.StatusCode, data)
		}
	}
	resp, data := post(t, ts, "/v1/plan", map[string]any{
		"graph": testGraphText, "variant": "nope",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown variant: status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, data); e.Kind != "bad_request" {
		t.Errorf("unknown variant kind %q, want bad_request", e.Kind)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/simulate", map[string]any{
		"graph": testGraphText, "pes": 4, "iterations": 20,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	var sim simulateResponse
	if err := json.Unmarshal(data, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Cycles <= 0 || sim.Iterations != 20 || sim.Utilization <= 0 {
		t.Errorf("implausible simulation: %+v", sim)
	}
}

func TestSelectArchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/selectarch", map[string]any{
		"graph": testGraphText, "pes": 4, "iterations": 20,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	var sel selectArchResponse
	if err := json.Unmarshal(data, &sel); err != nil {
		t.Fatal(err)
	}
	if sel.Best.Arch == "" || len(sel.Ranking) == 0 {
		t.Errorf("implausible selection: %+v", sel)
	}
	if sel.Ranking[0].TotalTime != sel.Best.TotalTime {
		t.Errorf("ranking[0] %+v disagrees with best %+v", sel.Ranking[0], sel.Best)
	}
}

func TestMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/plan", `{"graph": `)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, data); e.Kind != "bad_request" {
		t.Errorf("kind %q, want bad_request", e.Kind)
	}
}

func TestMalformedGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, graph := range map[string]string{
		"empty":     "",
		"bad-text":  "not a graph at all",
		"bad-edge":  "graph g\nnode 0 conv 1 -\nedge 0 7 1 0 2\n",
		"cyclejoke": "graph g\nnode 0 conv 1 -\nedge 0 0 1 0 2\n",
	} {
		resp, data := post(t, ts, "/v1/plan", map[string]any{"graph": graph})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, resp.StatusCode, data)
			continue
		}
		if e := decodeError(t, data); e.Kind != "bad_graph" {
			t.Errorf("%s: kind %q, want bad_graph", name, e.Kind)
		}
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := map[string]any{"graph": strings.Repeat("# padding line\n", 200) + testGraphText}
	resp, data := post(t, ts, "/v1/plan", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "too_large" {
		t.Errorf("kind %q, want too_large", e.Kind)
	}
}

func TestGraphOverVertexCapRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxGraphNodes: 2})
	resp, data := post(t, ts, "/v1/plan", map[string]any{"graph": testGraphText})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "graph_too_large" {
		t.Errorf("kind %q, want graph_too_large", e.Kind)
	}
}

func TestParamValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]map[string]any{
		"negative-pes":     {"graph": testGraphText, "pes": -1},
		"huge-pes":         {"graph": testGraphText, "pes": 100000},
		"negative-iters":   {"graph": testGraphText, "iterations": -5},
		"negative-timeout": {"graph": testGraphText, "timeout_ms": -1},
		"unknown-field":    {"graph": testGraphText, "bogus": true},
		"unknown-arch":     {"graph": testGraphText, "arch": "tpu"},
	} {
		resp, _ := post(t, ts, "/v1/plan", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status %d, want 503", resp.StatusCode)
	}
}

func TestMetricsMounted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	for _, family := range []string{"paraconv_server_queue_capacity", "paraconv_plancache_hits_total"} {
		if !strings.Contains(string(data), family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
}

// blockWorkers takes every run slot of s's gate, as that many stuck
// solves would, until the returned release function is called.
func blockWorkers(t *testing.T, s *Server, workers int) (release func()) {
	t.Helper()
	for i := 0; i < workers; i++ {
		if err := s.gate.enter(context.Background()); err != nil {
			t.Fatalf("could not take run slot %d: %v", i, err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < workers; i++ {
				s.gate.leave()
			}
		})
	}
}

// waitAdmitted blocks until n requests are inside s's gate.
func waitAdmitted(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.gate.admitted) != n {
		if !time.Now().Before(deadline) {
			t.Fatalf("gate holds %d requests, want %d", len(s.gate.admitted), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := blockWorkers(t, s, 1)
	defer release()

	resp, data := post(t, ts, "/v1/plan", map[string]any{
		"graph": testGraphText, "timeout_ms": 25,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "timeout" {
		t.Errorf("kind %q, want timeout", e.Kind)
	}
}

func TestFullQueueSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := blockWorkers(t, s, 1)
	defer release()
	// Park a waiter in the single queue slot so the HTTP request has
	// nowhere to go.
	parked, unpark := context.WithCancel(context.Background())
	defer unpark()
	parkedDone := make(chan error, 1)
	go func() { parkedDone <- s.gate.enter(parked) }()
	waitAdmitted(t, s, 2)

	resp, data := post(t, ts, "/v1/plan", map[string]any{"graph": testGraphText})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if e := decodeError(t, data); e.Kind != "shed" {
		t.Errorf("kind %q, want shed", e.Kind)
	}

	// After releasing the workers the service accepts again.
	unpark()
	if err := <-parkedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked waiter left the gate with %v, want context.Canceled", err)
	}
	release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := post(t, ts, "/v1/plan", map[string]any{"graph": testGraphText})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("service never recovered after release (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentIdenticalRequests exercises the gate and the
// cache/singleflight path under -race: a burst of identical plans
// must all succeed and agree.
func TestConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	const burst = 24
	periods := make([]int, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(map[string]any{"graph": testGraphText, "pes": 4})
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", &buf)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var plan planResponse
			if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
				errs[i] = err
				return
			}
			periods[i] = plan.Period
		}(i)
	}
	wg.Wait()
	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if periods[i] != periods[0] {
			t.Errorf("request %d period %d != %d", i, periods[i], periods[0])
		}
	}
	st := s.CacheStats()
	if st.Hits+st.Misses < burst {
		t.Errorf("cache saw %d lookups, want >= %d", st.Hits+st.Misses, burst)
	}
	if solved := st.Misses - st.DedupHits; solved < 1 {
		t.Errorf("counters imply %d solves", solved)
	}
}

func TestStartAndDrain(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	running, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + running.Addr()

	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]any{"graph": testGraphText, "pes": 4})
	resp, err := http.Post(url+"/v1/plan", "application/json", &buf)
	if err != nil {
		t.Fatalf("request against Start listener: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}

	if err := running.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("listener still accepting after Drain")
	}
}

// TestStoreWritersCountsEveryWriter: the store's commit slots cover
// every goroutine that can call Put — one per run slot, GOMAXPROCS of
// them when Workers is unset.
func TestStoreWritersCountsEveryWriter(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{}, runtime.GOMAXPROCS(0)},
		{Config{Workers: 3}, 3},
		{Config{Workers: 8}, 8},
	} {
		if got := tc.cfg.StoreWriters(); got != tc.want {
			t.Errorf("Config{Workers: %d}.StoreWriters() = %d, want %d", tc.cfg.Workers, got, tc.want)
		}
	}
}

// TestRouteTable: every live route is mounted on Handler (it answers
// something other than 404 or 405, whatever the request's content),
// and the retired job routes are gone.
func TestRouteTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path string
		live         bool
	}{
		{"POST", "/v1/plan", true},
		{"POST", "/v1/simulate", true},
		{"POST", "/v1/selectarch", true},
		{"GET", "/v1/plans/x", true},
		{"GET", "/healthz", true},
		{"GET", "/readyz", true},
		{"GET", "/metrics", true},
		{"GET", "/debug/traces", true},
		{"GET", "/debug/slo", true},
		{"POST", "/v1/jobs", false},
		{"POST", "/v1/jobs/plan", false},
		{"GET", "/v1/jobs/x", false},
		{"DELETE", "/v1/jobs/x", false},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		unrouted := resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed
		switch {
		case tc.live && unrouted:
			t.Errorf("%s %s = %d, want a mounted route", tc.method, tc.path, resp.StatusCode)
		case !tc.live && resp.StatusCode != http.StatusNotFound:
			t.Errorf("%s %s = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestWarmRestartThroughServer: server A answers a /v1/plan and writes
// the plan through to a data dir; server B — a fresh process-equivalent
// over the same dir — answers the same request from the durable store
// with no solve.
func TestWarmRestartThroughServer(t *testing.T) {
	dir := t.TempDir()
	body := map[string]any{"graph": testGraphText, "pes": 4, "iterations": 50}
	solves := func() uint64 { return obs.PlanSolveTimer("para-conv").Histogram().State().Count }

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Store: st1})
	resp, want := post(t, ts1, "/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("boot1 status %d, body %s", resp.StatusCode, want)
	}
	if cs := s1.CacheStats(); cs.StoreMisses != 1 || cs.StoreHits != 0 {
		t.Fatalf("boot1 store counters = %+v", cs)
	}

	// A restart finds what the first boot's drain landed.
	if err := st1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Store: st2})
	before := solves()
	resp, got := post(t, ts2, "/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("boot2 status %d, body %s", resp.StatusCode, got)
	}
	if cs := s2.CacheStats(); cs.StoreHits != 1 || cs.StoreMisses != 0 {
		t.Fatalf("boot2 store counters = %+v, want 1 hit / 0 misses", cs)
	}
	if n := solves() - before; n != 0 {
		t.Fatalf("boot2 ran %d solves, want 0", n)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("boot2 answered\n%s\nwant boot1's\n%s", got, want)
	}
}
