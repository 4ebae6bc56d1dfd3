package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/wire"
)

// submitPlanJob posts a plan job and returns the accepted body.
func submitPlanJob(t *testing.T, ts *httptest.Server, path string, body any) wire.JobAccepted {
	t.Helper()
	resp, data := post(t, ts, path, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, body %s", resp.StatusCode, data)
	}
	var acc wire.JobAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatalf("accepted body %q: %v", data, err)
	}
	if acc.JobID == "" {
		t.Fatalf("accepted body %q has no job id", data)
	}
	return acc
}

// getJob fetches a job's status with an optional wait query.
func getJob(t *testing.T, ts *httptest.Server, id, wait string) (*http.Response, wire.JobStatus, []byte) {
	t.Helper()
	url := ts.URL + "/v1/jobs/" + id
	if wait != "" {
		url += "?wait=" + wait
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var js wire.JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &js); err != nil {
			t.Fatalf("status body %q: %v", data, err)
		}
	}
	return resp, js, data
}

// pollTerminal long-polls until the job is terminal or the deadline.
func pollTerminal(t *testing.T, ts *httptest.Server, id string) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, js, data := getJob(t, ts, id, "1s")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d, body %s", resp.StatusCode, data)
		}
		if jobs.State(js.State).Terminal() {
			return js
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return wire.JobStatus{}
}

func TestJobPlanRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	acc := submitPlanJob(t, ts, "/v1/jobs", map[string]any{
		"graph": testGraphText, "pes": 4, "iterations": 50,
	})
	if acc.State != string(jobs.StateQueued) {
		t.Errorf("accepted state %q, want queued", acc.State)
	}
	final := pollTerminal(t, ts, acc.JobID)
	if final.State != string(jobs.StateDone) || final.Op != "plan" {
		t.Fatalf("final = %+v, want done/plan", final)
	}
	if final.ElapsedMS <= 0 {
		t.Errorf("elapsed_ms = %v, want > 0", final.ElapsedMS)
	}
	// The embedded result is the same shape the sync endpoint returns.
	resBytes, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	var plan planResponse
	if err := json.Unmarshal(resBytes, &plan); err != nil {
		t.Fatalf("embedded result %s: %v", resBytes, err)
	}
	if plan.Scheme != "para-conv" || plan.Period <= 0 {
		t.Errorf("implausible embedded plan: %+v", plan)
	}
}

func TestJobExplicitOps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, op := range []string{"plan", "simulate", "selectarch"} {
		acc := submitPlanJob(t, ts, "/v1/jobs/"+op, map[string]any{
			"graph": testGraphText, "pes": 4, "iterations": 20,
		})
		final := pollTerminal(t, ts, acc.JobID)
		if final.State != string(jobs.StateDone) || final.Op != op {
			t.Fatalf("%s job final = %+v, want done", op, final)
		}
		if final.Result == nil {
			t.Fatalf("%s job finished with no result", op)
		}
	}
}

func TestJobUnknownOp(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/jobs/frobnicate", map[string]any{"graph": testGraphText})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "not_found" {
		t.Fatalf("kind %q, want not_found", e.Kind)
	}
}

func TestJobBadRequestRejectedAtSubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/jobs", map[string]any{"graph": ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	decodeError(t, data)
}

func TestJobFailureCarriesTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	acc := submitPlanJob(t, ts, "/v1/jobs", map[string]any{
		"graph": testGraphText, "variant": "frobnicate",
	})
	final := pollTerminal(t, ts, acc.JobID)
	if final.State != string(jobs.StateFailed) {
		t.Fatalf("final = %+v, want failed", final)
	}
	if final.Kind != "bad_request" || final.Error == "" {
		t.Fatalf("failed job carries kind %q error %q, want bad_request", final.Kind, final.Error)
	}
	if final.Result != nil {
		t.Fatal("failed job carries a result")
	}
}

func TestJobUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _, data := getJob(t, ts, "deadbeef", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
}

func TestJobBadWait(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	acc := submitPlanJob(t, ts, "/v1/jobs", map[string]any{"graph": testGraphText})
	resp, _, data := getJob(t, ts, acc.JobID, "soon")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
}

// blockWorker occupies one async worker with a job that holds until
// release is closed (or the engine cancels it at Close).  It returns
// once the blocker is running, so the caller knows the worker is
// genuinely occupied — HTTP-submitted solves are too fast to saturate
// the pool deterministically.
func blockWorker(t *testing.T, s *Server, release chan struct{}) {
	t.Helper()
	started := make(chan struct{})
	_, err := s.jobs.Submit("plan", time.Minute, func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker never started")
	}
}

func TestJobCancel(t *testing.T) {
	// One async worker, occupied by a blocker, keeps the target
	// submission queued long enough to cancel deterministically.
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	release := make(chan struct{})
	defer close(release)
	blockWorker(t, s, release)
	acc := submitPlanJob(t, ts, "/v1/jobs", map[string]any{"graph": testGraphText})
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+acc.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := pollTerminal(t, ts, acc.JobID)
	if final.State != string(jobs.StateCancelled) {
		t.Fatalf("final = %+v, want cancelled", final)
	}
}

func TestJobQueueFullSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	// The blocker owns the worker, the first HTTP submission owns the
	// single queue slot, so the second must be shed with a 429.
	blockWorker(t, s, release)
	submitPlanJob(t, ts, "/v1/jobs", map[string]any{"graph": testGraphText})
	resp, data := post(t, ts, "/v1/jobs", map[string]any{"graph": testGraphText})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, body %s, want 429", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "shed" {
		t.Fatalf("kind %q, want shed", e.Kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestJobWarmRestartThroughServer drives the whole tentpole: server A
// solves async jobs and writes through to a data dir; server B — a
// fresh process-equivalent over the same dir — serves the same graphs
// from the durable store with zero new solves.
func TestJobWarmRestartThroughServer(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Store: st1})
	acc := submitPlanJob(t, ts1, "/v1/jobs", map[string]any{
		"graph": testGraphText, "pes": 4, "iterations": 50,
	})
	if final := pollTerminal(t, ts1, acc.JobID); final.State != string(jobs.StateDone) {
		t.Fatalf("boot1 job = %+v", final)
	}
	if cs := s1.CacheStats(); cs.StoreMisses != 1 || cs.StoreHits != 0 {
		t.Fatalf("boot1 store counters = %+v", cs)
	}

	// A restart finds what the first boot's drain flushed.
	if err := st1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Store: st2})
	acc = submitPlanJob(t, ts2, "/v1/jobs", map[string]any{
		"graph": testGraphText, "pes": 4, "iterations": 50,
	})
	if final := pollTerminal(t, ts2, acc.JobID); final.State != string(jobs.StateDone) {
		t.Fatalf("boot2 job = %+v", final)
	}
	cs := s2.CacheStats()
	if cs.StoreHits != 1 || cs.StoreMisses != 0 {
		t.Fatalf("boot2 store counters = %+v, want 1 hit / 0 misses (zero solves)", cs)
	}
	// The sync endpoint shares the same tiered cache: a /v1/plan of the
	// same graph is now an in-memory hit, still no solve.
	resp, data := post(t, ts2, "/v1/plan", map[string]any{
		"graph": testGraphText, "pes": 4, "iterations": 50,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync follow-up status %d, body %s", resp.StatusCode, data)
	}
	if cs := s2.CacheStats(); cs.StoreMisses != 0 {
		t.Fatalf("sync follow-up consulted the solver: %+v", cs)
	}
}

func TestDrainCancelsAsyncJobs(t *testing.T) {
	s := New(Config{JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := make(chan struct{})
	defer close(release)
	// A blocker holds the worker so the HTTP submission is still queued
	// when the server closes; both must land in cancelled.
	blockWorker(t, s, release)
	queued := submitPlanJob(t, ts, "/v1/jobs", map[string]any{"graph": testGraphText})
	s.Close()
	resp, js, data := getJob(t, ts, queued.JobID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if js.State != string(jobs.StateCancelled) {
		t.Fatalf("queued job after Close = %+v, want cancelled", js)
	}
	resp, data = post(t, ts, "/v1/jobs", map[string]any{"graph": testGraphText})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close = %d, body %s", resp.StatusCode, data)
	}
}
