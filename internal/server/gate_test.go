package server

import (
	"context"
	"errors"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/run"
)

// planBody is a JSON /v1/plan request for the test diamond.
func planBody(extra string) string {
	text := strings.ReplaceAll(testGraphText, "\n", `\n`)
	return `{"graph": "` + text + `", "pes": 4` + extra + `}`
}

// newSolveServer serves POST / through s.solve with fn as the solver,
// so a test decides what "solving" does while the whole skeleton —
// decode, deadline, gate, response — stays the production one.
func newSolveServer(t *testing.T, cfg Config, fn solveFunc) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewUnstartedServer(route("plan", func(sr *statusRecorder, r *http.Request) {
		s.solve(sr, r, "plan", fn)
	}))
	// A panicking solve is reported by net/http on the server's error
	// log; keep it out of the test output.
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts
}

// blockingSolve returns a solver that parks until release is closed,
// and a channel that receives once per solve that has started.
func blockingSolve(release <-chan struct{}) (solveFunc, <-chan struct{}) {
	started := make(chan struct{}, 64) // one send per request; no test starts more
	return func(*run.Session, *decoded) (any, error) {
		started <- struct{}{}
		<-release
		return &planResponse{Scheme: "test"}, nil
	}, started
}

func postStatus(url, body string) (int, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestGateShedsExactlyAtBound: with every admitted request stuck in
// its solve, requests 1..Workers+QueueDepth are all admitted, request
// Workers+QueueDepth+1 is the first to be shed, and the admitted ones
// all complete once the solves finish.
func TestGateShedsExactlyAtBound(t *testing.T) {
	const workers, depth = 2, 3
	release := make(chan struct{})
	fn, started := blockingSolve(release)
	s, ts := newSolveServer(t, Config{Workers: workers, QueueDepth: depth}, fn)
	shedBefore := obs.ServerShed.Value()

	statuses := make(chan int, workers+depth)
	var wg sync.WaitGroup
	for i := 0; i < workers+depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, err := postStatus(ts.URL, planBody(""))
			if err != nil {
				t.Error(err)
			}
			statuses <- status
		}()
	}
	waitAdmitted(t, s, workers+depth)
	for i := 0; i < workers; i++ {
		<-started
	}
	if n := len(s.gate.running); n != workers {
		t.Fatalf("%d requests hold run slots, want %d", n, workers)
	}
	if got := obs.ServerShed.Value() - shedBefore; got != 0 {
		t.Fatalf("%d requests shed before the bound was reached", got)
	}

	status, err := postStatus(ts.URL, planBody(""))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("request %d: status %d, want 429", workers+depth+1, status)
	}
	if got := obs.ServerShed.Value() - shedBefore; got != 1 {
		t.Fatalf("shed counter moved by %d, want 1", got)
	}

	close(release)
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Errorf("admitted request answered %d, want 200", status)
		}
	}
	waitAdmitted(t, s, 0)
}

// TestGateDeadlineWhileWaitingReturnsToken: a request whose deadline
// expires while it waits for a run slot answers 504 and gives its
// admission token back.
func TestGateDeadlineWhileWaitingReturnsToken(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := blockWorkers(t, s, 1)
	defer release()

	for i := 0; i < 3; i++ {
		// Were the token leaked, the second pass would be shed: the one
		// queue place would still be taken.
		resp, data := post(t, ts, "/v1/plan", planBody(`, "timeout_ms": 20`))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("pass %d: status %d, want 504 (body %s)", i, resp.StatusCode, data)
		}
	}
	if n := len(s.gate.admitted); n != 1 {
		t.Errorf("gate holds %d tokens after the timeouts, want only the blocker's 1", n)
	}
	if d := obs.ServerQueueDepth.Value(); d != 0 {
		t.Errorf("queue_depth gauge reads %d after the waiters left, want 0", d)
	}
}

// TestGatePanickingSolveReleasesSlot: a solve that panics (net/http
// recovers it and drops the connection) must not take its run slot
// with it.
func TestGatePanickingSolveReleasesSlot(t *testing.T) {
	var boom sync.Once
	s, ts := newSolveServer(t, Config{Workers: 1, QueueDepth: 1},
		func(*run.Session, *decoded) (any, error) {
			boom.Do(func() { panic("solver bug") })
			return &planResponse{Scheme: "test"}, nil
		})
	if _, err := postStatus(ts.URL, planBody("")); err == nil {
		t.Fatal("panicking solve still produced a response")
	}
	waitAdmitted(t, s, 0)
	if n := len(s.gate.running); n != 0 {
		t.Fatalf("%d run slots still held after the panic", n)
	}
	if d := obs.ServerInflight.Value(); d != 0 {
		t.Errorf("inflight gauge reads %d after the panic, want 0", d)
	}
	status, err := postStatus(ts.URL, planBody(""))
	if err != nil || status != http.StatusOK {
		t.Fatalf("request after the panic = (%d, %v), want 200", status, err)
	}
}

// TestGateFIFO: waiters get run slots in arrival order.
func TestGateFIFO(t *testing.T) {
	g := newGate(1, 3)
	if err := g.enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			if err := g.enter(context.Background()); err != nil {
				t.Error(err)
			}
			order <- i
		}()
		// Park waiter i before starting waiter i+1.
		for deadline := time.Now().Add(5 * time.Second); len(g.admitted) != i+2; {
			if !time.Now().Before(deadline) {
				t.Fatalf("waiter %d never reached the gate", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := g.enter(context.Background()); !errors.Is(err, errShed) {
		t.Fatalf("enter beyond the bound = %v, want errShed", err)
	}
	for want := 0; want < 3; want++ {
		g.leave()
		if got := <-order; got != want {
			t.Fatalf("run slot %d went to waiter %d", want, got)
		}
	}
	g.leave()
	if len(g.admitted) != 0 || len(g.running) != 0 {
		t.Fatalf("gate not empty after everyone left: %d admitted, %d running", len(g.admitted), len(g.running))
	}
}

// TestDrainWaitsForInlineSolve: Drain returns only after a solve
// running on its connection's goroutine has finished and answered.
func TestDrainWaitsForInlineSolve(t *testing.T) {
	release := make(chan struct{})
	fn, started := blockingSolve(release)
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.mux.HandleFunc("POST /test/block", route("plan", func(sr *statusRecorder, r *http.Request) {
		s.solve(sr, r, "plan", fn)
	}))
	running, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	status := make(chan int, 1)
	go func() {
		code, err := postStatus("http://"+running.Addr()+"/test/block", planBody(""))
		if err != nil {
			t.Error(err)
		}
		status <- code
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- running.Drain(10 * time.Second) }()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a solve still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight request answered %d, want 200", code)
	}
}

// TestRequestTimeout: a request's deadline is derived from timeout_ms
// — the server default when absent, capped at MaxTimeout — on every
// input, including values whose millisecond→Duration multiplication
// would overflow, and the solve runs under exactly that deadline.
func TestRequestTimeout(t *testing.T) {
	const def, max = 7 * time.Second, 11 * time.Second
	// remaining captures how far away the solve's deadline is.
	remaining := make(chan time.Duration, 1)
	fn := func(sess *run.Session, _ *decoded) (any, error) {
		dl, ok := sess.Context().Deadline()
		if !ok {
			return nil, errors.New("solve ran with no deadline")
		}
		remaining <- time.Until(dl)
		return &planResponse{Scheme: "test"}, nil
	}
	s, ts := newSolveServer(t, Config{DefaultTimeout: def, MaxTimeout: max}, fn)

	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{0, def},
		{1, time.Millisecond},
		{int(max/time.Millisecond) - 1, max - time.Millisecond},
		{int(max / time.Millisecond), max},
		{int(max/time.Millisecond) + 1, max},
		{1e13, max},
		{math.MaxInt, max},
	} {
		if got := s.requestTimeout(tc.ms); got != tc.want {
			t.Errorf("requestTimeout(%d) = %v, want %v", tc.ms, got, tc.want)
		}
		status, err := postStatus(ts.URL, planBody(`, "timeout_ms": `+strconv.Itoa(tc.ms)))
		if err != nil || status != http.StatusOK {
			t.Fatalf("timeout_ms %d = (%d, %v), want 200", tc.ms, status, err)
		}
		// The deadline was set moments ago, so what remains is the
		// derived timeout less scheduling slack.
		if got := <-remaining; got > tc.want || got < tc.want-2*time.Second {
			t.Errorf("timeout_ms %d: solve saw %v to its deadline, want just under %v", tc.ms, got, tc.want)
		}
	}
}
