package run

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
)

// waitForWaiters blocks until the flight for key has n attached
// waiters (the leader excluded), so tests can release a blocked solve
// only after every racing goroutine is provably riding it.
func waitForWaiters(t *testing.T, c *planCache, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.flightMu.Lock()
		call := c.flights[key]
		waiters := 0
		if call != nil {
			waiters = call.waiters
		}
		c.flightMu.Unlock()
		if waiters >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flight never reached %d waiters", n)
}

func TestDoFlightCollapsesRacingSolves(t *testing.T) {
	c := newPlanCache(8)
	key := "g|c|v"
	want := &sched.Plan{Scheme: "test"}

	var solves atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	solve := func() (*sched.Plan, error) {
		solves.Add(1)
		close(entered)
		<-release
		return want, nil
	}

	const followers = 15
	results := make(chan *sched.Plan, followers+1)
	errs := make(chan error, followers+1)
	go func() {
		p, err := c.doFlight(context.Background(), key, solve)
		results <- p
		errs <- err
	}()
	<-entered // the leader is inside solve; everyone else must ride it

	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.doFlight(context.Background(), key, func() (*sched.Plan, error) {
				solves.Add(1)
				return want, nil
			})
			results <- p
			errs <- err
		}()
	}
	waitForWaiters(t, c, key, followers)
	close(release)
	wg.Wait()

	for i := 0; i < followers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("doFlight error: %v", err)
		}
		if p := <-results; p != want {
			t.Fatalf("doFlight returned %p, want the shared %p", p, want)
		}
	}
	if n := solves.Load(); n != 1 {
		t.Errorf("solve ran %d times, want 1", n)
	}
	if st := c.stats(); st.DedupHits != followers {
		t.Errorf("DedupHits = %d, want %d", st.DedupHits, followers)
	}
	c.flightMu.Lock()
	leftover := len(c.flights)
	c.flightMu.Unlock()
	if leftover != 0 {
		t.Errorf("%d flights left registered after completion", leftover)
	}
}

func TestDoFlightSharesLeaderError(t *testing.T) {
	c := newPlanCache(8)
	key := "g"
	boom := errors.New("boom")

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.doFlight(context.Background(), key, func() (*sched.Plan, error) {
			close(entered)
			<-release
			return nil, boom
		})
		leaderErr <- err
	}()
	<-entered

	followerErr := make(chan error, 1)
	go func() {
		_, err := c.doFlight(context.Background(), key, func() (*sched.Plan, error) {
			t.Error("follower ran its own solve despite an in-flight leader")
			return nil, nil
		})
		followerErr <- err
	}()
	waitForWaiters(t, c, key, 1)
	close(release)

	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Errorf("leader error = %v, want boom", err)
	}
	if err := <-followerErr; !errors.Is(err, boom) {
		t.Errorf("follower error = %v, want the leader's boom", err)
	}
	if st := c.stats(); st.DedupHits != 0 {
		t.Errorf("DedupHits = %d after a failed flight, want 0", st.DedupHits)
	}
}

func TestDoFlightFollowerRetriesAfterLeaderCancel(t *testing.T) {
	c := newPlanCache(8)
	key := "g"
	want := &sched.Plan{Scheme: "retry"}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered := make(chan struct{})
	var solves atomic.Int32
	go func() {
		c.doFlight(leaderCtx, key, func() (*sched.Plan, error) {
			solves.Add(1)
			close(entered)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
	}()
	<-entered

	followerDone := make(chan struct{})
	var followerPlan *sched.Plan
	var followerErr error
	go func() {
		defer close(followerDone)
		followerPlan, followerErr = c.doFlight(context.Background(), key, func() (*sched.Plan, error) {
			solves.Add(1)
			return want, nil
		})
	}()
	waitForWaiters(t, c, key, 1)
	cancelLeader()
	<-followerDone

	if followerErr != nil {
		t.Fatalf("follower error = %v, want nil (its own context was live)", followerErr)
	}
	if followerPlan != want {
		t.Fatalf("follower plan = %p, want its own solve's %p", followerPlan, want)
	}
	if n := solves.Load(); n != 2 {
		t.Errorf("solve ran %d times, want 2 (cancelled leader + retrying follower)", n)
	}
}

func TestDoFlightWaiterHonorsOwnContext(t *testing.T) {
	c := newPlanCache(8)
	key := "g"

	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.doFlight(context.Background(), key, func() (*sched.Plan, error) {
			close(entered)
			<-release
			return &sched.Plan{}, nil
		})
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := c.doFlight(ctx, key, func() (*sched.Plan, error) {
		t.Error("waiter ran a solve")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter error = %v, want DeadlineExceeded", err)
	}
}

// TestPlanLeaderCancelDuringPeerFill races singleflight leadership
// against the cluster tier: a flight leader cancelled while blocked in
// a peer GET must die with its context's error without poisoning the
// cache, and a follower with a live context must retry leadership,
// absorb the peer's refusal as a counted fallback, and solve locally.
func TestPlanLeaderCancelDuringPeerFill(t *testing.T) {
	var fills atomic.Int32
	firstFill := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fills.Add(1) == 1 {
			close(firstFill)
			// Hold the leader's fill open; the test releases it after
			// the race resolves (the cancelled client has long since
			// abandoned the connection by then).
			<-release
			return
		}
		http.Error(w, "not_found", http.StatusNotFound)
	}))
	defer srv.Close()
	defer close(release) // LIFO: unblock the handler before Close waits on it
	peer := srv.Listener.Addr().String()

	cl, err := cluster.New(cluster.Config{
		Self:          "127.0.0.1:1",
		Peers:         []string{"127.0.0.1:1", peer},
		ProbeInterval: time.Hour,
		FillTimeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	s := New(context.Background())
	s.AttachPeers(cl)
	cfg := pim.Neurocube(16)

	// Find a problem the httptest peer owns, so the flight leader
	// actually issues a fill instead of solving as the owner.
	var g *dag.Graph
	var key string
	for seed := int64(0); seed < 64; seed++ {
		cand := testGraph(t, fmt.Sprintf("peercancel-%d", seed), 24, 50, 9100+seed)
		if fp := PlanFingerprint("", "", cand, cfg); cl.Owner(fp) == peer {
			g, key = cand, fp
			break
		}
	}
	if g == nil {
		t.Fatal("no candidate graph owned by the peer in 64 tries")
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.WithContext(leaderCtx).Plan(g, cfg)
		leaderErr <- err
	}()
	<-firstFill // the leader is blocked inside the peer GET

	followerDone := make(chan struct{})
	var followerPlan *sched.Plan
	var followerErr error
	go func() {
		defer close(followerDone)
		followerPlan, followerErr = s.Plan(g, cfg)
	}()
	waitForWaiters(t, s.cache, key, 1)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader error = %v, want context.Canceled", err)
	}
	<-followerDone
	if followerErr != nil {
		t.Fatalf("follower error = %v, want a local-solve fallback", followerErr)
	}
	if err := followerPlan.Iter.Validate(); err != nil {
		t.Fatalf("follower's fallback plan invalid: %v", err)
	}
	if n := fills.Load(); n < 2 {
		t.Errorf("peer saw %d fill requests, want 2 (cancelled leader + retrying follower)", n)
	}

	st := s.CacheStats()
	if st.PeerFills != 0 {
		t.Errorf("PeerFills = %d, want 0 (no fill completed)", st.PeerFills)
	}
	if st.PeerFallbacks != 1 {
		t.Errorf("PeerFallbacks = %d, want 1 (the follower's refused fill)", st.PeerFallbacks)
	}
	if st.Size != 1 {
		t.Errorf("cache holds %d entries after the race, want the follower's 1", st.Size)
	}
	// The cancelled flight must not have poisoned the cache: a fresh
	// caller gets the follower's cached plan without another flight.
	p, err := s.Plan(g, cfg)
	if err != nil || p != followerPlan {
		t.Fatalf("post-race Plan = (%p, %v), want the follower's cached plan %p", p, err, followerPlan)
	}
}

// TestSessionPlanConcurrentDedup drives the real planner through
// racing goroutines: every caller must end up with the same *Plan and
// the cache counters must account for exactly one solve.
func TestSessionPlanConcurrentDedup(t *testing.T) {
	s := New(context.Background())
	g := testGraph(t, "dedup", 40, 100, 4040)
	cfg := pim.Neurocube(16)

	const callers = 12
	plans := make([]*sched.Plan, callers)
	errs := make([]error, callers)
	var start sync.WaitGroup
	start.Add(1)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			plans[i], errs[i] = s.Plan(g, cfg)
		}(i)
	}
	start.Done()
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different plan pointer", i)
		}
	}
	st := s.CacheStats()
	if st.Hits+st.Misses != callers {
		t.Errorf("hits %d + misses %d != %d callers", st.Hits, st.Misses, callers)
	}
	// Every miss either rode the flight or led it (and a late leader
	// finds the cache already warm via the double-check), so riders
	// never exceed misses minus the one real solve.
	if st.Misses < 1 || st.DedupHits > st.Misses-1 {
		t.Errorf("inconsistent counters: misses %d, dedup %d", st.Misses, st.DedupHits)
	}
	if st.Size != 1 {
		t.Errorf("cache holds %d entries, want 1", st.Size)
	}
}

func TestWithContextSharesCacheAndScopesCancellation(t *testing.T) {
	s := New(context.Background())
	g := testGraph(t, "withctx", 30, 70, 3030)
	cfg := pim.Neurocube(16)

	if _, err := s.Plan(g, cfg); err != nil {
		t.Fatal(err)
	}

	// A derived session with a live context hits the shared cache.
	derived := s.WithContext(context.Background())
	if _, err := derived.Plan(g, cfg); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Hits == 0 {
		t.Errorf("derived session missed the shared cache: %+v", st)
	}

	// A derived session with a dead context fails on uncached work
	// while the parent keeps working.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	g2 := testGraph(t, "withctx2", 30, 70, 6060)
	if _, err := s.WithContext(dead).Plan(g2, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("dead derived session error = %v, want Canceled", err)
	}
	if _, err := s.Plan(g2, cfg); err != nil {
		t.Errorf("parent session broken after derived cancellation: %v", err)
	}
}

// TestDoFlightLeaderPanicReleasesFlight: a leader whose solve panics
// re-raises the panic, and its waiter re-enters the flight and solves
// inside its own deadline; afterwards no flight is left behind.
// Without the release the waiter would wait out its deadline.
func TestDoFlightLeaderPanicReleasesFlight(t *testing.T) {
	c := newPlanCache(8)
	key := "g|c|v"
	entered, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.doFlight(context.Background(), key, func() (*sched.Plan, error) {
			close(entered)
			<-release
			panic("solver bug")
		})
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	want := &sched.Plan{Scheme: "test"}
	type result struct {
		p   *sched.Plan
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		p, err := c.doFlight(ctx, key, func() (*sched.Plan, error) { return want, nil })
		waiter <- result{p, err}
	}()
	waitForWaiters(t, c, key, 1)
	close(release)

	if r := <-recovered; r != "solver bug" {
		t.Fatalf("leader recovered %v, want its own panic re-raised", r)
	}
	if r := <-waiter; r.err != nil || r.p != want {
		t.Fatalf("waiter got %v/%v, want its own solve's plan", r.p, r.err)
	}
	c.flightMu.Lock()
	left := len(c.flights)
	c.flightMu.Unlock()
	if left != 0 {
		t.Fatalf("%d flights left behind, want none", left)
	}
}
