package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// ownedBy finds a key the given member owns on c's ring.
func ownedBy(t *testing.T, c *Cluster, member string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("%064x", i)
		if c.Owner(k) == member {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 100k probes", member)
	return ""
}

func newTestCluster(t *testing.T, self string, peers []string, cfg Config) *Cluster {
	t.Helper()
	cfg.Self = self
	cfg.Peers = peers
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterFillRoundTrip(t *testing.T) {
	// The owner misses on the first (bodiless) probe and serves the
	// second exchange, which carries the problem — the full two-step
	// fill protocol.
	body := []byte("encoded-plan-frame")
	var reqs []string
	var gotPath string
	filled := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		buf := make([]byte, r.ContentLength)
		r.Body.Read(buf)
		reqs = append(reqs, string(buf))
		if len(buf) == 0 && !filled {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		filled = true
		w.Write(body)
	}))
	defer srv.Close()
	peer := srv.Listener.Addr().String()

	c := newTestCluster(t, "self:1", []string{"self:1", peer}, Config{ProbeInterval: time.Hour})
	fp := ownedBy(t, c, peer)
	var built int
	payload, ok := c.Fill(context.Background(), fp, func() []byte {
		built++
		return []byte("fill-frame")
	})
	if !ok {
		t.Fatal("Fill against a healthy peer failed")
	}
	if string(payload) != string(body) {
		t.Fatalf("payload = %q, want %q", payload, body)
	}
	if gotPath != "/v1/plans/"+fp {
		t.Fatalf("peer saw path %q, want /v1/plans/%s", gotPath, fp)
	}
	if len(reqs) != 2 || reqs[0] != "" || reqs[1] != "fill-frame" {
		t.Fatalf("peer saw bodies %q, want a bodiless probe then the fill frame", reqs)
	}
	if built != 1 {
		t.Fatalf("fill frame built %d times, want 1 (only on the owner's miss)", built)
	}

	// A warm second fill reuses the pooled connection and — the peer
	// now answering the probe — never builds the problem frame.
	if _, ok := c.Fill(context.Background(), fp, func() []byte {
		t.Error("warm fill built the problem frame")
		return nil
	}); !ok {
		t.Fatal("pooled second fill failed")
	}
	if len(reqs) != 3 {
		t.Fatalf("peer saw %d requests, want 3 (probe, fill, warm probe)", len(reqs))
	}
}

func TestClusterFillSelfOwnedAndNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer srv.Close()
	peer := srv.Listener.Addr().String()
	c := newTestCluster(t, "self:1", []string{"self:1", peer}, Config{ProbeInterval: time.Hour})

	if _, ok := c.Fill(context.Background(), ownedBy(t, c, "self:1"), nil); ok {
		t.Fatal("Fill for a self-owned fingerprint claimed success")
	}
	if _, ok := c.Fill(context.Background(), ownedBy(t, c, peer), nil); ok {
		t.Fatal("Fill returning 404 claimed success")
	}
	// A 404 still proves the peer alive: the breaker must stay closed.
	if live, total := c.Health(); live != 2 || total != 2 {
		t.Fatalf("Health() = %d/%d after 404, want 2/2", live, total)
	}
}

// TestClusterBreaker: consecutive failures flip the peer out of the
// ring (its keys fall back to self), and a successful probe of the
// recovered peer flips it back in.
func TestClusterBreaker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := ln.Addr().String()
	ln.Close() // connection refused from here on

	c := newTestCluster(t, "self:1", []string{"self:1", peer}, Config{
		ProbeInterval: 20 * time.Millisecond,
		FillTimeout:   200 * time.Millisecond,
	})
	fp := ownedBy(t, c, peer)
	for i := 0; i < failureThreshold; i++ {
		if _, ok := c.Fill(context.Background(), fp, nil); ok {
			t.Fatal("Fill against a dead peer claimed success")
		}
	}
	if live, _ := c.Health(); live != 1 {
		t.Fatalf("live = %d after %d consecutive failures, want 1", live, failureThreshold)
	}
	if owner := c.Owner(fp); owner != "self:1" {
		t.Fatalf("dead peer's key owned by %q, want self:1", owner)
	}
	// Fill now short-circuits: self owns everything.
	if _, ok := c.Fill(context.Background(), fp, nil); ok {
		t.Fatal("Fill succeeded with the only peer out of the ring")
	}

	// Revive the peer on the same address; the probe loop must close
	// the breaker.
	ln2, err := net.Listen("tcp", peer)
	if err != nil {
		t.Skipf("could not rebind %s to revive the peer: %v", peer, err)
	}
	defer ln2.Close()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})}
	go srv.Serve(ln2)
	defer srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if live, _ := c.Health(); live == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the peer recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if owner := c.Owner(fp); owner != peer {
		t.Fatalf("revived peer's key owned by %q, want %s", owner, peer)
	}
}

// TestClusterFillContextCancel: a cancelled requester must unblock the
// fill immediately, well before the fill timeout.
func TestClusterFillContextCancel(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)
	peer := srv.Listener.Addr().String()

	c := newTestCluster(t, "self:1", []string{"self:1", peer}, Config{
		ProbeInterval: time.Hour,
		FillTimeout:   30 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, ok := c.Fill(ctx, ownedBy(t, c, peer), nil)
	if ok {
		t.Fatal("Fill claimed success after its context died")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancelled fill took %s to unblock; the ctx watcher should have cut it", waited)
	}
}

func TestClusterNewValidation(t *testing.T) {
	if _, err := New(Config{Self: "", Peers: []string{"a:1"}}); err == nil {
		t.Fatal("New accepted an empty self")
	}
	if _, err := New(Config{Self: "b:2", Peers: []string{"a:1"}}); err == nil {
		t.Fatal("New accepted a self outside the member list")
	}
}
