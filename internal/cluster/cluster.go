package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Config parameterizes one node's view of the cluster.
type Config struct {
	// Self is this node's own entry in Peers (its advertised
	// host:port).  Requests whose fingerprint Self owns are never
	// forwarded.
	Self string
	// Peers is the full static member list, including Self.  Every
	// node (and every routing client) must be configured with the
	// same list for the ring to agree fleet-wide; order and
	// duplicates are irrelevant.
	Peers []string
	// FillTimeout bounds one fill exchange against a peer (default
	// 2s); the requester's own context can only shorten it.
	FillTimeout time.Duration
	// ProbeInterval is the health-probe cadence per peer (default
	// 1s).
	ProbeInterval time.Duration
}

const (
	// failureThreshold is how many consecutive failures (fills or
	// probes) open a peer's breaker and flip it out of the ring.  A
	// later successful probe closes the breaker.
	failureThreshold = 3
	// maxIdleConns bounds the pooled connections kept per peer.
	maxIdleConns = 4
)

func (c Config) withDefaults() Config {
	if c.FillTimeout <= 0 {
		c.FillTimeout = 2 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	return c
}

// peer is one remote member: its connection pool and breaker state.
type peer struct {
	addr string

	mu       sync.Mutex
	idle     []*peerConn
	failures int // consecutive; reset on any success
	open     bool
}

func (p *peer) getConn() *peerConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return pc
	}
	return nil
}

func (p *peer) putConn(pc *peerConn) {
	p.mu.Lock()
	if len(p.idle) < maxIdleConns {
		p.idle = append(p.idle, pc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	pc.close()
}

func (p *peer) closeAll() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, pc := range idle {
		pc.close()
	}
}

// Cluster is one node's runtime view of the fleet: the ring, a
// connection pool and breaker per peer, and a probe loop flipping
// peers in and out of the ring.  It implements internal/run's
// PeerFiller, so a Session with a Cluster attached extends its miss
// path one tier outward before solving.
type Cluster struct {
	cfg   Config
	peers map[string]*peer

	mu   sync.RWMutex // guards ring liveness
	ring *Ring

	stop    chan struct{}
	wg      sync.WaitGroup
	stopped sync.Once
}

// New validates cfg, builds the ring, and starts the probe loop.
// Close must be called to stop it.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self id")
	}
	ring := NewRing(cfg.Peers, DefaultVNodes)
	members := ring.Members()
	self := false
	for _, m := range members {
		if m == cfg.Self {
			self = true
			break
		}
	}
	if !self {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, members)
	}
	c := &Cluster{
		cfg:   cfg,
		peers: make(map[string]*peer, len(members)-1),
		ring:  ring,
		stop:  make(chan struct{}),
	}
	for _, m := range members {
		if m != cfg.Self {
			c.peers[m] = &peer{addr: m}
		}
	}
	obs.ClusterRingMembers.Set(int64(len(members)))
	obs.ClusterRingLive.Set(int64(len(members)))
	obs.ClusterBreakerOpen.Set(0)
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// Close stops the probe loop and closes every pooled connection.
func (c *Cluster) Close() {
	c.stopped.Do(func() { close(c.stop) })
	c.wg.Wait()
	for _, p := range c.peers {
		p.closeAll()
	}
}

// Self returns this node's member id.
func (c *Cluster) Self() string { return c.cfg.Self }

// Owner returns the live member owning fp.
func (c *Cluster) Owner(fp string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Owner(fp)
}

// Owns reports whether this node owns fp (in which case it solves
// locally instead of filling).
func (c *Cluster) Owns(fp string) bool { return c.Owner(fp) == c.cfg.Self }

// Health returns the live and configured member counts (self counts
// as live).
func (c *Cluster) Health() (live, total int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Live()
}

// Fill implements run.PeerFiller: fetch the encoded plan for fp from
// its owner.  The warm exchange ships nothing but the fingerprint —
// the owner answers out of its tiers with the plan's at-rest frame,
// lean for para-conv — and only an owner-side miss (404) triggers a
// second exchange carrying fill's full planning problem (the wire
// peer-fill frame) so the owner can solve on the requester's behalf.  Deferring
// the problem upload keeps the steady-state fill off the graph
// encoder entirely.  (nil, false) means "no peer could serve this" —
// the caller solves locally; the per-peer breaker has already
// recorded the failure.
func (c *Cluster) Fill(ctx context.Context, fp string, fill func() []byte) ([]byte, bool) {
	owner := c.Owner(fp)
	if owner == "" || owner == c.cfg.Self {
		return nil, false
	}
	p, ok := c.peers[owner]
	if !ok {
		return nil, false
	}
	status, body, err := c.exchange(ctx, p, fillRequest(p.addr, fp, wire.ContentTypeBinary, nil))
	if err != nil {
		obs.ClusterPeerFillFailures.Inc()
		c.recordResult(p, false)
		obs.Log().Warn("peer fill failed", "peer", p.addr, "fp", fp, "err", err)
		return nil, false
	}
	if status == http.StatusNotFound && fill != nil {
		// Owner missed every tier: re-ask with the problem attached.
		status, body, err = c.exchange(ctx, p, fillRequest(p.addr, fp, wire.ContentTypeBinary, fill()))
		if err != nil {
			obs.ClusterPeerFillFailures.Inc()
			c.recordResult(p, false)
			obs.Log().Warn("peer fill failed", "peer", p.addr, "fp", fp, "err", err)
			return nil, false
		}
	}
	// Any HTTP response proves the peer alive; only the exchange's
	// success feeds the breaker, 5xx excepted (a peer answering 500s
	// is as useless as a dead one).
	c.recordResult(p, status < 500)
	if status != http.StatusOK {
		obs.ClusterPeerFillFailures.Inc()
		obs.Log().Warn("peer fill rejected", "peer", p.addr, "fp", fp, "status", status)
		return nil, false
	}
	obs.ClusterPeerFills.Inc()
	return body, true
}

// exchange runs one pooled round trip against p.  A stale pooled
// connection (closed by a peer restart) gets one retry on a fresh
// dial; a freshly dialed failure is final.
func (c *Cluster) exchange(ctx context.Context, p *peer, raw []byte) (int, []byte, error) {
	deadline := time.Now().Add(c.cfg.FillTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	pooled := true
	pc := p.getConn()
	if pc == nil {
		pooled = false
		var err error
		if pc, err = dialPeer(p.addr, time.Until(deadline)); err != nil {
			return 0, nil, err
		}
	}
	status, body, err := pc.roundTrip(ctx, deadline, raw)
	if err != nil {
		pc.close()
		if !pooled || ctx.Err() != nil {
			return 0, nil, err
		}
		if pc, err = dialPeer(p.addr, time.Until(deadline)); err != nil {
			return 0, nil, err
		}
		if status, body, err = pc.roundTrip(ctx, deadline, raw); err != nil {
			pc.close()
			return 0, nil, err
		}
	}
	p.putConn(pc)
	return status, body, nil
}

// recordResult feeds one exchange outcome into p's breaker, flipping
// ring membership when the state changes.
func (c *Cluster) recordResult(p *peer, ok bool) {
	p.mu.Lock()
	var flip, live bool
	if ok {
		p.failures = 0
		if p.open {
			p.open = false
			flip, live = true, true
		}
	} else {
		p.failures++
		if p.failures >= failureThreshold && !p.open {
			p.open = true
			flip, live = true, false
		}
	}
	p.mu.Unlock()
	if !flip {
		return
	}
	c.mu.Lock()
	c.ring.SetLive(p.addr, live)
	nlive, total := c.ring.Live()
	c.mu.Unlock()
	obs.ClusterRingLive.Set(int64(nlive))
	obs.ClusterBreakerOpen.Set(int64(total - nlive))
	if live {
		obs.Log().Info("peer breaker closed; back in the ring", "peer", p.addr)
	} else {
		obs.Log().Warn("peer breaker open; out of the ring", "peer", p.addr,
			"consecutive_failures", failureThreshold)
	}
}

// probeLoop health-checks every peer each interval.  Probes share the
// breaker with fills: consecutive probe failures flip a quiet peer
// out of the ring before any request pays the discovery cost, and the
// first successful probe of a recovered peer flips it back in.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			for _, p := range c.peers {
				c.probe(p)
			}
		}
	}
}

func (c *Cluster) probe(p *peer) {
	status, _, err := c.exchange(context.Background(), p, probeRequest(p.addr))
	ok := err == nil && status == http.StatusOK
	if !ok {
		obs.ClusterProbeFailures.Inc()
	}
	c.recordResult(p, ok)
}
