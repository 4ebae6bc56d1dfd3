package run

import (
	"context"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/wire"
)

// BlobStore is the durable tier behind the in-memory plan cache — in
// production a *store.Store over the daemon's -data-dir.  Get reports
// a miss (never an error: corruption is the store's problem to
// quarantine); Put is best-effort write-through, and may return before
// the write is durable as long as a Get after it hits.  The key is the
// plan fingerprint: the same content hash addresses plans in the
// cluster's /v1/plans/{fp} protocol, so a restarted owner serves peer
// lookups from its store files verbatim.
type BlobStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// AttachStore installs st as the second cache tier behind this
// session's plan cache: consulted inside the singleflight leader on an
// in-memory miss, written through after every successful solve.
// Sessions derived with WithContext share the attachment.  A nil st
// detaches.  Attach before serving traffic — the field is read without
// synchronization once requests flow.
func (s *Session) AttachStore(st BlobStore) {
	s.cache.store = st
}

// PeerFiller is the cluster tier behind the durable store: on a miss
// of both local tiers, a flight leader asks the fingerprint's owning
// node for its plan before solving.  internal/cluster implements it;
// run depends only on this interface so the cache layer stays free of
// networking.
type PeerFiller interface {
	// Owns reports whether this node is the fingerprint's owner — in
	// which case the local solve IS the cluster-wide solve and no fill
	// is attempted.
	Owns(fp string) bool
	// Fill fetches the encoded plan for fp from its owner.  fill
	// builds the wire peer-fill frame carrying the full problem so
	// the owner can solve on the requester's behalf; it is invoked
	// only when the owner's tiers miss (the warm path ships nothing
	// but the fingerprint), and may be nil for lookup-only probes.
	// The payload is a lean or stored-plan frame — callers holding the
	// problem graph decode it with wire.DecodeFillPlan.
	// ok=false means no peer could serve it; the caller falls back to
	// a local solve.
	Fill(ctx context.Context, fp string, fill func() []byte) (payload []byte, ok bool)
}

// AttachPeers installs f as the cluster tier behind this session's
// plan cache: consulted inside the singleflight leader after the
// durable store, before the solver.  Sessions derived with
// WithContext share the attachment.  Unlike AttachStore this is
// attach-any-time: the daemon's cluster comes up after the listener
// binds (tests attach once :0 resolves), so the pointer is atomic.
// A nil f detaches.
func (s *Session) AttachPeers(f PeerFiller) {
	if f == nil {
		s.cache.peers.Store(nil)
		return
	}
	s.cache.peers.Store(&f)
}

// admit is the one door every plan that did not come from a local
// solve walks through, whichever outer tier produced its frame: decode
// (lean frames against g, the problem graph in hand), then re-validate
// — a CRC catches disk rot and a peer is trusted to be a peer, but a
// plan written by a buggy build is caught by the same structural
// checks a fresh solve satisfies by construction.  Any failure is a
// logged miss: the solver is always a correct fallback.
func admit(tier, fp string, frame []byte, g *dag.Graph) (*sched.Plan, bool) {
	p, err := wire.DecodeFillPlan(frame, g, dag.Limits{})
	if err == nil {
		err = p.Iter.Validate()
	}
	if err != nil {
		obs.Log().Warn("plan frame rejected, falling through to solve", "tier", tier, "fp", fp, "err", err)
		return nil, false
	}
	return p, true
}

// promote publishes a plan to the tiers in front of the one that
// produced it: always the memory LRU, plus the durable store when the
// plan came from beyond it.  rest is the frame the producing tier
// handed over — verbatim, never re-encoded — or nil after a local
// solve, which encodes it here, once.  Store errors are logged, never
// propagated: a full disk must not fail the solve that just succeeded.
// The production store only accepts the write here and commits it
// behind the response (see internal/store).
func (c *planCache) promote(fp, arch string, p *sched.Plan, rest []byte, toStore bool) {
	if rest == nil {
		rest = wire.AppendAtRest(nil, p)
	}
	c.put(fp, arch, p, rest)
	if !toStore || c.store == nil {
		return
	}
	if err := c.store.Put(fp, rest); err != nil {
		obs.Log().Warn("store write-through failed", "fp", fp, "err", err)
	}
}

// storeTier runs the durable-tier consultation for a flight leader.
func (s *Session) storeTier(fp, arch string, g *dag.Graph) (*sched.Plan, bool) {
	c := s.cache
	if c.store == nil {
		return nil, false
	}
	storeSpan := span.Start(s.ctx, "run.store")
	defer storeSpan.End()
	frame, ok := c.store.Get(fp)
	var p *sched.Plan
	if ok {
		p, ok = admit("store", fp, frame, g)
	}
	if !ok {
		c.count(&c.n.StoreMisses)
		return nil, false
	}
	c.count(&c.n.StoreHits)
	c.promote(fp, arch, p, frame, false)
	return p, true
}

// peerTier runs the cluster-tier consultation for a flight leader:
// unless this node owns the fingerprint (or the handle opted out), ask
// the owner for the plan, shipping the full problem so the owner can
// solve it.  Returns (plan, nil) on a successful fill, (nil, ctx
// error) when the requester's context died mid-fill — the leader must
// die with it so the cache stays unpoisoned and a follower retries
// leadership — and (nil, nil) to degrade to a local solve.
func (s *Session) peerTier(fp, variant string, g *dag.Graph, cfg pim.Config) (*sched.Plan, error) {
	c := s.cache
	pf := c.peers.Load()
	if pf == nil || s.noPeer || (*pf).Owns(fp) {
		return nil, nil
	}
	fillSpan := span.Start(s.ctx, "run.peerfill")
	frame, ok := (*pf).Fill(s.ctx, fp, func() []byte {
		return wire.AppendPeerFill(nil, variant, cfg, g)
	})
	fillSpan.End()
	var p *sched.Plan
	if ok {
		p, ok = admit("peer", fp, frame, g)
	} else if err := s.ctx.Err(); err != nil {
		// Distinguish "peer unavailable" from "my own caller is gone":
		// the former degrades to a local solve, the latter must surface
		// as the context's error so doFlight's follower-retry semantics
		// see a cancelled leader, not a failed solve.
		return nil, err
	}
	if !ok {
		c.count(&c.n.PeerFallbacks)
		obs.ClusterFallbackSolves.Inc()
		return nil, nil
	}
	c.count(&c.n.PeerFills)
	c.promote(fp, cfg.Name, p, frame, true)
	return p, nil
}

// EncodedPlanByFingerprint serves the owner's side of the fill
// protocol: the plan for fp from this session's local tiers, as the
// at-rest frame (wire.AppendAtRest) the memory entry or the store
// already holds — shared, not copied, since serving fills is an
// owner's hot path under a thundering fleet.  ok=false means no local
// tier can answer; the server decides whether to solve on the
// requester's behalf.
func (s *Session) EncodedPlanByFingerprint(fp string) ([]byte, bool) {
	if e, ok := s.cache.lookup(fp, false); ok {
		return e.rest, true
	}
	if s.cache.store == nil {
		return nil, false
	}
	return s.cache.store.Get(fp)
}
