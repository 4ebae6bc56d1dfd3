package run

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/wire"
)

// DefaultCacheBound is the plan-cache capacity of a new Session, in
// entries.  A full experiment suite — including the sensitivity
// study's perturbed replans — solves ~500 distinct (graph, config,
// variant) cells, so the default keeps all of them live for one
// benchtab invocation (the closing comparison pass is then pure cache
// hits) while still bounding memory for unbounded sweeps.
const DefaultCacheBound = 1024

// CacheStats is a snapshot of a Session's plan-cache counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// DedupHits counts misses that avoided a solve by riding another
	// caller's in-flight solve of the same problem (singleflight).
	DedupHits uint64
	// StoreHits counts in-memory misses served from the durable tier
	// (no solve ran); StoreMisses counts misses that consulted the
	// durable tier and still had to solve.  Both stay zero with no
	// store attached.
	StoreHits   uint64
	StoreMisses uint64
	// PeerFills counts misses served by fetching the owning peer's
	// plan over the cluster fill protocol (no local solve ran);
	// PeerFallbacks counts fills that failed and degraded to a local
	// solve.  Both stay zero with no cluster attached.
	PeerFills     uint64
	PeerFallbacks uint64
	// Size is the current entry count; Bound is the capacity
	// (0 means caching is disabled).
	Size  int
	Bound int
}

// Answer is a plan as the memory tier hands it out: the plan itself,
// and — when it came from a memory entry — the request-independent
// bytes of its binary /v1/plan response, encoded once when the plan
// entered the tier.  A hit is thus answered by appending the request's
// horizon between two cached byte runs, whatever the plan's size.
// Frame is unbuilt for a plan fresh from a miss (or with caching off);
// wire.AppendPlanResponse of wire.NewPlanResponse is the same bytes.
type Answer struct {
	Plan  *sched.Plan
	Frame wire.PlanResponseFrame
}

// cacheEntry is one memory-tier plan.  It is immutable once published,
// so lookups hand out the pointer and read it without the lock.
type cacheEntry struct {
	fp string
	Answer
	// rest is the plan's at-rest lean frame (wire.AppendLeanPlan): the
	// bytes the store holds for it and an owner ships to a filling
	// peer.  It is the producing tier's own payload for a store hit or
	// a peer fill, and encoded once for a local solve.
	rest []byte
}

// planCache is the tier chain's shared state: a mutex-guarded LRU of
// solved plans plus the attachments and counters of the two outer
// tiers.  Every tier — the LRU, the flight map, the durable store, the
// cluster — is keyed by the one plan fingerprint Session.plan computes
// (see PlanFingerprint).  Cached *Plan values are shared between
// callers and treated as immutable by every consumer in the module.
type planCache struct {
	mu    sync.Mutex
	bound int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	// n holds every tier's counters (Size and Bound are filled in by
	// stats); guarded by mu.
	n CacheStats

	// store is the optional durable second tier (see tiers.go).  Set
	// once via AttachStore before traffic, read lock-free afterwards.
	store BlobStore

	// peers is the optional cluster tier consulted after the store.
	// Atomic because a cluster attaches after the server has already
	// bound its listener — tests attach once the :0 port is known,
	// possibly with requests in flight.
	peers atomic.Pointer[PeerFiller]

	// flights holds the in-progress solves concurrent misses attach
	// to (see singleflight.go).  A separate mutex so waiters never
	// contend with the LRU's lookup/put fast path.
	flightMu sync.Mutex
	flights  map[string]*flightCall
}

func newPlanCache(bound int) *planCache {
	if bound < 0 {
		bound = 0
	}
	return &planCache{
		bound:   bound,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flightCall),
	}
}

// lookup is the memory tier's one read.  count selects hit/miss
// accounting: on for a caller's own first probe, off for the two
// lookups that are not a local miss story — a flight leader's
// double-check (a solve that completed between its miss and its flight
// registration has already populated the cache) and a peer's
// by-fingerprint probe.
func (c *planCache) lookup(fp string, count bool) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		if count {
			c.n.Hits++
			obs.PlanCacheHits.Inc()
		}
		return el.Value.(*cacheEntry), true
	}
	if count {
		c.n.Misses++
		obs.PlanCacheMisses.Inc()
	}
	return nil, false
}

// put inserts plan, solved for the architecture named arch, under fp,
// with rest its at-rest frame.
func (c *planCache) put(fp, arch string, plan *sched.Plan, rest []byte) {
	if c.bound == 0 {
		return
	}
	// Encoded outside the lock; a put that loses the race below wasted
	// one encode of identical bytes.
	frame := wire.NewPlanResponseFrame(wire.NewPlanResponse(plan, arch, 0))
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		// A concurrent solver beat us to it; keep the first entry so
		// every caller shares one plan pointer.
		c.ll.MoveToFront(el)
		return
	}
	c.items[fp] = c.ll.PushFront(&cacheEntry{fp: fp, Answer: Answer{Plan: plan, Frame: frame}, rest: rest})
	for c.ll.Len() > c.bound {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).fp)
		c.n.Evictions++
		obs.PlanCacheEvictions.Inc()
	}
	// The gauges track the most recently updated session's cache —
	// benchtab and paraconv run exactly one, so this is exact there.
	obs.PlanCacheEntries.Set(int64(c.ll.Len()))
	obs.PlanCacheCapacity.Set(int64(c.bound))
}

// count bumps one of c.n's counters under the lock.
func (c *planCache) count(n *uint64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.n
	st.Size, st.Bound = c.ll.Len(), c.bound
	return st
}
