package run

import (
	"context"
	"errors"

	"repro/internal/obs"
	"repro/internal/sched"
)

// flightCall is one in-progress plan solve that concurrent cache
// misses for the same fingerprint attach to.
type flightCall struct {
	// done is closed once plan and err are final.
	done chan struct{}
	plan *sched.Plan
	err  error
	// waiters counts the callers riding this solve (excluding the
	// leader).  Guarded by the owning cache's flightMu.
	waiters int
}

// doFlight collapses concurrent solves of one planning problem: the
// first caller for a fingerprint (the leader) runs solve; every caller that
// arrives before the leader finishes waits for the shared result
// instead of redoing the DP.  This is the dedup layer the concurrent
// planning service leans on — without it, a burst of identical
// requests would each pay a full solve because they all miss the
// cache before the first solve completes.
//
// Context handling follows each caller's own scope: a waiter whose
// ctx expires stops waiting and returns its ctx error (the leader's
// solve keeps running for the others), and when the *leader* is
// cancelled, surviving waiters re-enter the flight under their own
// still-live contexts rather than inheriting a cancellation that was
// never theirs.
func (c *planCache) doFlight(ctx context.Context, fp string, solve func() (*sched.Plan, error)) (*sched.Plan, error) {
	for {
		c.flightMu.Lock()
		if call, ok := c.flights[fp]; ok {
			call.waiters++
			c.flightMu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if call.err != nil {
				if errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) {
					// The leader's scope died, not the problem.  If our
					// own scope is still live, try again (attaching to
					// a newer flight or leading one ourselves).
					if ctx.Err() == nil {
						continue
					}
					return nil, ctx.Err()
				}
				return nil, call.err
			}
			c.count(&c.n.DedupHits)
			obs.PlanCacheDedupHits.Inc()
			return call.plan, nil
		}
		call := &flightCall{done: make(chan struct{})}
		c.flights[fp] = call
		c.flightMu.Unlock()

		call.plan, call.err = solve()

		c.flightMu.Lock()
		delete(c.flights, fp)
		c.flightMu.Unlock()
		close(call.done)
		return call.plan, call.err
	}
}
