package run

import (
	"context"
	"errors"

	"repro/internal/obs"
	"repro/internal/sched"
)

// errLeaderPanicked is a flight's result when its leader's solve
// panicked: like a cancelled leader, it sends the waiters back to
// re-enter the flight under their own contexts.
var errLeaderPanicked = errors.New("run: the flight leader's solve panicked")

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
// never theirs.  A leader whose solve panics releases its flight the
// same way on its way out, and the panic goes on up its own stack.
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
				if errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) ||
					errors.Is(call.err, errLeaderPanicked) {
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
		call := &flightCall{done: make(chan struct{}), err: errLeaderPanicked}
		c.flights[fp] = call
		c.flightMu.Unlock()
		c.lead(fp, call, solve)
		return call.plan, call.err
	}
}

// lead runs the leader's solve and releases the flight however solve
// ends: a panic leaves call.err at errLeaderPanicked, so no waiter
// waits out its deadline on a flight nobody will finish.
func (c *planCache) lead(fp string, call *flightCall, solve func() (*sched.Plan, error)) {
	defer func() {
		c.flightMu.Lock()
		delete(c.flights, fp)
		c.flightMu.Unlock()
		close(call.done)
	}()
	call.plan, call.err = solve()
}
