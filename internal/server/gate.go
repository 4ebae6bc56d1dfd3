package server

import (
	"context"
	"errors"

	"repro/internal/obs"
)

// errShed is enter's verdict at the admission bound; the HTTP layer
// turns it into 429.
var errShed = errors.New("admission queue full")

// gate is the service's admission control.  A solve runs on the
// goroutine of the connection that asked for it, so the gate is two
// counting semaphores rather than a queue of closures: admitted bounds
// the requests inside the gate at workers+depth and never blocks (at
// the bound a request is shed, not parked); running bounds the
// requests solving at workers, and an admitted request waits there at
// most until its own deadline.  Go parks blocked senders in arrival
// order, so that wait is FIFO.
type gate struct {
	admitted chan struct{}
	running  chan struct{}
}

func newGate(workers, depth int) *gate {
	obs.ServerQueueCapacity.Set(int64(depth))
	return &gate{
		admitted: make(chan struct{}, workers+depth),
		running:  make(chan struct{}, workers),
	}
}

// enter passes the caller through both stages.  A nil return means the
// caller holds a run slot and must call leave; errShed or ctx's error
// means it holds nothing.
func (g *gate) enter(ctx context.Context) error {
	select {
	case g.admitted <- struct{}{}:
	default:
		return errShed
	}
	select {
	case g.running <- struct{}{}:
		// Free slot: skip ctx.Done, which allocates the ctx's channel.
	default:
		obs.ServerQueueDepth.Add(1)
		select {
		case g.running <- struct{}{}:
			obs.ServerQueueDepth.Add(-1)
		case <-ctx.Done():
			obs.ServerQueueDepth.Add(-1)
			<-g.admitted
			return ctx.Err()
		}
	}
	obs.ServerInflight.Add(1)
	return nil
}

// leave returns the run slot and the admission token.  Callers defer
// it, so a panicking solve still frees its slot.
func (g *gate) leave() {
	obs.ServerInflight.Add(-1)
	<-g.running
	<-g.admitted
}
