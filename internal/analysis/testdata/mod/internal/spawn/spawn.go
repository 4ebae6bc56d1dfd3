// Package spawn exercises the goroleak pass: goroutines under
// internal/ must be able to observe a stop signal, and HTTP handlers
// must not spawn goroutines at all.
package spawn

import (
	"context"
	"net/http"
)

var hits int

// tick has no context and no channel; a goroutine running it can never
// be stopped.
func tick() {
	hits++
}

// Fire spawns the unstoppable tick; flagged.
func Fire() {
	go tick() // want goroleak
}

// FireInline spawns an unstoppable literal; flagged.
func FireInline() {
	go func() { // want goroleak
		hits++
	}()
}

// WaitDone parks on a done channel; the close side can always reach
// it.  Allowed.
func WaitDone(done chan struct{}) {
	go func() {
		<-done
		hits++
	}()
}

// worker drains a jobs channel and terminates when it is closed.
func worker(jobs chan int) {
	for range jobs {
		hits++
	}
}

// StartWorker passes the channel through the call; allowed.
func StartWorker(jobs chan int) {
	go worker(jobs)
}

// runCtx watches its context.
func runCtx(ctx context.Context) {
	<-ctx.Done()
}

// StartCtx passes a context through the call; allowed.
func StartCtx(ctx context.Context) {
	go runCtx(ctx)
}

// Srv owns a work channel its loop drains.
type Srv struct {
	ch chan int
}

// loop stops when ch is closed.
func (s *Srv) loop() {
	for range s.ch {
		hits++
	}
}

// Start spawns a same-package method whose body observes the channel;
// allowed.
func (s *Srv) Start() {
	go s.loop()
}

// Handle spawns per-request work directly from a handler; flagged even
// though the goroutine is stoppable — request-rate concurrency stays
// on the request's own goroutine.
func Handle(w http.ResponseWriter, r *http.Request, done chan struct{}) {
	_ = done
}

// HandleWrapped is handed the request next to further arguments — the
// shape of the serving stack's handlers behind a route wrapper — and
// spawns; flagged.
func HandleWrapped(w http.ResponseWriter, r *http.Request, op string) {
	done := make(chan struct{})
	go func() { // want goroleak
		<-done
	}()
	close(done)
	_ = op
}

// HandleExact is handler-shaped and spawns; flagged.
func HandleExact(w http.ResponseWriter, r *http.Request) {
	done := make(chan struct{})
	go func() { // want goroleak
		<-done
	}()
	close(done)
	w.WriteHeader(http.StatusAccepted)
}
