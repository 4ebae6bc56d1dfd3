// Package locks exercises the locksafe pass (mixed atomic/plain field access);
// the "// copylocks" lines are go vet's to flag (TestCopyLocksCoveredByGoVet).
package locks

import (
	"sync"
	"sync/atomic"
)

// Counter guards its count with an embedded-by-value mutex; copying a
// Counter forks the lock from the state it protects.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Inc uses a pointer receiver; allowed.
func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Read copies the receiver, lock included.
func (c Counter) Read() int { // copylocks
	return c.n
}

// Snapshot copies a live Counter into a local.
func Snapshot(c *Counter) int {
	local := *c // copylocks
	return local.n
}

// observe takes its Counter by pointer; calls passing &c are allowed.
func observe(c *Counter) int {
	return c.n
}

// byValue takes a Counter by value, so every call site copies.
func byValue(c Counter) int {
	return c.n
}

// Uses shows the two call shapes.
func Uses(c *Counter) int {
	total := observe(c)
	total += byValue(*c) // copylocks
	return total
}

// Drain iterates a slice of Counters; the value binding copies each
// element, the index form does not.
func Drain(cs []Counter) int {
	total := 0
	for _, c := range cs { // copylocks
		total += c.n
	}
	for i := range cs {
		total += cs[i].n
	}
	return total
}

// Stat mixes atomic and plain access to the same field.
type Stat struct {
	hits int64
}

// Bump goes through sync/atomic; this is the sanctioned access.
func (s *Stat) Bump() {
	atomic.AddInt64(&s.hits, 1)
}

// Peek reads the same field without atomics; flagged — it races with
// every Bump.
func (s *Stat) Peek() int64 {
	return s.hits // want locksafe
}

// PeekAtomic loads atomically; allowed.
func (s *Stat) PeekAtomic() int64 {
	return atomic.LoadInt64(&s.hits)
}
