package dag

import (
	"errors"
	"fmt"
	"sync"
)

// ErrCyclic is returned (wrapped) by algorithms that require a DAG when
// the graph contains a directed cycle.
var ErrCyclic = errors.New("dag: graph contains a cycle")

// topoScratch is the pooled working state of a Kahn pass: the
// in-degree counters, TopoSortInto's ready heap, and IsAcyclic's
// unordered ready stack.
type topoScratch struct {
	indeg []int
	heap  idHeap
	stack []NodeID
}

var topoPool = sync.Pool{New: func() any { return new(topoScratch) }}

// inDegrees fills the scratch's counters with every vertex's in-degree
// and returns them.
func (sc *topoScratch) inDegrees(g *Graph) []int {
	n := len(g.nodes)
	if cap(sc.indeg) < n {
		sc.indeg = make([]int, n)
	}
	indeg := sc.indeg[:n]
	for v := range indeg {
		indeg[v] = len(g.in[v])
	}
	return indeg
}

// TopoSort returns one topological order of the vertices (Kahn's
// algorithm, smallest-ID-first among ready vertices so the order is
// deterministic).  It returns ErrCyclic if the graph is not acyclic.
func (g *Graph) TopoSort() ([]NodeID, error) {
	order, err := g.TopoSortInto(nil)
	if err != nil {
		return nil, err
	}
	return order, nil
}

// TopoSortInto is TopoSort appending into order[:0], so a caller that
// plans repeatedly can reuse one buffer across solves.  On error the
// returned slice is the (truncated) buffer, valid only for capacity
// reuse.  The sort's internal in-degree and heap state is pooled.
//
//paraconv:hotpath
func (g *Graph) TopoSortInto(order []NodeID) ([]NodeID, error) {
	n := g.NumNodes()
	sc := topoPool.Get().(*topoScratch)
	indeg := sc.inDegrees(g)
	// Min-heap behaviour via a simple sorted ready list is O(V^2) in
	// the worst case; the graphs here are ≤ a few thousand vertices,
	// and determinism matters more than asymptotics.  Use an index
	// heap for O(E log V) anyway, hand-rolled to avoid interface
	// allocation churn.
	if cap(sc.heap.a) < n {
		sc.heap.a = make([]NodeID, 0, n)
	}
	heap := &sc.heap
	heap.a = heap.a[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			heap.push(NodeID(v))
		}
	}
	if cap(order) < n {
		order = make([]NodeID, 0, n)
	}
	order = order[:0]
	for heap.len() > 0 {
		v := heap.pop()
		order = append(order, v)
		for _, eid := range g.out[v] {
			w := g.edges[eid].To
			indeg[w]--
			if indeg[w] == 0 {
				heap.push(w)
			}
		}
	}
	topoPool.Put(sc)
	if len(order) != n {
		return order, fmt.Errorf("topological sort visited %d of %d vertices: %w", len(order), n, ErrCyclic)
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycle.  It runs
// Kahn's algorithm over a stack instead of TopoSortInto's heap: the
// answer needs only how many vertices the pass retires, not the order,
// so it is O(V+E) with no ordering cost.
func (g *Graph) IsAcyclic() bool {
	n := g.NumNodes()
	sc := topoPool.Get().(*topoScratch)
	indeg := sc.inDegrees(g)
	if cap(sc.stack) < n {
		sc.stack = make([]NodeID, 0, n)
	}
	stack := sc.stack[:0]
	for v := range indeg {
		if indeg[v] == 0 {
			stack = append(stack, NodeID(v))
		}
	}
	retired := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		retired++
		for _, eid := range g.out[v] {
			w := g.edges[eid].To
			indeg[w]--
			if indeg[w] == 0 {
				stack = append(stack, w)
			}
		}
	}
	sc.stack = stack[:0]
	topoPool.Put(sc)
	return retired == n
}

// Levels returns the ASAP level decomposition: level 0 holds the
// sources; level k holds vertices all of whose predecessors sit in
// levels < k with at least one in level k-1.  It returns ErrCyclic
// (wrapped) if the graph is not acyclic.
func (g *Graph) Levels() ([][]NodeID, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	lvl := make([]int, g.NumNodes())
	maxLvl := -1
	for _, v := range order {
		l := 0
		for _, eid := range g.in[v] {
			p := g.edges[eid].From
			if lvl[p]+1 > l {
				l = lvl[p] + 1
			}
		}
		lvl[v] = l
		if l > maxLvl {
			maxLvl = l
		}
	}
	levels := make([][]NodeID, maxLvl+1)
	for _, v := range order {
		levels[lvl[v]] = append(levels[lvl[v]], v)
	}
	return levels, nil
}

// CriticalPath returns the execution-weighted length of the longest
// path (sum of Exec over its vertices, edge weights excluded) and one
// such path.  For an empty graph it returns (0, nil, nil).  It returns
// ErrCyclic (wrapped) if the graph is not acyclic.
func (g *Graph) CriticalPath() (int, []NodeID, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return 0, nil, nil
	}
	dist := make([]int, n) // longest path ending at v, inclusive of v
	pred := make([]NodeID, n)
	for i := range pred {
		pred[i] = -1
	}
	best, bestV := 0, NodeID(-1)
	for _, v := range order {
		d := 0
		for _, eid := range g.in[v] {
			e := &g.edges[eid]
			if dist[e.From] > d {
				d = dist[e.From]
				pred[v] = e.From
			}
		}
		dist[v] = d + g.nodes[v].Exec
		if dist[v] > best {
			best, bestV = dist[v], v
		}
	}
	var path []NodeID
	for v := bestV; v != -1; v = pred[v] {
		path = append(path, v)
	}
	// reverse in place
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return best, path, nil
}

// idHeap is a minimal binary min-heap of NodeIDs; hand-rolled rather
// than container/heap to keep the hot topological-sort path free of
// interface boxing.
type idHeap struct{ a []NodeID }

func (h *idHeap) len() int { return len(h.a) }

func (h *idHeap) push(v NodeID) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *idHeap) pop() NodeID {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
