// Package dag implements the weighted directed-acyclic task-graph model
// used throughout Para-CONV.
//
// A CNN application is modelled (paper §2.2) as a weighted DAG
// G = (V, E, P, R): each vertex is a convolution or pooling operation
// V_i(s_i, c_i, d_i) with start time, execution time and deadline; each
// directed edge (V_i, V_j) carries the intermediate processing result
// (IPR) I_{i,j} produced by V_i and consumed by V_j.  The profit
// function P associates every IPR with two weights — the profit of
// placing it in on-chip PE cache versus in stacked eDRAM — and R is the
// retiming function manipulated by package retime.
//
// The package is a pure data-structure substrate: construction,
// validation, traversal, classic DAG algorithms (topological order,
// longest path, level decomposition) and serialization.  It knows
// nothing about scheduling policy.
package dag

import (
	"fmt"
	"sync"
)

// OpKind classifies the operation a vertex performs.  The paper
// partitions CNN applications "based on the functionality (i.e.,
// convolution, or pooling)"; fully-connected layers are treated as a
// special kind of convolution (§2.2) but we keep the tag for reporting.
type OpKind uint8

const (
	// OpConv is a convolution operation (the dominant kind).
	OpConv OpKind = iota
	// OpPool is a pooling (max/average) operation.
	OpPool
	// OpFC is a fully-connected (inner product) operation.
	OpFC
	// OpInput marks a pseudo-source feeding input feature maps.
	OpInput
	// OpOutput marks a pseudo-sink collecting network outputs.
	OpOutput
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpConv:
		return "conv"
	case OpPool:
		return "pool"
	case OpFC:
		return "fc"
	case OpInput:
		return "input"
	case OpOutput:
		return "output"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// NodeID identifies a vertex within one Graph.  IDs are dense indexes
// assigned by AddNode in insertion order, so they double as slice
// offsets everywhere in the code base.
type NodeID int

// Node is one convolution/pooling operation V_i(s_i, c_i, d_i).  Only
// c_i belongs to the vertex; its start time s_i and deadline d_i come
// from a schedule (sched.Task).  Times are in abstract schedule "time
// units", the same unit the paper uses in its motivational example
// (Figure 3).
type Node struct {
	ID   NodeID
	Name string
	Kind OpKind

	// Exec is c_i, the execution time of the operation on one PE.
	Exec int

	// MACs optionally records the multiply-accumulate count of the
	// underlying CNN operation (set when the graph was derived from a
	// layer model, see package cnn); purely informational.
	MACs int64
}

// EdgeID identifies an edge (an IPR) within one Graph, dense in
// insertion order.
type EdgeID int

// Edge is one intermediate processing result I_{i,j}: the data
// transferred from operation From to operation To.
type Edge struct {
	ID   EdgeID
	From NodeID
	To   NodeID

	// Size is sp_m, the space the IPR occupies if allocated to on-chip
	// cache, in cache capacity units (the DP in internal/core budgets
	// cache by this).
	Size int

	// CacheTime and EDRAMTime are the transfer/handling time c_{i,j}
	// of the IPR when placed in on-chip PE cache versus in stacked
	// eDRAM.  Fetching from a DRAM vault costs 2x-10x the cache cost
	// (paper §2.2), so EDRAMTime >= CacheTime always holds for a valid
	// graph.
	CacheTime int
	EDRAMTime int

	// Bytes optionally records the real size of the feature-map slice
	// this edge models (set by package cnn); informational.
	Bytes int64
}

// Graph is the mutable weighted DAG.  The zero value is not usable;
// call New.
type Graph struct {
	name  string
	nodes []Node
	edges []Edge

	// out[v] and in[v] hold edge IDs ordered by insertion.
	out [][]EdgeID
	in  [][]EdgeID

	// validated marks a graph a decoder proved structurally valid
	// (see Revalidate).  Only the decoders set it, before any other
	// goroutine can see the graph; AddNode, AddEdge(s) and Grow clear
	// it, and Clone does not copy it.
	validated bool
}

// New returns an empty graph with the given name (used in reports and
// DOT output; may be empty).
func New(name string) *Graph {
	return &Graph{name: name}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// SetName renames the graph.
func (g *Graph) SetName(name string) { g.name = name }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Grow preallocates storage for at least nodes further vertices and
// edges further edges, so a caller that knows the final size up front
// (the text codec's counts header, the synthesizer) builds the graph
// without incremental append growth.  Negative arguments are ignored.
//
//paraconv:hotpath
func (g *Graph) Grow(nodes, edges int) {
	g.validated = false
	if nodes > 0 {
		if free := cap(g.nodes) - len(g.nodes); free < nodes {
			g.nodes = append(make([]Node, 0, len(g.nodes)+nodes), g.nodes...)
			g.out = append(make([][]EdgeID, 0, len(g.out)+nodes), g.out...)
			g.in = append(make([][]EdgeID, 0, len(g.in)+nodes), g.in...)
		}
	}
	if edges > 0 {
		if free := cap(g.edges) - len(g.edges); free < edges {
			g.edges = append(make([]Edge, 0, len(g.edges)+edges), g.edges...)
		}
	}
}

// AddNode appends a vertex and returns its ID.  The ID field of the
// argument is ignored and overwritten.
func (g *Graph) AddNode(n Node) NodeID {
	g.validated = false
	n.ID = NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return n.ID
}

// AddEdge appends an edge and returns its ID.  It panics if either
// endpoint is out of range; cycle creation is not checked here (use
// Validate or IsAcyclic after construction).
func (g *Graph) AddEdge(e Edge) EdgeID {
	if !g.hasNode(e.From) || !g.hasNode(e.To) {
		panic(fmt.Sprintf("dag: AddEdge %d->%d: node out of range (|V|=%d)", e.From, e.To, len(g.nodes)))
	}
	g.validated = false
	e.ID = EdgeID(len(g.edges))
	g.edges = append(g.edges, e)
	g.out[e.From] = append(g.out[e.From], e.ID)
	g.in[e.To] = append(g.in[e.To], e.ID)
	return e.ID
}

// vertexPool recycles per-vertex int32 scratch: link's degree counters
// and hasDuplicateEdges' last-seen stamps.
var vertexPool = sync.Pool{New: func() any { return new([]int32) }}

// vertexScratch returns pooled scratch of n zeroed int32s; the caller
// hands it back with releaseVertexScratch.
func vertexScratch(n int) *[]int32 {
	p := vertexPool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

func releaseVertexScratch(p *[]int32) {
	*p = (*p)[:0]
	vertexPool.Put(p)
}

// link builds the adjacency lists of every edge in g.edges in one
// pass, assigning edge IDs in slice order.  It is the bulk loaders'
// (the codecs, Replicate) one way in: they write g.edges directly,
// with every endpoint already range-checked, while no vertex has an
// adjacency list yet.  The lists are carved out of two exact-fit
// backing arrays sized from the degree counts; full-slice expressions
// cap each list at its own region, so a later AddEdge reallocates that
// vertex's list instead of clobbering a neighbour's.
//
//paraconv:hotpath
func (g *Graph) link() {
	n, m := len(g.nodes), len(g.edges)
	if m == 0 {
		return
	}
	degp := vertexScratch(2 * n)
	outDeg, inDeg := (*degp)[:n], (*degp)[n:]
	for i := range g.edges {
		e := &g.edges[i]
		e.ID = EdgeID(i)
		outDeg[e.From]++
		inDeg[e.To]++
	}
	backing := make([]EdgeID, 2*m)
	outB, inB := backing[:m], backing[m:]
	outOff, inOff := 0, 0
	for v := 0; v < n; v++ {
		od, ind := int(outDeg[v]), int(inDeg[v])
		g.out[v] = outB[outOff : outOff : outOff+od]
		outOff += od
		g.in[v] = inB[inOff : inOff : inOff+ind]
		inOff += ind
	}
	releaseVertexScratch(degp)
	for i := range g.edges {
		e := &g.edges[i]
		g.out[e.From] = append(g.out[e.From], e.ID)
		g.in[e.To] = append(g.in[e.To], e.ID)
	}
}

func (g *Graph) hasNode(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

func (g *Graph) hasEdge(id EdgeID) bool { return id >= 0 && int(id) < len(g.edges) }

// Node returns a pointer to the vertex with the given ID, panicking on
// an invalid ID.  The pointer stays valid until the next AddNode.
func (g *Graph) Node(id NodeID) *Node {
	if !g.hasNode(id) {
		panic(fmt.Sprintf("dag: Node(%d): out of range (|V|=%d)", id, len(g.nodes)))
	}
	return &g.nodes[id]
}

// Edge returns a pointer to the edge with the given ID, panicking on an
// invalid ID.  The pointer stays valid until the next AddEdge.  Writing
// its weights is allowed while the graph is being built; writing From
// or To is not supported: the adjacency lists (Out, In) would not
// follow.
func (g *Graph) Edge(id EdgeID) *Edge {
	if !g.hasEdge(id) {
		panic(fmt.Sprintf("dag: Edge(%d): out of range (|E|=%d)", id, len(g.edges)))
	}
	return &g.edges[id]
}

// Nodes returns the vertex slice in ID order.  Callers must not append
// to it; element mutation is allowed while the graph is being built.
// Once a graph has been planned it is read-only: a plan may alias it
// as its kernel (one concurrent iteration, a given schedule, a lean
// frame decoded against it), so a later write would change the plan.
func (g *Graph) Nodes() []Node { return g.nodes }

// Edges returns the edge slice in ID order, with the same aliasing
// contract as Nodes.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the IDs of edges leaving v, in insertion order.
func (g *Graph) Out(v NodeID) []EdgeID { return g.out[v] }

// In returns the IDs of edges entering v, in insertion order.
func (g *Graph) In(v NodeID) []EdgeID { return g.in[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// Sources returns all vertices with no incoming edges, ascending.
func (g *Graph) Sources() []NodeID {
	var s []NodeID
	for i := range g.nodes {
		if len(g.in[i]) == 0 {
			s = append(s, NodeID(i))
		}
	}
	return s
}

// Sinks returns all vertices with no outgoing edges, ascending.
func (g *Graph) Sinks() []NodeID {
	var s []NodeID
	for i := range g.nodes {
		if len(g.out[i]) == 0 {
			s = append(s, NodeID(i))
		}
	}
	return s
}

// Clone returns a deep copy of the graph.  The copy's adjacency lists
// are carved out of two shared exact-fit backing arrays (full-slice
// expressions cap each list at its own region, so a later AddEdge on
// the clone reallocates that vertex's list instead of clobbering a
// neighbour's), keeping the clone at a constant number of allocations
// regardless of edge count.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		name:  g.name,
		nodes: append([]Node(nil), g.nodes...),
		edges: append([]Edge(nil), g.edges...),
		out:   make([][]EdgeID, len(g.out)),
		in:    make([][]EdgeID, len(g.in)),
	}
	backing := make([]EdgeID, 2*len(g.edges))
	outB, inB := backing[:len(g.edges)], backing[len(g.edges):]
	outOff, inOff := 0, 0
	for i := range g.out {
		d := len(g.out[i])
		c.out[i] = outB[outOff : outOff+d : outOff+d]
		copy(c.out[i], g.out[i])
		outOff += d
	}
	for i := range g.in {
		d := len(g.in[i])
		c.in[i] = inB[inOff : inOff+d : inOff+d]
		copy(c.in[i], g.in[i])
		inOff += d
	}
	return c
}

// TotalExec returns the sum of execution times over all vertices
// (the Σ c_i used by rate-optimality bounds).
func (g *Graph) TotalExec() int {
	sum := 0
	for i := range g.nodes {
		sum += g.nodes[i].Exec
	}
	return sum
}

// MaxExec returns max c_i over all vertices, or 0 for an empty graph.
func (g *Graph) MaxExec() int {
	m := 0
	for i := range g.nodes {
		if g.nodes[i].Exec > m {
			m = g.nodes[i].Exec
		}
	}
	return m
}

// Stats summarizes a graph for reports.
type Stats struct {
	Name      string
	Nodes     int
	Edges     int
	Sources   int
	Sinks     int
	Depth     int // number of levels in the level decomposition
	TotalExec int
	MaxExec   int
	CritPath  int // execution-weighted critical path length
}

// ComputeStats computes summary statistics.  It returns ErrCyclic
// (wrapped) if the graph is cyclic (Depth and CritPath are undefined
// then); call Validate first on untrusted input.
func (g *Graph) ComputeStats() (Stats, error) {
	levels, err := g.Levels()
	if err != nil {
		return Stats{}, err
	}
	cp, _, err := g.CriticalPath()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Name:      g.name,
		Nodes:     g.NumNodes(),
		Edges:     g.NumEdges(),
		Sources:   len(g.Sources()),
		Sinks:     len(g.Sinks()),
		Depth:     len(levels),
		TotalExec: g.TotalExec(),
		MaxExec:   g.MaxExec(),
		CritPath:  cp,
	}, nil
}

// String implements fmt.Stringer with a short one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: |V|=%d |E|=%d depth=%d Σc=%d critpath=%d",
		s.Name, s.Nodes, s.Edges, s.Depth, s.TotalExec, s.CritPath)
}
