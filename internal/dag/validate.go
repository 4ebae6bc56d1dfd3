package dag

import (
	"errors"
	"fmt"
)

// ValidationError describes one defect found by Validate.
type ValidationError struct {
	// Kind is a short machine-checkable category, e.g. "cycle",
	// "exec", "transfer", "size", "self-loop", "duplicate-edge".
	Kind string
	// Detail is the human-readable description.
	Detail string
}

// Error implements error.
func (e *ValidationError) Error() string { return "dag: invalid graph: " + e.Kind + ": " + e.Detail }

// hasDuplicateEdges reports whether any (From,To) pair appears on more
// than one edge, in one O(V+E) pass with no sort and no map: walking
// vertex v's out-list stamps each successor with v+1 in pooled
// per-vertex scratch, so a successor already carrying v's stamp is
// reached by a second edge.  NodeIDs fit 32 bits by construction: they
// are dense slice indexes, and 2^31 Node structs would not fit in
// memory.
func (g *Graph) hasDuplicateEdges() bool {
	if len(g.edges) < 2 {
		return false
	}
	sp := vertexScratch(len(g.nodes))
	stamp := *sp
	dup := false
scan:
	for v := range g.out {
		mark := int32(v + 1)
		for _, eid := range g.out[v] {
			w := g.edges[eid].To
			if stamp[w] == mark {
				dup = true
				break scan
			}
			stamp[w] = mark
		}
	}
	releaseVertexScratch(sp)
	return dup
}

// Validate checks the structural and weight invariants the rest of the
// system relies on:
//
//   - the graph is acyclic;
//   - no self-loops and no duplicate (From,To) pairs;
//   - every vertex has Exec >= 1 (a convolution takes time);
//   - every edge has Size >= 1, CacheTime >= 0 and
//     EDRAMTime >= CacheTime (vault fetch is never cheaper than
//     on-chip cache, paper §2.2).
//
// All defects are reported, joined with errors.Join; nil means valid.
// The clean-graph path is linear and allocates nothing: the
// duplicate-edge check stamps pooled per-vertex scratch, acyclicity is
// an unordered Kahn pass (IsAcyclic), and the map-based scan only runs
// (to attribute each duplicate to its edge ID) once a duplicate is
// known to exist.
func (g *Graph) Validate() error {
	if g.hasDuplicateEdges() {
		return g.validateSlow()
	}
	var errs []error
	if !g.IsAcyclic() {
		errs = append(errs, &ValidationError{Kind: "cycle", Detail: "graph must be a DAG"})
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.From == e.To {
			errs = append(errs, &ValidationError{
				Kind:   "self-loop",
				Detail: fmt.Sprintf("edge %d is a self-loop on vertex %d", e.ID, e.From),
			})
		}
		errs = appendEdgeWeightErrors(errs, e)
	}
	errs = appendExecErrors(errs, g)
	return errors.Join(errs...)
}

// Revalidate is Validate for a caller that may hold a graph a decoder
// has already proved: on a graph marked at decode (DecodeBinary, the
// text decoder) and not grown since, it skips the structural checks —
// endpoints, self-loops, duplicate edges, acyclicity — and runs only
// the per-element weight and exec checks, which Node and Edge's
// pointers can still break.  An unmarked graph gets the full Validate.
// Validate itself never sets the mark: planners revalidate shared
// graphs from many goroutines, and a write there would race.
func (g *Graph) Revalidate() error {
	if !g.validated {
		return g.Validate()
	}
	var errs []error
	for i := range g.edges {
		errs = appendEdgeWeightErrors(errs, &g.edges[i])
	}
	return errors.Join(appendExecErrors(errs, g)...)
}

// validateSlow is the original map-based validation, kept for the
// defective case so duplicate-edge errors interleave with the other
// per-edge defects in edge-ID order, exactly as before.
func (g *Graph) validateSlow() error {
	var errs []error
	if !g.IsAcyclic() {
		errs = append(errs, &ValidationError{Kind: "cycle", Detail: "graph must be a DAG"})
	}
	seen := make(map[[2]NodeID]bool, len(g.edges))
	for i := range g.edges {
		e := &g.edges[i]
		if e.From == e.To {
			errs = append(errs, &ValidationError{
				Kind:   "self-loop",
				Detail: fmt.Sprintf("edge %d is a self-loop on vertex %d", e.ID, e.From),
			})
		}
		key := [2]NodeID{e.From, e.To}
		if seen[key] {
			errs = append(errs, &ValidationError{
				Kind:   "duplicate-edge",
				Detail: fmt.Sprintf("duplicate edge %d->%d (edge id %d)", e.From, e.To, e.ID),
			})
		}
		seen[key] = true
		errs = appendEdgeWeightErrors(errs, e)
	}
	errs = appendExecErrors(errs, g)
	return errors.Join(errs...)
}

func appendEdgeWeightErrors(errs []error, e *Edge) []error {
	if e.Size < 1 {
		errs = append(errs, &ValidationError{
			Kind:   "size",
			Detail: fmt.Sprintf("edge %d (%d->%d) has Size %d; want >= 1", e.ID, e.From, e.To, e.Size),
		})
	}
	if e.CacheTime < 0 {
		errs = append(errs, &ValidationError{
			Kind:   "transfer",
			Detail: fmt.Sprintf("edge %d (%d->%d) has negative CacheTime %d", e.ID, e.From, e.To, e.CacheTime),
		})
	}
	if e.EDRAMTime < e.CacheTime {
		errs = append(errs, &ValidationError{
			Kind: "transfer",
			Detail: fmt.Sprintf("edge %d (%d->%d) has EDRAMTime %d < CacheTime %d; vault fetch cannot be cheaper than cache",
				e.ID, e.From, e.To, e.EDRAMTime, e.CacheTime),
		})
	}
	return errs
}

func appendExecErrors(errs []error, g *Graph) []error {
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.Kind == OpInput || n.Kind == OpOutput {
			continue // pseudo vertices may be zero-cost
		}
		if n.Exec < 1 {
			errs = append(errs, &ValidationError{
				Kind:   "exec",
				Detail: fmt.Sprintf("vertex %d (%q) has Exec %d; want >= 1", n.ID, n.Name, n.Exec),
			})
		}
	}
	return errs
}
