// Package opt provides graph-level optimizations applied before
// scheduling.  The first is linear-chain clustering — the classic task
// clustering transform: when an operation's output feeds exactly one
// consumer and that consumer has no other producer, the pair can run
// back-to-back on one PE with the intermediate result kept in the
// register file, eliminating the IPR entirely (no cache slot, no eDRAM
// round trip).  CNN task graphs are full of such chains (conv -> pool,
// reduce -> conv), so clustering directly attacks the data-movement
// overhead the paper targets; the ablation benches quantify how much
// of Para-CONV's win clustering alone would capture.
package opt

import (
	"fmt"

	"repro/internal/dag"
)

// ClusterResult describes a clustering transform.
type ClusterResult struct {
	// Graph is the clustered task graph.
	Graph *dag.Graph
	// MemberOf maps every original vertex to its cluster's vertex ID
	// in the new graph.
	MemberOf []dag.NodeID
	// Merged is the number of edges eliminated (equally, the number
	// of merge steps performed).
	Merged int
}

// ClusterLinearChains merges maximal linear chains subject to a bound
// on the merged execution time (maxExec <= 0 means unbounded): a
// vertex v is merged into its successor w when v's only out-edge goes
// to w, w's only in-edge comes from v, and the combined execution time
// stays within the bound.  Edge attributes of surviving IPRs are
// preserved; the merged vertex keeps the chain head's name with a
// "+n" suffix counting absorbed members.
func ClusterLinearChains(g *dag.Graph, maxExec int) (*ClusterResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("opt: clustering invalid graph: %w", err)
	}
	n := g.NumNodes()
	// Union into chains: rep[v] is the chain head vertex of v.
	next := make([]int, n) // next[v] = sole successor merged after v, else -1
	for i := range next {
		next[i] = -1
	}
	mergedInto := make([]bool, n) // vertex absorbed into its predecessor's chain

	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	execOf := make([]int, n)
	for i := 0; i < n; i++ {
		execOf[i] = g.Node(dag.NodeID(i)).Exec
	}
	chainExec := make([]int, n)
	copy(chainExec, execOf)
	// head[v]: the chain head of v (path-compressed lazily).
	head := make([]int, n)
	for i := range head {
		head[i] = i
	}
	findHead := func(v int) int {
		for head[v] != v {
			head[v] = head[head[v]]
			v = head[v]
		}
		return v
	}

	merged := 0
	for _, vid := range order {
		v := int(vid)
		if g.OutDegree(vid) != 1 {
			continue
		}
		eid := g.Out(vid)[0]
		w := int(g.Edge(eid).To)
		if g.InDegree(dag.NodeID(w)) != 1 {
			continue
		}
		hv := findHead(v)
		if maxExec > 0 && chainExec[hv]+execOf[w] > maxExec {
			continue
		}
		// Merge w into v's chain.
		next[v] = w
		head[w] = hv
		chainExec[hv] += execOf[w]
		mergedInto[w] = true
		merged++
	}

	// Build the clustered graph: one vertex per chain head, execution
	// time summed over members, MACs summed; name suffixed by member
	// count.
	out := dag.New(g.Name() + "+clustered")
	memberOf := make([]dag.NodeID, n)
	newID := make([]dag.NodeID, n)
	for i := range newID {
		newID[i] = -1
	}
	for _, vid := range order {
		v := int(vid)
		if mergedInto[v] {
			continue
		}
		node := *g.Node(vid)
		members := 0
		for w := next[v]; w != -1; w = next[w] {
			node.Exec += execOf[w]
			node.MACs += g.Node(dag.NodeID(w)).MACs
			members++
		}
		if members > 0 && node.Name != "" {
			node.Name = fmt.Sprintf("%s+%d", node.Name, members)
		}
		newID[v] = out.AddNode(node)
	}
	for i := 0; i < n; i++ {
		memberOf[i] = newID[findHead(i)]
	}
	// Surviving edges: those not internal to a chain.
	for i := range g.Edges() {
		e := *g.Edge(dag.EdgeID(i))
		if next[int(e.From)] == int(e.To) {
			continue // eliminated by the merge
		}
		e.From = memberOf[e.From]
		e.To = memberOf[e.To]
		out.AddEdge(e)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("opt: clustering produced invalid graph: %w", err)
	}
	return &ClusterResult{Graph: out, MemberOf: memberOf, Merged: merged}, nil
}
