package opt

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/synth"
)

// chainGraph builds 0 -> 1 -> 2 -> 3 with a side edge 0 -> 3.
func chainGraph(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("chain")
	for i := 0; i < 4; i++ {
		g.AddNode(dag.Node{Name: "t", Kind: dag.OpConv, Exec: 2})
	}
	for _, p := range [][2]dag.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		g.AddEdge(dag.Edge{From: p[0], To: p[1], Size: 1, CacheTime: 0, EDRAMTime: 2})
	}
	return g
}

func TestClusterLinearChain(t *testing.T) {
	g := chainGraph(t)
	// Vertex 0 has out-degree 2 (to 1 and 3), so it stays; 1 -> 2
	// merges (1 out-deg 1, 2 in-deg 1); 2 -> 3? 3 has in-degree 2, so
	// no.  Result: {0}, {1+2}, {3}.
	res, err := ClusterLinearChains(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Errorf("merged = %d, want 1", res.Merged)
	}
	if res.Graph.NumNodes() != 3 {
		t.Errorf("|V| = %d, want 3", res.Graph.NumNodes())
	}
	if res.Graph.NumEdges() != 3 {
		t.Errorf("|E| = %d, want 3", res.Graph.NumEdges())
	}
	// The merged vertex carries the summed execution time.
	merged := res.Graph.Node(res.MemberOf[1])
	if merged.Exec != 4 {
		t.Errorf("merged exec = %d, want 4", merged.Exec)
	}
	if !strings.Contains(merged.Name, "+1") {
		t.Errorf("merged name = %q", merged.Name)
	}
	if res.MemberOf[1] != res.MemberOf[2] {
		t.Error("vertices 1 and 2 not in the same cluster")
	}
}

func TestClusterExecBound(t *testing.T) {
	g := dag.New("line")
	for i := 0; i < 5; i++ {
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 3})
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(dag.Edge{From: dag.NodeID(i), To: dag.NodeID(i + 1), Size: 1, EDRAMTime: 1})
	}
	// Bound 6: chains of at most two 3-unit vertices.
	res, err := ClusterLinearChains(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Graph.Nodes() {
		if e := res.Graph.Nodes()[i].Exec; e > 6 {
			t.Errorf("cluster exec %d exceeds bound", e)
		}
	}
	if res.Graph.NumNodes() != 3 { // {0,1}, {2,3}, {4}
		t.Errorf("|V| = %d, want 3", res.Graph.NumNodes())
	}
	// Unbounded merges everything into one vertex.
	all, err := ClusterLinearChains(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Graph.NumNodes() != 1 || all.Graph.NumEdges() != 0 {
		t.Errorf("unbounded: |V|=%d |E|=%d", all.Graph.NumNodes(), all.Graph.NumEdges())
	}
}

func TestClusterRejectsInvalidGraph(t *testing.T) {
	g := dag.New("bad")
	g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 0})
	if _, err := ClusterLinearChains(g, 0); err == nil {
		t.Error("invalid graph accepted")
	}
}

// Property: clustering preserves total work, keeps the graph valid,
// and never increases vertex or edge counts; the clustered graph still
// plans successfully and reduces (or preserves) IPR traffic.
func TestClusterProperty(t *testing.T) {
	f := func(seed int64, boundRaw uint8) bool {
		v := 5 + int(seed&0x1F)
		g, err := synth.Generate(synth.Params{Vertices: v, Edges: v + int(seed>>6&0x0F)%v, Seed: seed})
		if err != nil {
			return true
		}
		bound := int(boundRaw % 16)
		res, err := ClusterLinearChains(g, bound)
		if err != nil {
			return false
		}
		if res.Graph.TotalExec() != g.TotalExec() {
			return false
		}
		if res.Graph.NumNodes() > g.NumNodes() || res.Graph.NumEdges() > g.NumEdges() {
			return false
		}
		if res.Graph.NumEdges() != g.NumEdges()-res.Merged {
			return false
		}
		_, err = sched.ParaCONVCtx(context.Background(), res.Graph, pim.Neurocube(8))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringReducesDataMovement(t *testing.T) {
	g, err := synth.Generate(synth.Params{Vertices: 102, Edges: 267, Seed: 1102})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterLinearChains(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 {
		t.Skip("no linear chains in this instance")
	}
	if res.Graph.NumEdges() >= g.NumEdges() {
		t.Errorf("clustering did not remove IPRs: %d -> %d", g.NumEdges(), res.Graph.NumEdges())
	}
}
