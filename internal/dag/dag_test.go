package dag

import (
	"slices"
	"strings"
	"testing"
)

// diamond builds the 4-vertex diamond 0->1, 0->2, 1->3, 2->3 with
// Exec=1 everywhere and uniform edge weights.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	for i := 0; i < 4; i++ {
		g.AddNode(Node{Name: "t", Kind: OpConv, Exec: 1})
	}
	g.AddEdge(Edge{From: 0, To: 1, Size: 1, CacheTime: 0, EDRAMTime: 1})
	g.AddEdge(Edge{From: 0, To: 2, Size: 1, CacheTime: 0, EDRAMTime: 1})
	g.AddEdge(Edge{From: 1, To: 3, Size: 1, CacheTime: 0, EDRAMTime: 1})
	g.AddEdge(Edge{From: 2, To: 3, Size: 1, CacheTime: 0, EDRAMTime: 1})
	return g
}

// paperGraph builds the 5-vertex graph of the paper's Figure 2(b):
// T1->T2, T1->T3, T2->T4, T2->T5, T3->T4, T3->T5.
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("fig2b")
	for i := 0; i < 5; i++ {
		g.AddNode(Node{Kind: OpConv, Exec: 1})
	}
	for _, p := range [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}} {
		g.AddEdge(Edge{From: p[0], To: p[1], Size: 1, CacheTime: 0, EDRAMTime: 1})
	}
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New("x")
	for i := 0; i < 10; i++ {
		id := g.AddNode(Node{Kind: OpConv, Exec: 1})
		if int(id) != i {
			t.Fatalf("AddNode #%d returned id %d", i, id)
		}
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestAddEdgePanicsOnBadEndpoint(t *testing.T) {
	g := New("x")
	g.AddNode(Node{Kind: OpConv, Exec: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge with out-of-range endpoint did not panic")
		}
	}()
	g.AddEdge(Edge{From: 0, To: 5, Size: 1})
}

// TestAddEdgesMatchesAddEdge checks the bulk loader builds exactly the
// edges and adjacency an AddEdge loop does, and that a later AddEdge
// grows one vertex's list without clobbering its neighbour's.
func TestAddEdgesMatchesAddEdge(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomDAG(seed, 30, 90)
		bulk := New(g.Name())
		for _, n := range g.Nodes() {
			bulk.AddNode(n)
		}
		bulk.AddEdges(g.Edges())
		extra := Edge{From: 0, To: NodeID(g.NumNodes() - 1), Size: 1, EDRAMTime: 1}
		g.AddEdge(extra)
		bulk.AddEdge(extra)
		if bulk.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: %d edges, want %d", seed, bulk.NumEdges(), g.NumEdges())
		}
		for i := range g.Edges() {
			if bulk.Edges()[i] != g.Edges()[i] {
				t.Fatalf("seed %d: edge %d = %+v, want %+v", seed, i, bulk.Edges()[i], g.Edges()[i])
			}
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			if !slices.Equal(bulk.Out(v), g.Out(v)) || !slices.Equal(bulk.In(v), g.In(v)) {
				t.Fatalf("seed %d: vertex %d out/in %v/%v, want %v/%v", seed, v, bulk.Out(v), bulk.In(v), g.Out(v), g.In(v))
			}
		}
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := paperGraph(t)
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(3); got != 2 {
		t.Errorf("InDegree(3) = %d, want 2", got)
	}
	var succ, pred []NodeID
	for _, eid := range g.Out(1) {
		succ = append(succ, g.Edge(eid).To)
	}
	for _, eid := range g.In(4) {
		pred = append(pred, g.Edge(eid).From)
	}
	if !slices.Equal(succ, []NodeID{3, 4}) || !slices.Equal(pred, []NodeID{1, 2}) {
		t.Errorf("Out(1) reaches %v, In(4) comes from %v; want [3 4] and [1 2]", succ, pred)
	}
}

func TestSourcesSinks(t *testing.T) {
	g := paperGraph(t)
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Errorf("Sources = %v, want [0]", s)
	}
	if s := g.Sinks(); len(s) != 2 || s[0] != 3 || s[1] != 4 {
		t.Errorf("Sinks = %v, want [3 4]", s)
	}
}

func TestTopoSortOrder(t *testing.T) {
	g := paperGraph(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[NodeID]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topological order", e.From, e.To)
		}
	}
	// Deterministic: smallest ready vertex first.
	want := []NodeID{0, 1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New("cyc")
	g.AddNode(Node{Kind: OpConv, Exec: 1})
	g.AddNode(Node{Kind: OpConv, Exec: 1})
	g.AddEdge(Edge{From: 0, To: 1, Size: 1})
	g.AddEdge(Edge{From: 1, To: 0, Size: 1})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("TopoSort on cyclic graph returned nil error")
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic = true for a cyclic graph")
	}
}

func TestLevels(t *testing.T) {
	g := paperGraph(t)
	levels, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	if len(levels) != 3 {
		t.Fatalf("len(Levels) = %d, want 3", len(levels))
	}
	if len(levels[0]) != 1 || levels[0][0] != 0 {
		t.Errorf("level 0 = %v, want [0]", levels[0])
	}
	if len(levels[1]) != 2 {
		t.Errorf("level 1 = %v, want two vertices", levels[1])
	}
	if len(levels[2]) != 2 {
		t.Errorf("level 2 = %v, want two vertices", levels[2])
	}
}

func TestCriticalPath(t *testing.T) {
	g := paperGraph(t)
	length, path, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	if length != 3 {
		t.Errorf("critical path length = %d, want 3", length)
	}
	if len(path) != 3 || path[0] != 0 {
		t.Errorf("critical path = %v, want a 3-vertex path from 0", path)
	}
}

func TestCriticalPathEmptyGraph(t *testing.T) {
	g := New("empty")
	length, path, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	if length != 0 || path != nil {
		t.Errorf("empty graph critical path = (%d, %v), want (0, nil)", length, path)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := paperGraph(t)
	c := g.Clone()
	c.Node(0).Exec = 99
	c.Edge(0).Size = 42
	c.AddNode(Node{Kind: OpPool, Exec: 1})
	if g.Node(0).Exec != 1 {
		t.Error("mutating the clone's node leaked into the original")
	}
	if g.Edge(0).Size != 1 {
		t.Error("mutating the clone's edge leaked into the original")
	}
	if g.NumNodes() != 5 {
		t.Error("adding to the clone changed the original's vertex count")
	}
}

func TestTotalsAndStats(t *testing.T) {
	g := paperGraph(t)
	g.Node(2).Exec = 4
	if got := g.TotalExec(); got != 8 {
		t.Errorf("TotalExec = %d, want 8", got)
	}
	if got := g.MaxExec(); got != 4 {
		t.Errorf("MaxExec = %d, want 4", got)
	}
	st, err := g.ComputeStats()
	if err != nil {
		t.Fatalf("ComputeStats: %v", err)
	}
	if st.Nodes != 5 || st.Edges != 6 || st.Depth != 3 || st.Sources != 1 || st.Sinks != 2 {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "|V|=5") {
		t.Errorf("Stats.String() = %q", st.String())
	}
}

func TestValidateAcceptsGoodGraph(t *testing.T) {
	if err := paperGraph(t).Validate(); err != nil {
		t.Fatalf("Validate on good graph: %v", err)
	}
	if err := diamond(t).Validate(); err != nil {
		t.Fatalf("Validate on diamond: %v", err)
	}
}

func TestValidateRejectsDefects(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Graph
		want  string
	}{
		{"nil", func() *Graph { return nil }, "nil"},
		{"cycle", func() *Graph {
			g := New("c")
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddEdge(Edge{From: 0, To: 1, Size: 1})
			g.AddEdge(Edge{From: 1, To: 0, Size: 1})
			return g
		}, "cycle"},
		{"self-loop", func() *Graph {
			g := New("s")
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddEdge(Edge{From: 0, To: 0, Size: 1})
			return g
		}, "self-loop"},
		{"duplicate-edge", func() *Graph {
			g := New("d")
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddEdge(Edge{From: 0, To: 1, Size: 1})
			g.AddEdge(Edge{From: 0, To: 1, Size: 1})
			return g
		}, "duplicate-edge"},
		{"zero-exec", func() *Graph {
			g := New("z")
			g.AddNode(Node{Kind: OpConv, Exec: 0})
			return g
		}, "exec"},
		{"zero-size", func() *Graph {
			g := New("zs")
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddEdge(Edge{From: 0, To: 1, Size: 0})
			return g
		}, "size"},
		{"edram-cheaper-than-cache", func() *Graph {
			g := New("t")
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddNode(Node{Kind: OpConv, Exec: 1})
			g.AddEdge(Edge{From: 0, To: 1, Size: 1, CacheTime: 3, EDRAMTime: 1})
			return g
		}, "transfer"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate()
			if err == nil {
				t.Fatal("Validate returned nil, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAllowsZeroExecPseudoNodes(t *testing.T) {
	g := New("p")
	g.AddNode(Node{Kind: OpInput, Exec: 0})
	g.AddNode(Node{Kind: OpConv, Exec: 1})
	g.AddEdge(Edge{From: 0, To: 1, Size: 1})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{
		OpConv: "conv", OpPool: "pool", OpFC: "fc",
		OpInput: "input", OpOutput: "output", OpKind(99): "opkind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestNodeEdgeAccessorsPanic(t *testing.T) {
	g := diamond(t)
	for _, f := range []func(){
		func() { g.Node(-1) },
		func() { g.Node(100) },
		func() { g.Edge(-1) },
		func() { g.Edge(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("accessor with invalid id did not panic")
				}
			}()
			f()
		}()
	}
}
