package synth

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func TestGenerateExactCounts(t *testing.T) {
	cases := []struct{ v, e int }{
		{9, 21}, {13, 28}, {21, 51}, {46, 121}, {102, 267}, {546, 1449},
	}
	for _, c := range cases {
		g, err := Generate(Params{Name: "g", Vertices: c.v, Edges: c.e, Seed: 42})
		if err != nil {
			t.Fatalf("Generate(%d,%d): %v", c.v, c.e, err)
		}
		if g.NumNodes() != c.v || g.NumEdges() != c.e {
			t.Errorf("Generate(%d,%d) produced |V|=%d |E|=%d", c.v, c.e, g.NumNodes(), g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("Generate(%d,%d) invalid: %v", c.v, c.e, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Name: "d", Vertices: 50, Edges: 130, Seed: 7}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("sizes differ between identical seeds")
	}
	for i := range a.Edges() {
		ea, eb := a.Edge(dag.EdgeID(i)), b.Edge(dag.EdgeID(i))
		if *ea != *eb {
			t.Fatalf("edge %d differs: %+v vs %+v", i, *ea, *eb)
		}
	}
	for i := range a.Nodes() {
		na, nb := a.Node(dag.NodeID(i)), b.Node(dag.NodeID(i))
		if *na != *nb {
			t.Fatalf("node %d differs: %+v vs %+v", i, *na, *nb)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := Generate(Params{Vertices: 60, Edges: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Params{Vertices: 60, Edges: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Edges() {
		if a.Edge(dag.EdgeID(i)).From != b.Edge(dag.EdgeID(i)).From ||
			a.Edge(dag.EdgeID(i)).To != b.Edge(dag.EdgeID(i)).To {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical edge structure")
	}
}

func TestGenerateAllConnectedBeyondLayer0(t *testing.T) {
	g, err := Generate(Params{Vertices: 100, Edges: 260, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex outside level 0 must have a predecessor.
	for l := 1; l < len(levels); l++ {
		for _, v := range levels[l] {
			if g.InDegree(v) == 0 {
				t.Errorf("vertex %d at level %d has no predecessor", v, l)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want string
	}{
		{"zero vertices", Params{Vertices: 0, Edges: 0}, "Vertices"},
		{"too few edges", Params{Vertices: 50, Edges: 1, Seed: 1}, "infeasible"},
		{"too many edges", Params{Vertices: 5, Edges: 1000, Seed: 1, Layers: 2}, "infeasible"},
		{"layers exceed vertices", Params{Vertices: 3, Edges: 2, Layers: 10}, "Layers"},
		{"bad exec bounds", Params{Vertices: 5, Edges: 4, MinExec: 3, MaxExec: 2}, "exec bounds"},
		{"bad size bounds", Params{Vertices: 5, Edges: 4, MinSize: 3, MaxSize: 1}, "size bounds"},
		{"bad pool fraction", Params{Vertices: 5, Edges: 4, PoolFraction: 2}, "PoolFraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Generate(tc.p)
			if err == nil {
				t.Fatal("Generate returned nil error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestGenerateDenseBudgetUsesFallback(t *testing.T) {
	// Near-maximal edge budget forces the deterministic fallback scan.
	// 6 vertices, 2 layers (3+3 at best): ask for a budget close to
	// the max for whatever split the seed makes; probe feasibility by
	// starting high and backing off.
	for e := 9; e >= 5; e-- {
		g, err := Generate(Params{Vertices: 6, Edges: e, Seed: 11, Layers: 2})
		if err != nil {
			continue
		}
		if g.NumEdges() != e {
			t.Fatalf("want %d edges, got %d", e, g.NumEdges())
		}
		return
	}
	t.Fatal("no feasible dense budget found")
}

// Property: generated graphs are always acyclic with exact counts and
// valid weights, across seeds and sizes.
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64, vRaw, densRaw uint8) bool {
		v := int(vRaw%120) + 5
		// Edge budget between min feasible and a modest multiple; the
		// request can overshoot the layered maximum for tiny vertex
		// counts, so walk DOWN from the request toward the minimum and
		// give up (vacuous pass) if nothing in the range is feasible.
		for e := v - 1 + int(densRaw)%v; e >= 1; e-- {
			g, err := Generate(Params{Vertices: v, Edges: e, Seed: seed})
			if err != nil {
				if strings.Contains(err.Error(), "infeasible") {
					continue
				}
				return false
			}
			return g.IsAcyclic() && g.NumNodes() == v && g.Validate() == nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesParallel(t *testing.T) {
	g, err := SeriesParallel(SPParams{Name: "sp", Depth: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("series-parallel invalid: %v", err)
	}
	if g.NumNodes() < 2 {
		t.Errorf("|V| = %d; suspiciously small for depth 4", g.NumNodes())
	}
}

func TestSeriesParallelDepthZero(t *testing.T) {
	g, err := SeriesParallel(SPParams{Depth: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Errorf("depth 0: |V|=%d |E|=%d, want 1/0", g.NumNodes(), g.NumEdges())
	}
}

func TestSeriesParallelErrors(t *testing.T) {
	if _, err := SeriesParallel(SPParams{Depth: -1}); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := SeriesParallel(SPParams{Depth: 1, MaxBranch: 1}); err == nil {
		t.Error("MaxBranch 1 accepted")
	}
	if _, err := SeriesParallel(SPParams{Depth: 1, MinExec: 5, MaxExec: 2}); err == nil {
		t.Error("inverted exec bounds accepted")
	}
}

func TestSeriesParallelDeterministic(t *testing.T) {
	p := SPParams{Depth: 5, Seed: 123}
	a, _ := SeriesParallel(p)
	b, _ := SeriesParallel(p)
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("series-parallel not deterministic")
	}
}

// maxWidth returns the widest ASAP level of g.
func maxWidth(g *dag.Graph) (int, error) {
	levels, err := g.Levels()
	w := 0
	for _, l := range levels {
		w = max(w, len(l))
	}
	return w, err
}

func TestChainPreset(t *testing.T) {
	g, err := Chain(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 20 || g.NumEdges() != 19 {
		t.Errorf("|V|=%d |E|=%d", g.NumNodes(), g.NumEdges())
	}
	if w, err := maxWidth(g); err != nil || w != 1 {
		t.Errorf("chain width = %d (err %v)", w, err)
	}
	if _, err := Chain(0, 1); err == nil {
		t.Error("Chain(0) accepted")
	}
}

func TestWidePreset(t *testing.T) {
	g, err := Wide(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 18 || g.NumEdges() != 32 {
		t.Errorf("|V|=%d |E|=%d", g.NumNodes(), g.NumEdges())
	}
	if w, err := maxWidth(g); err != nil || w != 16 {
		t.Errorf("wide width = %d (err %v)", w, err)
	}
	if _, err := Wide(0, 1); err == nil {
		t.Error("Wide(0) accepted")
	}
}

func TestGridPreset(t *testing.T) {
	g, err := Grid(4, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 20 {
		t.Errorf("|V| = %d", g.NumNodes())
	}
	// Edges: right 4x4 + down 3x5 = 16 + 15 = 31.
	if g.NumEdges() != 31 {
		t.Errorf("|E| = %d, want 31", g.NumEdges())
	}
	// Depth = rows + cols - 1 levels.
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(levels); got != 8 {
		t.Errorf("grid depth = %d, want 8", got)
	}
	if _, err := Grid(0, 3, 1); err == nil {
		t.Error("Grid(0,3) accepted")
	}
}

func TestPresetsSchedulable(t *testing.T) {
	chain, _ := Chain(30, 5)
	wide, _ := Wide(30, 5)
	grid, _ := Grid(6, 6, 5)
	for _, g := range []*dag.Graph{chain, wide, grid} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
	}
}
