package dag

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// validateDefect is one way a graph built with AddEdge can be broken,
// applied to a clean seeded DAG: want is a ValidationError kind the
// result must name ("" for a clean graph).
type validateDefect struct {
	name   string
	inject func(g *Graph, rng *rand.Rand)
	want   string
}

var validateDefects = []validateDefect{
	{"clean", func(*Graph, *rand.Rand) {}, ""},
	{"duplicate edge", func(g *Graph, rng *rand.Rand) {
		g.AddEdge(*anyEdge(g, rng))
	}, "duplicate-edge"},
	{"self-loop", func(g *Graph, rng *rand.Rand) {
		v := NodeID(rng.Intn(g.NumNodes()))
		g.AddEdge(Edge{From: v, To: v, Size: 1, EDRAMTime: 1})
	}, "self-loop"},
	{"cycle", func(g *Graph, rng *rand.Rand) {
		e := anyEdge(g, rng)
		g.AddEdge(Edge{From: e.To, To: e.From, Size: 1, EDRAMTime: 1})
	}, "cycle"},
	{"zero size", func(g *Graph, rng *rand.Rand) { anyEdge(g, rng).Size = 0 }, "size"},
	{"negative cache time", func(g *Graph, rng *rand.Rand) { anyEdge(g, rng).CacheTime = -1 }, "transfer"},
	{"eDRAM cheaper than cache", func(g *Graph, rng *rand.Rand) {
		e := anyEdge(g, rng)
		e.EDRAMTime = e.CacheTime - 1
	}, "transfer"},
	{"zero exec", func(g *Graph, rng *rand.Rand) {
		g.Node(NodeID(rng.Intn(g.NumNodes()))).Exec = 0
	}, "exec"},
}

// anyEdge returns a random edge of g, adding a 0->1 edge first when g
// has none.
func anyEdge(g *Graph, rng *rand.Rand) *Edge {
	if g.NumEdges() == 0 {
		g.AddEdge(Edge{From: 0, To: 1, Size: 1, EDRAMTime: 1})
	}
	return g.Edge(EdgeID(rng.Intn(g.NumEdges())))
}

// TestValidateMatchesSlowPath is the validator's differential test:
// over a seeded table of graphs, the linear fast path and the map-based
// attributing path return the same error text, defect for defect.
func TestValidateMatchesSlowPath(t *testing.T) {
	// Every defect at once, and a second duplicate, so the attributed
	// errors must interleave in edge-ID order on both paths.
	all := validateDefect{"all of them", func(g *Graph, rng *rand.Rand) {
		for _, d := range validateDefects {
			d.inject(g, rng)
		}
		validateDefects[1].inject(g, rng)
	}, "duplicate-edge"}
	for _, d := range append(validateDefects[:len(validateDefects):len(validateDefects)], all) {
		t.Run(d.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				g := randomDAG(seed, 40, 120)
				d.inject(g, rand.New(rand.NewSource(seed)))
				fast, slow := fmt.Sprint(g.Validate()), fmt.Sprint(g.validateSlow())
				if fast != slow {
					t.Fatalf("seed %d: Validate and validateSlow disagree:\nfast %s\nslow %s", seed, fast, slow)
				}
				if d.want == "" && fast != "<nil>" {
					t.Fatalf("seed %d: clean graph rejected: %s", seed, fast)
				}
				if d.want != "" && !strings.Contains(fast, " "+d.want+": ") {
					t.Fatalf("seed %d: error %s does not name %q", seed, fast, d.want)
				}
			}
		})
	}
}

// TestValidateCleanGraphAllocatesNothing pins the fast path's contract:
// Validate runs on every decoded request graph, and a clean one costs
// no heap allocation.
func TestValidateCleanGraphAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	g := randomDAG(7, 200, 600)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = g.Validate() }); allocs != 0 {
		t.Errorf("Validate on a clean graph allocates %.1f times per run, want 0", allocs)
	}
}

// TestRevalidateMatchesValidate: on a decoded graph, every defect of
// the table, whether a mutator added it (clearing the mark) or it was
// written through Node or Edge (keeping the mark), draws the same
// error from Revalidate as from Validate.
func TestRevalidateMatchesValidate(t *testing.T) {
	for _, d := range validateDefects {
		t.Run(d.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				g, err := DecodeBinary(AppendBinary(nil, randomDAG(seed, 40, 120)), Limits{})
				if err != nil {
					t.Fatal(err)
				}
				if !g.validated {
					t.Fatal("DecodeBinary did not mark the graph it validated")
				}
				d.inject(g, rand.New(rand.NewSource(seed)))
				if re, full := fmt.Sprint(g.Revalidate()), fmt.Sprint(g.Validate()); re != full {
					t.Fatalf("seed %d: Revalidate and Validate disagree:\nrevalidate %s\nvalidate   %s", seed, re, full)
				}
			}
		})
	}
}

// TestValidatedMark: the decoders set the mark, the mutators clear it,
// and neither Clone nor Validate hands it on.
func TestValidatedMark(t *testing.T) {
	src := randomDAG(3, 20, 40)
	var text strings.Builder
	if err := WriteText(&text, src); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := DecodeBinary(AppendBinary(nil, src), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Validate(); err != nil || src.validated {
		t.Fatalf("Validate (err %v) set the mark: %v", err, src.validated)
	}
	for _, g := range []*Graph{fromText, fromBinary} {
		if !g.validated {
			t.Error("a decoder left the graph unmarked")
		}
		if g.Clone().validated {
			t.Error("Clone of a decoded graph copied the mark")
		}
	}
	mutators := []struct {
		name   string
		mutate func(g *Graph)
	}{
		{"AddNode", func(g *Graph) { g.AddNode(Node{Exec: 1}) }},
		{"AddEdge", func(g *Graph) { g.AddEdge(Edge{From: 0, To: 1, Size: 1, EDRAMTime: 1}) }},
		{"Grow", func(g *Graph) { g.Grow(1, 1) }},
	}
	for _, m := range mutators {
		g, err := DecodeBinary(AppendBinary(nil, src), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if m.mutate(g); g.validated {
			t.Errorf("%s kept the mark", m.name)
		}
	}
}
