package dag

import (
	"strings"
	"testing"
)

// must calls a no-argument accessor and fails the test on error.
func must[T any](t *testing.T, f func() (T, error)) T {
	t.Helper()
	v, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestWidthProfile(t *testing.T) {
	g := paperGraph(t)
	widths := must(t, g.WidthProfile)
	want := []int{1, 2, 2}
	if len(widths) != len(want) {
		t.Fatalf("widths = %v", widths)
	}
	for i, w := range want {
		if widths[i] != w {
			t.Errorf("width[%d] = %d, want %d", i, widths[i], w)
		}
	}
	if got := must(t, g.MaxWidth); got != 2 {
		t.Errorf("MaxWidth = %d", got)
	}
	if got := must(t, New("empty").MaxWidth); got != 0 {
		t.Error("empty graph MaxWidth != 0")
	}
}

func TestPathCount(t *testing.T) {
	// fig2b: T1 fans to T2/T3, each fans to T4/T5: 4 paths.
	if got := must(t, paperGraph(t).PathCount); got != 4 {
		t.Errorf("paths = %d, want 4", got)
	}
	// A lone vertex is one path.
	g := New("one")
	g.AddNode(Node{Kind: OpConv, Exec: 1})
	if got := must(t, g.PathCount); got != 1 {
		t.Errorf("single vertex paths = %d", got)
	}
	// Diamond: 2 paths.
	if got := must(t, diamond(t).PathCount); got != 2 {
		t.Errorf("diamond paths = %d, want 2", got)
	}
}

func TestPathCountSaturates(t *testing.T) {
	// A ladder of diamonds doubles the count per stage; 80 stages
	// would overflow int64 without saturation.
	g := New("ladder")
	prev := g.AddNode(Node{Kind: OpConv, Exec: 1})
	for i := 0; i < 80; i++ {
		a := g.AddNode(Node{Kind: OpConv, Exec: 1})
		b := g.AddNode(Node{Kind: OpConv, Exec: 1})
		join := g.AddNode(Node{Kind: OpConv, Exec: 1})
		g.AddEdge(Edge{From: prev, To: a, Size: 1})
		g.AddEdge(Edge{From: prev, To: b, Size: 1})
		g.AddEdge(Edge{From: a, To: join, Size: 1})
		g.AddEdge(Edge{From: b, To: join, Size: 1})
		prev = join
	}
	got := must(t, g.PathCount)
	if got <= 0 {
		t.Fatalf("saturated count = %d; must stay positive", got)
	}
}

func TestGraphSummary(t *testing.T) {
	s := paperGraph(t).Summary()
	for _, want := range []string{"width max 2", "4 paths"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
