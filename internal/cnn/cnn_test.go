package cnn

import (
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
)

func TestShapeBasics(t *testing.T) {
	s := Shape{C: 3, H: 224, W: 224}
	if s.Elems() != 3*224*224 {
		t.Errorf("Elems = %d", s.Elems())
	}
	if s.Bytes() != 2*s.Elems() {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	if !s.Valid() || (Shape{C: 0, H: 1, W: 1}).Valid() {
		t.Error("Valid misclassifies")
	}
	if s.String() != "3x224x224" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSimpleNetworkShapes(t *testing.T) {
	n := NewNetwork("tiny")
	n.Input("data", Shape{C: 3, H: 32, W: 32})
	n.Conv("c1", "data", 16, 3, 1, 1)
	n.Pool("p1", "c1", MaxPool, 2, 2, 0)
	n.FC("fc", "p1", 10)
	if err := n.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := n.Layer("c1").OutShape; got != (Shape{C: 16, H: 32, W: 32}) {
		t.Errorf("c1 out = %v", got)
	}
	if got := n.Layer("p1").OutShape; got != (Shape{C: 16, H: 16, W: 16}) {
		t.Errorf("p1 out = %v", got)
	}
	if got := n.Layer("fc").OutShape; got != (Shape{C: 10, H: 1, W: 1}) {
		t.Errorf("fc out = %v", got)
	}
}

func TestMACsAndWeights(t *testing.T) {
	n := NewNetwork("m")
	n.Input("data", Shape{C: 3, H: 8, W: 8})
	n.Conv("c", "data", 4, 3, 1, 1)
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	c := n.Layer("c")
	// 3x3x3 per output element, 4x8x8 outputs.
	if want := int64(3*3*3) * int64(4*8*8); c.MACs() != want {
		t.Errorf("conv MACs = %d, want %d", c.MACs(), want)
	}
	if want := int64(3*3*3*4 + 4); c.Weights() != want {
		t.Errorf("conv weights = %d, want %d", c.Weights(), want)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Network
		want  string
	}{
		{"duplicate", func() *Network {
			n := NewNetwork("x")
			n.Input("a", Shape{1, 4, 4})
			n.Conv("a", "a", 1, 1, 1, 0)
			return n
		}, "duplicate"},
		{"undeclared input", func() *Network {
			n := NewNetwork("x")
			n.Input("a", Shape{1, 4, 4})
			n.Conv("c", "nope", 1, 1, 1, 0)
			return n
		}, "undeclared"},
		{"bad input shape", func() *Network {
			n := NewNetwork("x")
			n.Input("a", Shape{0, 4, 4})
			return n
		}, "invalid shape"},
		{"kernel too big", func() *Network {
			n := NewNetwork("x")
			n.Input("a", Shape{1, 4, 4})
			n.Conv("c", "a", 1, 9, 1, 0)
			return n
		}, "does not fit"},
		{"empty", func() *Network { return NewNetwork("x") }, "empty network"},
		{"concat spatial mismatch", func() *Network {
			n := NewNetwork("x")
			n.Input("a", Shape{1, 8, 8})
			n.Conv("c1", "a", 2, 1, 1, 0)
			n.Conv("c2", "a", 2, 3, 2, 1)
			n.Concat("cat", "c1", "c2")
			return n
		}, "spatial"},
		{"empty layer name", func() *Network {
			n := NewNetwork("x")
			n.Input("", Shape{1, 4, 4})
			return n
		}, "empty name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Finalize()
			if err == nil {
				t.Fatal("Finalize returned nil, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestBuilderErrorsUsesErrHelper(t *testing.T) {
	// The "empty" case above passes Finalize directly; double-check
	// the add-after-finalize guard too.
	n := NewNetwork("x")
	n.Input("a", Shape{1, 4, 4})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	n.Conv("late", "a", 1, 1, 1, 0)
	if err := n.Finalize(); err == nil || !strings.Contains(err.Error(), "after Finalize") {
		t.Errorf("adding after Finalize: err = %v", err)
	}
}

func TestGoogLeNetStructure(t *testing.T) {
	n, err := GoogLeNet()
	if err != nil {
		t.Fatalf("GoogLeNet: %v", err)
	}
	// 9 inception modules x 6 convs + 3 stem convs = 57 convolutions,
	// 9 module pools + 5 standalone pools = 14 pools, 1 FC.
	convs, pools, fcs := 0, 0, 0
	for _, l := range n.Layers() {
		switch l.Kind {
		case KindConv:
			convs++
		case KindPool:
			pools++
		case KindFC:
			fcs++
		}
	}
	if convs != 57 || pools != 14 || fcs != 1 {
		t.Errorf("layer census = %d convs, %d pools, %d fc; want 57/14/1", convs, pools, fcs)
	}
	// Known shape waypoints from Szegedy et al. Table 1.
	waypoints := map[string]Shape{
		"conv1/7x7_s2":        {64, 112, 112},
		"pool2/3x3_s2":        {192, 28, 28},
		"inception_3a/output": {256, 28, 28},
		"inception_3b/output": {480, 28, 28},
		"inception_4a/output": {512, 14, 14},
		"inception_4e/output": {832, 14, 14},
		"inception_5b/output": {1024, 7, 7},
		"pool5/7x7_s1":        {1024, 1, 1},
		"loss3/classifier":    {1000, 1, 1},
	}
	for name, want := range waypoints {
		l := n.Layer(name)
		if l == nil {
			t.Errorf("missing layer %q", name)
			continue
		}
		if l.OutShape != want {
			t.Errorf("%s out = %v, want %v", name, l.OutShape, want)
		}
	}
	// ~6.8M weights (no aux heads); sanity band 5M-8M.
	w := n.TotalWeights()
	if w < 5_000_000 || w > 8_000_000 {
		t.Errorf("GoogLeNet weights = %d, want ~6.8M", w)
	}
	// ~1.58 GMACs one inference pass; band 1.2-2.0G.
	m := n.TotalMACs()
	if m < 1_200_000_000 || m > 2_000_000_000 {
		t.Errorf("GoogLeNet MACs = %d, want ~1.58G", m)
	}
}

func TestLeNet5(t *testing.T) {
	n, err := LeNet5()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Layer("output").OutShape; got != (Shape{10, 1, 1}) {
		t.Errorf("output shape = %v", got)
	}
	if n.NumCompute() != 7 {
		t.Errorf("NumCompute = %d, want 7", n.NumCompute())
	}
}

func TestInceptionModuleGraphMatchesPaperSmallBenchmarks(t *testing.T) {
	// A single inception module lowers to 7 vertices (6 convs + pool)
	// — the same order of magnitude as the paper's smallest benchmark
	// ("cat", 9 vertices).
	net, err := InceptionModule("inc", Shape{192, 28, 28}, InceptionSpec{64, 96, 128, 16, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ToTaskGraph(net, LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 {
		t.Errorf("|V| = %d, want 7", g.NumNodes())
	}
	// Edges: data->everything is dropped (input), so: 3x3_reduce->3x3,
	// 5x5_reduce->5x5, pool->pool_proj.  Concat output feeds nothing.
	if g.NumEdges() != 3 {
		t.Errorf("|E| = %d, want 3", g.NumEdges())
	}
}

func TestToTaskGraphGoogLeNet(t *testing.T) {
	net, err := GoogLeNet()
	if err != nil {
		t.Fatal(err)
	}
	g, err := ToTaskGraph(net, LowerOptions{Arch: pim.Neurocube(64), MaxExec: 4})
	if err != nil {
		t.Fatalf("ToTaskGraph: %v", err)
	}
	if g.NumNodes() != net.NumCompute() {
		t.Errorf("|V| = %d, want %d compute layers", g.NumNodes(), net.NumCompute())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("lowered graph invalid: %v", err)
	}
	// Consumers of an inception output must depend on all four branch
	// producers (concat folded away).
	var b1 dag.NodeID = -1
	for _, n := range g.Nodes() {
		if n.Name == "inception_3b/1x1" {
			b1 = n.ID
		}
	}
	if b1 < 0 {
		t.Fatal("missing vertex inception_3b/1x1")
	}
	in := g.In(b1)
	if len(in) != 4 {
		t.Errorf("inception_3b/1x1 has %d producers, want 4 (the 3a branches)", len(in))
	}
	for _, eid := range in {
		name := g.Node(g.Edge(eid).From).Name
		if !strings.HasPrefix(name, "inception_3a/") {
			t.Errorf("unexpected producer %q", name)
		}
	}
	// Exec scaling: all within [1, MaxExec].
	for _, n := range g.Nodes() {
		if n.Exec < 1 || n.Exec > 4 {
			t.Errorf("vertex %q exec = %d outside [1,4]", n.Name, n.Exec)
		}
	}
	// Transfer asymmetry holds everywhere.
	for _, e := range g.Edges() {
		if e.EDRAMTime <= e.CacheTime {
			t.Errorf("edge %d->%d: eDRAM %d <= cache %d", e.From, e.To, e.EDRAMTime, e.CacheTime)
		}
		if e.Bytes <= 0 {
			t.Errorf("edge %d->%d: no byte annotation", e.From, e.To)
		}
	}
}

func TestToTaskGraphRejectsBadArch(t *testing.T) {
	net, err := LeNet5()
	if err != nil {
		t.Fatal(err)
	}
	bad := pim.Neurocube(16)
	bad.EDRAMAccessCycles = 1
	if _, err := ToTaskGraph(net, LowerOptions{Arch: bad}); err == nil {
		t.Fatal("ToTaskGraph accepted an invalid architecture")
	}
}

func TestComputeProducersThroughConcatChains(t *testing.T) {
	n := NewNetwork("chain")
	n.Input("data", Shape{1, 8, 8})
	n.Conv("a", "data", 2, 1, 1, 0)
	n.Conv("b", "data", 2, 1, 1, 0)
	n.Concat("cat1", "a", "b")
	n.Concat("cat2", "cat1", "a") // nested concat, with duplicate producer
	n.Conv("c", "cat2", 2, 1, 1, 0)
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	got := n.computeProducers([]string{"cat2"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("computeProducers = %v, want [a b]", got)
	}
}

func TestKindStrings(t *testing.T) {
	if KindConv.String() != "conv" || KindConcat.String() != "concat" {
		t.Error("LayerKind strings wrong")
	}
	if MaxPool.String() != "max" || AvgPool.String() != "avg" {
		t.Error("PoolOp strings wrong")
	}
}
