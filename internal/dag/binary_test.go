package dag

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// binTestGraph builds a small named graph exercising every field the
// binary codec carries: graph name, node kind/exec/name (including an
// anonymous node), and all three edge weights.
func binTestGraph(t testing.TB) *Graph {
	t.Helper()
	g := New("bin-test")
	g.AddNode(Node{Name: "conv1", Kind: OpConv, Exec: 4})
	g.AddNode(Node{Name: "", Kind: OpPool, Exec: 2})
	g.AddNode(Node{Name: "fc_out", Kind: OpFC, Exec: 7})
	g.AddEdge(Edge{From: 0, To: 1, Size: 3, CacheTime: 1, EDRAMTime: 2})
	g.AddEdge(Edge{From: 0, To: 2, Size: 5, CacheTime: 0, EDRAMTime: 3})
	g.AddEdge(Edge{From: 1, To: 2, Size: 1, CacheTime: 0, EDRAMTime: 1})
	return g
}

func graphsStructurallyEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Name() != b.Name() {
		t.Errorf("name %q != %q", a.Name(), b.Name())
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes |V| %d/%d, |E| %d/%d", a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	for i := 0; i < a.NumNodes(); i++ {
		x, y := a.Node(NodeID(i)), b.Node(NodeID(i))
		if x.Kind != y.Kind || x.Exec != y.Exec || x.Name != y.Name {
			t.Errorf("node %d: %+v != %+v", i, *x, *y)
		}
	}
	for i := 0; i < a.NumEdges(); i++ {
		x, y := a.Edge(EdgeID(i)), b.Edge(EdgeID(i))
		if x.From != y.From || x.To != y.To || x.Size != y.Size ||
			x.CacheTime != y.CacheTime || x.EDRAMTime != y.EDRAMTime {
			t.Errorf("edge %d: %+v != %+v", i, *x, *y)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := binTestGraph(t)
	data := AppendBinary(nil, g)
	got, err := DecodeBinary(data, Limits{})
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	graphsStructurallyEqual(t, g, got)
}

// TestBinaryDeterministic pins the byte-for-byte determinism contract:
// the same graph encodes identically on every call, and re-encoding a
// decoded graph reproduces the original frame.
func TestBinaryDeterministic(t *testing.T) {
	g := binTestGraph(t)
	b1 := AppendBinary(nil, g)
	b2 := AppendBinary(nil, g)
	if !bytes.Equal(b1, b2) {
		t.Fatal("two encodings of the same graph differ")
	}
	got, err := DecodeBinary(b1, Limits{})
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if b3 := AppendBinary(nil, got); !bytes.Equal(b1, b3) {
		t.Fatalf("decode/re-encode changed the frame:\n% x\n% x", b1, b3)
	}
}

// TestBinaryTextEquivalence checks the two codecs carry identical
// information: a graph pushed through the binary round trip and then
// the text codec yields the same bytes as the text codec alone.
func TestBinaryTextEquivalence(t *testing.T) {
	g := binTestGraph(t)
	viaBin, err := DecodeBinary(AppendBinary(nil, g), Limits{})
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	var direct, viaBinText bytes.Buffer
	if err := WriteText(&direct, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&viaBinText, viaBin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaBinText.Bytes()) {
		t.Fatalf("binary round trip is not text-transparent:\n%s\nvs\n%s", direct.String(), viaBinText.String())
	}
}

// TestBinaryTextEquivalenceSweep runs the cross-codec equivalence over
// 60 seeded random DAGs: parse(text(g)) and decode(binary(g)) must
// agree structurally, and both must re-encode to identical binary
// frames.
func TestBinaryTextEquivalenceSweep(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g := randomDAG(seed, 40, 120)
		var txt bytes.Buffer
		if err := WriteText(&txt, g); err != nil {
			t.Fatalf("seed %d: WriteText: %v", seed, err)
		}
		fromText, err := ReadText(&txt)
		if err != nil {
			t.Fatalf("seed %d: ReadText: %v", seed, err)
		}
		frame := AppendBinary(nil, g)
		fromBin, err := DecodeBinary(frame, Limits{})
		if err != nil {
			t.Fatalf("seed %d: DecodeBinary: %v", seed, err)
		}
		graphsStructurallyEqual(t, fromText, fromBin)
		if !bytes.Equal(AppendBinary(nil, fromText), AppendBinary(nil, fromBin)) {
			t.Fatalf("seed %d: text and binary round trips diverge in binary form", seed)
		}
	}
}

func TestBinaryLimits(t *testing.T) {
	g := binTestGraph(t) // 3 nodes, 3 edges
	data := AppendBinary(nil, g)
	tests := []struct {
		name     string
		lim      Limits
		wantKind string
		wantMax  int
	}{
		{"unlimited", Limits{}, "", 0},
		{"exactly-at-caps", Limits{MaxNodes: 3, MaxEdges: 3}, "", 0},
		{"over-node-cap", Limits{MaxNodes: 2, MaxEdges: 100}, "nodes", 2},
		{"over-edge-cap", Limits{MaxNodes: 100, MaxEdges: 2}, "edges", 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeBinary(data, tc.lim)
			if tc.wantKind == "" {
				if err != nil {
					t.Fatalf("DecodeBinary: %v", err)
				}
				graphsStructurallyEqual(t, g, got)
				return
			}
			if err == nil {
				t.Fatal("DecodeBinary succeeded, want a limit error")
			}
			var lim *LimitError
			if !errors.As(err, &lim) {
				t.Fatalf("error %v (%T) is not a *LimitError", err, err)
			}
			if lim.Kind != tc.wantKind || lim.Max != tc.wantMax {
				t.Errorf("LimitError{Kind: %q, Max: %d}, want {%q, %d}", lim.Kind, lim.Max, tc.wantKind, tc.wantMax)
			}
			if lim.Offset == 0 {
				t.Error("LimitError.Offset is unset for a binary parse")
			}
			if !strings.Contains(lim.Error(), "offset") {
				t.Errorf("binary LimitError text %q does not mention the offset", lim.Error())
			}
		})
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	valid := AppendBinary(nil, binTestGraph(t))
	corrupt := func(mut func(b []byte) []byte) []byte {
		return mut(append([]byte(nil), valid...))
	}
	tests := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "shorter than"},
		{"short header", []byte{'P', 'C'}, "shorter than"},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"future version", corrupt(func(b []byte) []byte { b[3] = 9; return b }), "unsupported version"},
		{"truncated mid-frame", valid[:len(valid)-3], "truncated"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0x00), "trailing"},
		{"lying header", []byte{'P', 'C', 'G', 1, 0, 0xff, 0xff, 0x03, 0}, "exceed"},
		// Padded varints decode to the same values as their minimal
		// forms; accepting them would give one graph two byte strings.
		{"padded count", []byte{'P', 'C', 'G', 1, 0, 0x80, 0x00, 0}, "non-minimal"},
		{"padded exec", []byte{'P', 'C', 'G', 1, 0, 1, 0, byte(OpConv), 0x82, 0x00, 0}, "non-minimal"},
		{"bad kind", corrupt(func(b []byte) []byte {
			// header(4) + name len(1)+"bin-test"(8) + counts(2) = offset 15
			// is the first node's kind byte.
			b[15] = 0xee
			return b
		}), "unknown op kind"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBinary(tc.data, Limits{})
			if err == nil {
				t.Fatal("DecodeBinary returned nil error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestDecodeBinaryUndeclaredEndpoint hand-builds a frame whose edge
// references a node beyond the declared count.
func TestDecodeBinaryUndeclaredEndpoint(t *testing.T) {
	g := New("x")
	g.AddNode(Node{Kind: OpConv, Exec: 1})
	g.AddNode(Node{Kind: OpConv, Exec: 1})
	g.AddEdge(Edge{From: 0, To: 1, Size: 1, CacheTime: 0, EDRAMTime: 1})
	data := AppendBinary(nil, g)
	// The final edge is encoded as from=0, to=1, then three weights;
	// bump the 'to' varint (second-to-last group of 5 trailing bytes)
	// to an out-of-range node id.
	data[len(data)-4] = 9 // 'to' uvarint, single byte
	_, err := DecodeBinary(data, Limits{})
	if err == nil || !strings.Contains(err.Error(), "undeclared node") {
		t.Fatalf("err = %v, want undeclared-node error", err)
	}
}

// TestDecodeBinaryNeverPanics feeds adversarial frames to the decoder:
// every outcome must be a value or an error, never a panic.
func TestDecodeBinaryNeverPanics(t *testing.T) {
	valid := AppendBinary(nil, binTestGraph(t))
	inputs := [][]byte{
		nil,
		{'P', 'C', 'G', 1},
		{'P', 'C', 'G', 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		valid[:7],
		valid[:len(valid)/2],
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i := 1; i < len(valid); i += 3 {
		inputs = append(inputs, valid[:i])
	}
	for i, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("input %d panicked: %v", i, r)
				}
			}()
			_, _ = DecodeBinary(in, Limits{})
		}()
	}
}

// TestAppendBinaryZeroAlloc pins the encoder's allocation contract:
// with a pre-sized destination the encode touches the heap zero times.
func TestAppendBinaryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	g := binTestGraph(t)
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendBinary(buf[:0], g)
	})
	if allocs > 0 {
		t.Errorf("AppendBinary allocates %.1f times per run, want 0", allocs)
	}
}

// TestDecodeBinaryAllocBudget bounds the decoder's per-call
// allocations: graph + node/edge/adjacency storage + one shared name
// backing, independent of the graph's size.
func TestDecodeBinaryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	g := New("alloc")
	for i := 0; i < 200; i++ {
		g.AddNode(Node{Kind: OpConv, Exec: 1 + i%7, Name: "layer"})
	}
	for i := 0; i+1 < 200; i++ {
		g.AddEdge(Edge{From: NodeID(i), To: NodeID(i + 1), Size: 1, CacheTime: 0, EDRAMTime: 1})
	}
	data := AppendBinary(nil, g)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeBinary(data, Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	// Exactly the retained output, no scratch: the Graph struct, nodes,
	// edges, the out/in list headers, their shared backing, and the one
	// string behind the graph name and every node name.
	if allocs > 6 {
		t.Errorf("DecodeBinary allocates %.1f times per 200-node graph, want <= 6", allocs)
	}
}
