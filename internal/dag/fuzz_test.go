package dag

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDAGCodecRoundTrip feeds arbitrary text to ReadText.  Inputs the
// parser rejects must fail with an error (never a panic); inputs it
// accepts must survive a write/read/write round trip byte-identically,
// so the text format is a fixed point after one normalization.
func FuzzDAGCodecRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	g := New("fuzzseed")
	g.AddNode(Node{Name: "a", Kind: OpConv, Exec: 2})
	g.AddNode(Node{Name: "b", Kind: OpPool, Exec: 1})
	g.AddEdge(Edge{From: 0, To: 1, Size: 3, CacheTime: 0, EDRAMTime: 2, Bytes: 4096})
	if err := WriteText(&seed, g); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("graph g 1 0\nnode 0 x conv 1 0\n")
	f.Add("")
	f.Add("graph bad -1 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		g1, err := ReadText(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; a panic would fail the fuzzer
		}
		var w1 bytes.Buffer
		if err := WriteText(&w1, g1); err != nil {
			t.Fatalf("WriteText after successful ReadText: %v", err)
		}
		g2, err := ReadText(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("ReadText of its own output: %v\noutput:\n%s", err, w1.String())
		}
		var w2 bytes.Buffer
		if err := WriteText(&w2, g2); err != nil {
			t.Fatalf("WriteText on round-tripped graph: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("text format is not a fixed point:\nfirst:\n%s\nsecond:\n%s", w1.String(), w2.String())
		}
		if g2.NumNodes() != g1.NumNodes() || g2.NumEdges() != g1.NumEdges() {
			t.Fatalf("round trip changed counts: |V| %d->%d, |E| %d->%d",
				g1.NumNodes(), g2.NumNodes(), g1.NumEdges(), g2.NumEdges())
		}
	})
}

// FuzzBinaryCodecRoundTrip feeds arbitrary bytes to DecodeBinary.
// Rejected frames must fail with an error (never a panic); accepted
// frames must re-encode to exactly the input bytes (the decoder accepts
// only the canonical encoding — the property that lets a server key
// plans by a hash of the undecoded frame), must pass the attributing
// validateSlow, and must carry exactly the text codec's information: the
// graph pushed through WriteText/ReadText agrees structurally with the
// binary parse, modulo the text format's name sanitization.
func FuzzBinaryCodecRoundTrip(f *testing.F) {
	g := New("fuzzseed")
	g.AddNode(Node{Name: "a", Kind: OpConv, Exec: 2})
	g.AddNode(Node{Name: "b", Kind: OpPool, Exec: 1})
	g.AddEdge(Edge{From: 0, To: 1, Size: 3, CacheTime: 0, EDRAMTime: 2})
	f.Add(AppendBinary(nil, g))
	f.Add([]byte{'P', 'C', 'G', 1})
	f.Add([]byte{'P', 'C', 'G', 1, 0, 0, 0})
	f.Add([]byte{'P', 'C', 'G', 1, 0x80, 0, 0, 0}) // padded name length
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g1, err := DecodeBinary(data, Limits{})
		if err != nil {
			return // rejection is fine; a panic would fail the fuzzer
		}
		if b1 := AppendBinary(nil, g1); !bytes.Equal(b1, data) {
			t.Fatalf("accepted frame is not the canonical encoding of its graph:\ninput     % x\nre-encode % x", data, b1)
		}
		// The decoder's linear Validate must agree with the attributing
		// map-based path on everything it lets through.
		if err := g1.validateSlow(); err != nil {
			t.Fatalf("accepted frame fails validateSlow: %v", err)
		}
		// Cross-codec equivalence: the text round trip must preserve
		// everything except names, which it sanitizes.
		var txt bytes.Buffer
		if err := WriteText(&txt, g1); err != nil {
			t.Fatalf("WriteText after successful DecodeBinary: %v", err)
		}
		g3, err := ReadText(&txt)
		if err != nil {
			t.Fatalf("ReadText of the text encoding: %v", err)
		}
		if g3.NumNodes() != g1.NumNodes() || g3.NumEdges() != g1.NumEdges() {
			t.Fatalf("codecs disagree on counts: |V| %d vs %d, |E| %d vs %d",
				g1.NumNodes(), g3.NumNodes(), g1.NumEdges(), g3.NumEdges())
		}
		for i := 0; i < g1.NumNodes(); i++ {
			a, b := g1.Node(NodeID(i)), g3.Node(NodeID(i))
			if a.Kind != b.Kind || a.Exec != b.Exec {
				t.Fatalf("node %d: binary %+v vs text %+v", i, *a, *b)
			}
			want := sanitizeToken(a.Name, "-")
			if want == "-" {
				want = ""
			}
			if b.Name != want {
				t.Fatalf("node %d name: text %q, want sanitized %q of binary %q", i, b.Name, want, a.Name)
			}
		}
		for i := 0; i < g1.NumEdges(); i++ {
			a, b := g1.Edge(EdgeID(i)), g3.Edge(EdgeID(i))
			if a.From != b.From || a.To != b.To || a.Size != b.Size ||
				a.CacheTime != b.CacheTime || a.EDRAMTime != b.EDRAMTime {
				t.Fatalf("edge %d: binary %+v vs text %+v", i, *a, *b)
			}
		}
	})
}
