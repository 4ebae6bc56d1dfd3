package wire_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/run"
	"repro/internal/synth"
	"repro/internal/wire"
)

// splitLimits are the graph caps the split property runs under: small
// enough that the seed table crosses them.
var splitLimits = dag.Limits{MaxNodes: 64, MaxEdges: 256}

// splitSeeds is the named edge-case table behind both the unit test and
// the fuzz corpus: every way a request body can be cut between its
// scalar header and its trailing graph frame.
func splitSeeds(tb testing.TB) []struct {
	name string
	body []byte
} {
	tb.Helper()
	graph := func(vertices, edges int) *dag.Graph {
		g, err := synth.Generate(synth.Params{Name: "split", Vertices: vertices, Edges: edges, Seed: 17})
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	g := graph(12, 26)
	full := wire.AppendRequest(nil, &wire.Request{
		Arch: "prime", Archs: []string{"neurocube", "edge"}, PEs: 32,
		Iterations: 500, Variant: "sparta", TimeoutMS: 250,
	}, g)
	plain := wire.AppendRequest(nil, &wire.Request{PEs: 16}, g)
	header := wire.AppendRequest(nil, &wire.Request{PEs: 16}, nil)
	frame := dag.AppendBinary(nil, g)
	with := func(frame []byte) []byte { return append(append([]byte(nil), header...), frame...) }
	// frame[4] is the name length, the name follows, then the node
	// count: re-spell that count as a padded two-byte varint.
	countAt := 4 + 1 + len(g.Name())
	padded := append([]byte(nil), frame[:countAt]...)
	padded = append(padded, frame[countAt]|0x80, 0x00)
	padded = append(padded, frame[countAt+1:]...)

	return []struct {
		name string
		body []byte
	}{
		{"every field set", full},
		{"defaults only", plain},
		{"empty body", nil},
		{"envelope only", header[:4]},
		{"header cut mid-field", header[:len(header)-1]},
		{"no graph", header},
		{"graph magic only", with(frame[:4])},
		{"graph cut mid-frame", with(frame[:len(frame)/2])},
		{"graph missing its last byte", with(frame[:len(frame)-1])},
		{"trailing byte after the graph", with(append(append([]byte(nil), frame...), 0))},
		{"two graphs", with(append(append([]byte(nil), frame...), frame...))},
		{"padded varint in the graph", with(padded)},
		{"graph over the vertex cap", wire.AppendRequest(nil, &wire.Request{PEs: 16}, graph(80, 170))},
		{"wrong frame kind", wire.AppendPeerFill(nil, "", pim.Neurocube(8), g)},
		{"plan frame as a request", wire.AppendPlanResponse(nil, &wire.PlanResponse{Scheme: "para-conv"})},
	}
}

// checkRequestSplit is the property: splitting a body and decoding the
// frame it yields accepts and rejects exactly as DecodeRequest does,
// with the same fields and the same graph; the frame is the body's own
// tail, not a copy; and an accepted frame hashes to what the decoded
// graph hashes to — the identity the server's hash-before-decode probe
// rests on.
func checkRequestSplit(t *testing.T, body []byte) {
	var whole, split wire.Request
	gWhole, errWhole := wire.DecodeRequest(body, &whole, splitLimits)

	frame, errSplit := wire.SplitRequest(body, &split)
	var gSplit *dag.Graph
	if errSplit == nil {
		if len(frame) == 0 || len(frame) > len(body) || &frame[len(frame)-1] != &body[len(body)-1] {
			t.Fatalf("frame (%d bytes) is not the tail of the %d-byte body", len(frame), len(body))
		}
		var graphErr error
		if gSplit, graphErr = dag.DecodeBinary(frame, splitLimits); graphErr != nil {
			var ge *wire.GraphError
			if !errors.As(errWhole, &ge) || ge.Err.Error() != graphErr.Error() {
				t.Fatalf("frame fails with %q, DecodeRequest with %v", graphErr, errWhole)
			}
			return
		}
	}
	if (errWhole == nil) != (errSplit == nil) {
		t.Fatalf("DecodeRequest: %v; SplitRequest + DecodeBinary: %v", errWhole, errSplit)
	}
	if errWhole != nil {
		if errWhole.Error() != errSplit.Error() {
			t.Fatalf("DecodeRequest: %v; SplitRequest: %v", errWhole, errSplit)
		}
		return
	}
	if !reflect.DeepEqual(whole, split) {
		t.Fatalf("fields differ:\nwhole %+v\nsplit %+v", whole, split)
	}
	if enc := dag.AppendBinary(nil, gWhole); !bytes.Equal(enc, frame) || !bytes.Equal(enc, dag.AppendBinary(nil, gSplit)) {
		t.Fatal("accepted frame is not the canonical encoding of the graph it decodes to")
	}
	if a, b := run.FrameFingerprint(frame), run.GraphFingerprint(gWhole); a != b {
		t.Fatalf("frame hashes to %s, its graph to %s", a, b)
	}
}

func TestRequestFrameSplitSeeds(t *testing.T) {
	for _, s := range splitSeeds(t) {
		t.Run(s.name, func(t *testing.T) { checkRequestSplit(t, s.body) })
	}
}

// FuzzRequestFrameSplit runs checkRequestSplit over arbitrary bodies,
// seeded with the named edge cases.
func FuzzRequestFrameSplit(f *testing.F) {
	for _, s := range splitSeeds(f) {
		f.Add(s.body)
	}
	f.Fuzz(checkRequestSplit)
}
