package wire

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/synth"
)

// fillFuzzLimits are the graph caps an owner decodes a fill's graph
// under: small enough that the seed table crosses them.
var fillFuzzLimits = dag.Limits{MaxNodes: 64, MaxEdges: 256}

// fillSeed is one named fill body; valid marks the bodies an owner
// accepts whole, header and graph.
type fillSeed struct {
	name  string
	body  []byte
	valid bool
}

// fillSeeds is the named edge-case table behind both the unit test and
// the fuzz corpus: fill bodies with every config shape the header must
// carry bit for bit, and every way one can arrive cut, padded, lying
// or of another kind.
func fillSeeds(tb testing.TB) []fillSeed {
	tb.Helper()
	graph := func(vertices, edges int) *dag.Graph {
		g, err := synth.Generate(synth.Params{Name: "fill", Vertices: vertices, Edges: edges, Seed: 23})
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	g := graph(12, 26)
	cfg := pim.Neurocube(32)
	full := AppendPeerFill(nil, "para-conv", cfg, g)
	header := AppendPeerFill(nil, "para-conv", cfg, nil)
	frame := dag.AppendBinary(nil, g)
	with := func(frame []byte) []byte { return append(append([]byte(nil), header...), frame...) }
	odd := cfg
	odd.Name, odd.NumPEs, odd.HopCycles = "", -5, 1<<40
	odd.CacheEnergyPJPerByte, odd.EDRAMEnergyPJPerByte = math.NaN(), math.Inf(-1)
	// The PE count follows the variant and the config name: re-spell it
	// as a padded two-byte varint.
	pesAt := 4 + 1 + len("para-conv") + 1 + len(cfg.Name)
	padded := append(append(header[:pesAt:pesAt], header[pesAt]|0x80, 0x00), header[pesAt+1:]...)
	// The variant's length, re-spelt as 16383: past the end of the body.
	lying := append(append(full[:4:4], 0xff, 0x7f), full[5:]...)

	return []fillSeed{
		{"every field set", full, true},
		{"baseline variant, one PE", AppendPeerFill(nil, "sparta", pim.Neurocube(1), g), true},
		{"empty strings, NaN and -Inf energies", AppendPeerFill(nil, "", odd, g), true},
		{"zero config", AppendPeerFill(nil, "naive", pim.Config{}, g), true},
		{"empty", nil, false},
		{"envelope only", header[:4], false},
		{"header cut inside a float", header[:len(header)-5], false},
		{"no graph", header, false},
		{"graph magic only", with(frame[:4]), false},
		{"graph cut mid-frame", with(frame[:len(frame)/2]), false},
		{"graph missing its last byte", with(frame[:len(frame)-1]), false},
		{"trailing byte after the graph", with(append(append([]byte(nil), frame...), 0)), false},
		{"padded PE count", append(padded, frame...), false},
		{"variant longer than the body", lying, false},
		{"graph over the vertex cap", AppendPeerFill(nil, "para-conv", cfg, graph(80, 170)), false},
		{"request frame as a fill", AppendRequest(nil, &Request{PEs: 32}, g), false},
		{"plan frame as a fill", AppendPlanResponse(nil, &PlanResponse{Scheme: "para-conv"}), false},
	}
}

// checkPeerFill is the property: an owner's read of a fill body (split,
// then decode the graph) never panics and allocates at most linearly in
// the body's length; an accepted split returns the body's own tail, and
// the header it parsed re-encodes to exactly the bytes before it; an
// accepted body is the one encoding of the fill it decodes to.
func checkPeerFill(t *testing.T, body []byte) (valid bool) {
	var (
		pf       *PeerFill
		frame    []byte
		g        *dag.Graph
		errSplit error
		errGraph error
	)
	spent := allocated(func() {
		if pf, frame, errSplit = SplitPeerFill(body); errSplit == nil {
			g, errGraph = DecodeGraph(frame, fillFuzzLimits)
		}
	})
	if bound := uint64(256*len(body) + 1<<16); !raceEnabled && spent > bound {
		t.Fatalf("reading a %d-byte fill allocated %d bytes; bound %d", len(body), spent, bound)
	}
	if errSplit != nil {
		return false
	}
	if len(frame) == 0 || &frame[len(frame)-1] != &body[len(body)-1] {
		t.Fatalf("frame (%d bytes) is not the tail of the %d-byte body", len(frame), len(body))
	}
	head := AppendPeerFill(nil, pf.Variant, pf.Config, nil)
	if !bytes.Equal(append(head, frame...), body) {
		t.Fatalf("split header re-encodes to % x, the body starts % x", head, body[:len(body)-len(frame)])
	}
	if errGraph != nil {
		return false
	}
	if enc := AppendPeerFill(nil, pf.Variant, pf.Config, g); !bytes.Equal(enc, body) {
		t.Fatal("accepted fill is not the canonical encoding of what it decodes to")
	}
	return true
}

func TestPeerFillSeeds(t *testing.T) {
	for _, s := range fillSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			if valid := checkPeerFill(t, s.body); valid != s.valid {
				t.Errorf("accepted = %v, want %v", valid, s.valid)
			}
		})
	}
}

// FuzzSplitPeerFill runs checkPeerFill over arbitrary bodies, seeded
// with the named edge cases.
func FuzzSplitPeerFill(f *testing.F) {
	for _, s := range fillSeeds(f) {
		f.Add(s.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkPeerFill(t, body) })
}
