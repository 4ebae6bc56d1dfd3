package wire

import (
	"errors"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/synth"
)

func peerFillGraph(t *testing.T) *dag.Graph {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: "peerfill", Vertices: 24, Edges: 50, Seed: 11})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return g
}

// decodePeerFill is the owner's whole read of a fill frame: split off
// the header, then decode the trailing graph under lim.
func decodePeerFill(data []byte, lim dag.Limits) (*PeerFill, *dag.Graph, error) {
	pf, frame, err := SplitPeerFill(data)
	if err != nil {
		return nil, nil, err
	}
	g, err := DecodeGraph(frame, lim)
	return pf, g, err
}

func TestPeerFillRoundTrip(t *testing.T) {
	g := peerFillGraph(t)
	cfg := pim.Neurocube(32)
	frame := AppendPeerFill(nil, "para-conv", cfg, g)

	pf, got, err := decodePeerFill(frame, dag.Limits{})
	if err != nil {
		t.Fatalf("SplitPeerFill + DecodeGraph: %v", err)
	}
	if pf.Variant != "para-conv" {
		t.Errorf("Variant = %q, want para-conv", pf.Variant)
	}
	if pf.Config != cfg {
		// pim.Config is a flat comparable struct, so equality here
		// proves every field survived — which is what keeps the owner's
		// config fingerprint byte-identical to the requester's.
		t.Errorf("Config = %+v, want %+v", pf.Config, cfg)
	}
	if !equalGraphBytes(g, got) {
		t.Error("graph did not round-trip")
	}
}

func equalGraphBytes(a, b *dag.Graph) bool {
	return string(dag.AppendBinary(nil, a)) == string(dag.AppendBinary(nil, b))
}

func TestPeerFillMissingGraph(t *testing.T) {
	frame := AppendPeerFill(nil, "para-conv", pim.Neurocube(8), nil)
	if _, _, err := decodePeerFill(frame, dag.Limits{}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("err = %v, want ErrNoGraph", err)
	}
}

func TestPeerFillGraphLimit(t *testing.T) {
	frame := AppendPeerFill(nil, "para-conv", pim.Neurocube(8), peerFillGraph(t))
	_, _, err := decodePeerFill(frame, dag.Limits{MaxNodes: 3})
	var lim *dag.LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *dag.LimitError", err)
	}
}

// TestPeerFillTruncation decodes every prefix of a valid frame; all
// must fail cleanly, none may panic.
func TestPeerFillTruncation(t *testing.T) {
	frame := AppendPeerFill(nil, "para-conv", pim.Neurocube(8), peerFillGraph(t))
	for n := 0; n < len(frame); n++ {
		if _, _, err := decodePeerFill(frame[:n], dag.Limits{}); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded without error", n, len(frame))
		}
	}
}

func TestPeerFillWrongKind(t *testing.T) {
	p := testPlan(t)
	if _, _, err := decodePeerFill(AppendPlan(nil, p), dag.Limits{}); err == nil {
		t.Fatal("stored-plan frame decoded as a peer fill")
	}
}
