package synth_test

import (
	"testing"

	"repro/internal/synth"
)

// FuzzSynthGenerate drives the generator with arbitrary parameter
// triples.  Whenever Generate accepts the parameters, its output must
// be a valid DAG (per Graph.Validate) with exactly the requested
// vertex and edge counts; whenever it rejects them, it must do so with
// an error, never a panic.
func FuzzSynthGenerate(f *testing.F) {
	f.Add(10, 20, int64(1))
	f.Add(1, 0, int64(0))
	f.Add(30, 75, int64(42))
	f.Add(100, 260, int64(3))
	f.Add(2, 1, int64(-7))
	f.Fuzz(func(t *testing.T, vertices, edges int, seed int64) {
		// Keep the search space tractable: the generator's cost grows
		// with the counts, and huge values only test the validator.
		if vertices < 0 || vertices > 300 || edges < 0 || edges > 3000 {
			t.Skip()
		}
		g, err := synth.Generate(synth.Params{
			Name:     "fuzz",
			Vertices: vertices,
			Edges:    edges,
			Seed:     seed,
		})
		if err != nil {
			return // rejected parameters are fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Generate(%d,%d,%d) produced invalid graph: %v", vertices, edges, seed, err)
		}
		if g.NumNodes() != vertices || g.NumEdges() != edges {
			t.Fatalf("Generate(%d,%d,%d) produced |V|=%d |E|=%d; want exact counts",
				vertices, edges, seed, g.NumNodes(), g.NumEdges())
		}
	})
}
