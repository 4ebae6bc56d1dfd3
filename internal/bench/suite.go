// Package bench defines the paper's benchmark suite and the experiment
// runners that regenerate every table and figure of the evaluation
// (§4): Table 1 (total execution time vs SPARTA), Table 2 (maximum
// retiming value), Figure 5 (per-iteration execution time) and
// Figure 6 (IPRs allocated to on-chip cache).
//
// The paper evaluates twelve applications whose task graphs were
// extracted from real deep-learning workloads (several from GoogLeNet
// ConvNet [16]) plus synthetic graphs with over 500 convolutions.
// Those traces were never published; what Table 1 does publish is each
// graph's exact vertex and edge count.  The suite below regenerates a
// deterministic layered task graph with exactly those counts for every
// benchmark (see internal/synth), seeded per benchmark so every run of
// the harness sees identical graphs.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/synth"
)

// Benchmark is one row of the paper's benchmark table.
type Benchmark struct {
	// Name is the paper's benchmark name.
	Name string
	// Vertices and Edges are the counts from Table 1.
	Vertices int
	Edges    int
	// Seed makes the regenerated graph deterministic.
	Seed int64
}

// Suite is the paper's twelve-benchmark suite with the exact vertex
// and edge counts of Table 1.
var Suite = []Benchmark{
	{Name: "cat", Vertices: 9, Edges: 21, Seed: 1009},
	{Name: "car", Vertices: 13, Edges: 28, Seed: 1013},
	{Name: "flower", Vertices: 21, Edges: 51, Seed: 1021},
	{Name: "character-1", Vertices: 46, Edges: 121, Seed: 1046},
	{Name: "character-2", Vertices: 52, Edges: 130, Seed: 1052},
	{Name: "image-compress", Vertices: 70, Edges: 178, Seed: 1070},
	{Name: "stock-predict", Vertices: 83, Edges: 218, Seed: 1083},
	{Name: "string-matching", Vertices: 102, Edges: 267, Seed: 1102},
	{Name: "shortest-path", Vertices: 191, Edges: 506, Seed: 1191},
	{Name: "speech-1", Vertices: 247, Edges: 652, Seed: 1247},
	{Name: "speech-2", Vertices: 369, Edges: 981, Seed: 1369},
	{Name: "protein", Vertices: 546, Edges: 1449, Seed: 1546},
}

// ByName returns the benchmark with the given name, or an error
// listing the valid names.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite {
		if b.Name == name {
			return b, nil
		}
	}
	names := make([]string, len(Suite))
	for i, b := range Suite {
		names[i] = b.Name
	}
	return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q; valid names: %v", name, names)
}

// graphMemo holds one sync.Once-guarded generation per distinct
// Benchmark value, so every experiment shares a single *dag.Graph per
// benchmark (the generator is deterministic, so callers observed the
// same content before; now they also share the pointer, which lets the
// given-schedule planner keep its pointer-identity check).  Graphs are
// immutable after generation; perturbation studies Clone first.
var graphMemo sync.Map // Benchmark -> *graphOnce

type graphOnce struct {
	once sync.Once
	g    *dag.Graph
	err  error
}

// graphGenerations counts actual generator invocations — a regression
// guard that memoization is working (see GraphGenerations).
var graphGenerations atomic.Int64

// GraphGenerations returns how many times a benchmark graph has been
// synthesized since process start.  With memoization this is bounded
// by the number of distinct Benchmark values ever asked for, no matter
// how many experiments run.
func GraphGenerations() int64 { return graphGenerations.Load() }

// Graph returns the benchmark's task graph, generating it on first
// use and returning the same memoized *dag.Graph on every later call.
func (b Benchmark) Graph() (*dag.Graph, error) {
	v, _ := graphMemo.LoadOrStore(b, &graphOnce{})
	m := v.(*graphOnce)
	m.once.Do(func() {
		graphGenerations.Add(1)
		g, err := synth.Generate(synth.Params{
			Name:     b.Name,
			Vertices: b.Vertices,
			Edges:    b.Edges,
			Seed:     b.Seed,
		})
		if err != nil {
			m.err = fmt.Errorf("bench: regenerating %q: %w", b.Name, err)
			return
		}
		m.g = g
	})
	return m.g, m.err
}

// PECounts is the PE sweep of the paper's evaluation.
var PECounts = []int{16, 32, 64}

// Iterations is the steady-state run length used when reporting total
// execution times (the paper does not publish its value; 100 keeps
// prologue visible without letting it vanish in the noise).
const Iterations = 100
