// Package synth generates synthetic CNN-like task graphs.
//
// The paper's evaluation (§4.1) mixes graphs derived from real CNN
// applications with "synthetic task graphs ... generated by running
// several CNN applications", scaling up to more than 500 convolutions.
// Those traces are not published; this package provides the faithful
// substitute: a seeded, deterministic layered-DAG generator that
// produces graphs with exactly a requested number of vertices and
// edges, with the layered fan-in/fan-out structure convolutional
// networks exhibit, plus a series-parallel generator for
// inception-style topologies.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dag"
)

// Params parameterizes Generate.
type Params struct {
	// Name labels the generated graph.
	Name string
	// Vertices and Edges are exact target counts.  Edges must be
	// feasible: at least enough to give every non-source vertex a
	// predecessor, at most the number of distinct forward pairs.
	Vertices int
	Edges    int
	// Seed makes generation deterministic.
	Seed int64
	// Layers is the number of pipeline levels; 0 derives
	// round(sqrt(Vertices)) + 1, the aspect ratio typical of the
	// paper's CNN benchmarks.
	Layers int
	// MinExec and MaxExec bound vertex execution times; zero values
	// default to [1,4].
	MinExec, MaxExec int
	// MinSize and MaxSize bound IPR cache footprints; zero values
	// default to [1,2].
	MinSize, MaxSize int
	// MinEDRAMExtra and MaxEDRAMExtra bound the extra time units an
	// eDRAM placement costs over cache; zero values default to [2,4],
	// reflecting the paper's premise that vault fetches (2x-10x a
	// cache access) rival convolution execution times.
	MinEDRAMExtra, MaxEDRAMExtra int
	// PoolFraction is the fraction of vertices marked as pooling
	// operations (the rest are convolutions); the paper notes
	// convolutions dominate (~90% of CNN operations).  Zero defaults
	// to 0.1.
	PoolFraction float64
}

func (p Params) withDefaults() Params {
	if p.Layers == 0 {
		p.Layers = int(math.Round(math.Sqrt(float64(p.Vertices)))) + 1
	}
	if p.MinExec == 0 {
		p.MinExec = 1
	}
	if p.MaxExec == 0 {
		p.MaxExec = 4
	}
	if p.MinSize == 0 {
		p.MinSize = 1
	}
	if p.MaxSize == 0 {
		p.MaxSize = 2
	}
	if p.MinEDRAMExtra == 0 {
		p.MinEDRAMExtra = 2
	}
	if p.MaxEDRAMExtra == 0 {
		p.MaxEDRAMExtra = 4
	}
	if p.PoolFraction == 0 {
		p.PoolFraction = 0.1
	}
	return p
}

func (p Params) validate() error {
	if p.Vertices < 1 {
		return fmt.Errorf("synth: Vertices = %d; want >= 1", p.Vertices)
	}
	if p.Layers < 1 || p.Layers > p.Vertices {
		return fmt.Errorf("synth: Layers = %d; want in [1, %d]", p.Layers, p.Vertices)
	}
	if p.MinExec < 1 || p.MaxExec < p.MinExec {
		return fmt.Errorf("synth: exec bounds [%d,%d] invalid", p.MinExec, p.MaxExec)
	}
	if p.MinSize < 1 || p.MaxSize < p.MinSize {
		return fmt.Errorf("synth: size bounds [%d,%d] invalid", p.MinSize, p.MaxSize)
	}
	if p.MinEDRAMExtra < 1 || p.MaxEDRAMExtra < p.MinEDRAMExtra {
		return fmt.Errorf("synth: eDRAM extra bounds [%d,%d] invalid", p.MinEDRAMExtra, p.MaxEDRAMExtra)
	}
	if p.PoolFraction < 0 || p.PoolFraction > 1 {
		return fmt.Errorf("synth: PoolFraction = %g; want in [0,1]", p.PoolFraction)
	}
	return nil
}

// Generate builds a layered DAG with exactly p.Vertices vertices and
// p.Edges edges.  Every vertex beyond the first layer receives at
// least one predecessor in an earlier layer (so the graph has the
// dataflow depth of a real CNN), and all additional edges point
// forward across layers, guaranteeing acyclicity by construction.
func Generate(p Params) (*dag.Graph, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Assign vertices to layers: one guaranteed per layer, the rest
	// multinomially with a bias toward middle layers (CNNs widen then
	// narrow).
	layerOf := make([]int, p.Vertices)
	layerPop := make([]int, p.Layers)
	for l := 0; l < p.Layers; l++ {
		layerPop[l] = 1
	}
	for v := p.Layers; v < p.Vertices; v++ {
		l := biasedLayer(rng, p.Layers)
		layerPop[l]++
	}
	// Materialize: vertex IDs ascend with layer so that all edges are
	// strictly forward in ID order too (convenient for debugging).
	v := 0
	layerStart := make([]int, p.Layers+1)
	for l := 0; l < p.Layers; l++ {
		layerStart[l] = v
		for k := 0; k < layerPop[l]; k++ {
			layerOf[v] = l
			v++
		}
	}
	layerStart[p.Layers] = v

	// Feasibility of the edge budget.
	minEdges := p.Vertices - layerPop[0]
	maxEdges := 0
	for a := 0; a < p.Vertices; a++ {
		// Forward pairs: every vertex in a strictly later layer.
		maxEdges += p.Vertices - layerStart[layerOf[a]+1]
	}
	if p.Edges < minEdges || p.Edges > maxEdges {
		return nil, fmt.Errorf("synth: Edges = %d infeasible for %d vertices in %d layers; want in [%d, %d]",
			p.Edges, p.Vertices, p.Layers, minEdges, maxEdges)
	}

	g := dag.New(p.Name)
	for i := 0; i < p.Vertices; i++ {
		kind := dag.OpConv
		if rng.Float64() < p.PoolFraction {
			kind = dag.OpPool
		}
		g.AddNode(dag.Node{
			Name: fmt.Sprintf("t%d", i),
			Kind: kind,
			Exec: p.MinExec + rng.Intn(p.MaxExec-p.MinExec+1),
		})
	}

	addEdge := func(a, b int) {
		size := p.MinSize + rng.Intn(p.MaxSize-p.MinSize+1)
		g.AddEdge(dag.Edge{
			From:      dag.NodeID(a),
			To:        dag.NodeID(b),
			Size:      size,
			CacheTime: 0,
			EDRAMTime: p.MinEDRAMExtra + rng.Intn(p.MaxEDRAMExtra-p.MinEDRAMExtra+1),
			Bytes:     int64(size) * 4096,
		})
	}

	used := make(map[[2]int]bool, p.Edges)
	// Spine: every vertex beyond layer 0 gets a predecessor from the
	// immediately preceding layer, preserving the layer decomposition
	// as the ASAP level structure.
	for b := layerStart[1]; b < p.Vertices; b++ {
		l := layerOf[b]
		a := layerStart[l-1] + rng.Intn(layerPop[l-1])
		used[[2]int{a, b}] = true
		addEdge(a, b)
	}
	// Fill the remaining budget with random forward edges.
	remaining := p.Edges - (p.Vertices - layerPop[0])
	attempts := 0
	for remaining > 0 {
		a := rng.Intn(p.Vertices)
		nextStart := layerStart[layerOf[a]+1]
		if nextStart >= p.Vertices {
			continue // last layer: no forward target
		}
		b := nextStart + rng.Intn(p.Vertices-nextStart)
		key := [2]int{a, b}
		attempts++
		if used[key] {
			if attempts > 50*p.Edges {
				// Rejection sampling is starving; fall back to a
				// deterministic scan for any free forward pair.
				a, b, ok := firstFreePair(p.Vertices, layerStart, layerOf, used)
				if !ok {
					return nil, fmt.Errorf("synth: internal error: edge budget %d certified feasible but no free pair", p.Edges)
				}
				used[[2]int{a, b}] = true
				addEdge(a, b)
				remaining--
			}
			continue
		}
		used[key] = true
		addEdge(a, b)
		remaining--
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated graph invalid: %w", err)
	}
	return g, nil
}

// biasedLayer samples a layer index with a triangular bias toward the
// middle of the network.
func biasedLayer(rng *rand.Rand, layers int) int {
	a, b := rng.Intn(layers), rng.Intn(layers)
	mid := layers / 2
	da, db := abs(a-mid), abs(b-mid)
	if da <= db {
		return a
	}
	return b
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func firstFreePair(vertices int, layerStart, layerOf []int, used map[[2]int]bool) (int, int, bool) {
	for a := 0; a < vertices; a++ {
		for b := layerStart[layerOf[a]+1]; b < vertices; b++ {
			if !used[[2]int{a, b}] {
				return a, b, true
			}
		}
	}
	return 0, 0, false
}
