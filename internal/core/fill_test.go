package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
	"repro/internal/synth"
)

// fullSortOptimize is the allocation with the zero-ΔR back-fill as it
// was before the fill filtered its candidates: every zero-ΔR IPR sorted
// by traffic (descending), footprint, then edge ID, each placed while
// it fits.  OptimizeInto must agree with it on every field.  slack is
// the capacity the DP left for the fill.
func fullSortOptimize(t *testing.T, g *dag.Graph, classes []retime.EdgeClass, tm retime.Timing, capacity int) (alloc core.Allocation, slack int) {
	t.Helper()
	items, err := core.BuildItems(g, classes, tm)
	if err != nil {
		t.Fatal(err)
	}
	chosen := make([]bool, len(items))
	profit, err := core.KnapsackInto(context.Background(), chosen, items, capacity)
	if err != nil {
		t.Fatal(err)
	}
	alloc = core.Allocation{
		Assignment:  make(retime.Assignment, g.NumEdges()),
		Profit:      profit,
		Competitors: len(items),
	}
	for i := range alloc.Assignment {
		alloc.Assignment[i] = pim.InEDRAM
	}
	for i, it := range items {
		if chosen[i] {
			alloc.Assignment[it.Edge] = pim.InCache
			alloc.CacheUsed += it.Size
			alloc.CachedCount++
		}
	}
	traffic := func(e *dag.Edge) int64 {
		if e.Bytes > 0 {
			return e.Bytes
		}
		return int64(e.Size)
	}
	var zero []dag.EdgeID
	for _, c := range classes {
		if c.DeltaR() <= 0 {
			zero = append(zero, c.Edge)
		}
	}
	slices.SortFunc(zero, func(a, b dag.EdgeID) int {
		ea, eb := g.Edge(a), g.Edge(b)
		if ta, tb := traffic(ea), traffic(eb); ta != tb {
			if ta > tb {
				return -1
			}
			return 1
		}
		if ea.Size != eb.Size {
			return ea.Size - eb.Size
		}
		return int(a - b)
	})
	slack = capacity - alloc.CacheUsed
	left := slack
	for _, id := range zero {
		if size := g.Edge(id).Size; size <= left {
			alloc.Assignment[id] = pim.InCache
			alloc.CacheUsed += size
			alloc.CachedCount++
			left -= size
		}
	}
	return alloc, slack
}

// TestFillZeroDeltaMatchesFullSort sweeps a seeded table of graphs and
// capacities through OptimizeInto and the unfiltered reference.  The
// sweep must cover the fill's three regimes — no slack after the DP,
// slack between the smallest and largest zero-ΔR footprint, and room
// for everything — with edge traffic both recorded (Bytes set,
// independent of footprint) and dropped by the wire codec (Bytes = 0).
func TestFillZeroDeltaMatchesFullSort(t *testing.T) {
	var dst core.Allocation // reused across cases, as the scheduler's pool reuses it
	seen := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		g, err := synth.Generate(synth.Params{Vertices: 20 + int(seed)*4, Edges: 40 + int(seed)*10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Footprints spread over 1..16 units (synth draws only 1 or 2), so
		// some slack is larger than one zero-ΔR IPR and smaller than
		// another; traffic is drawn independently of the footprint.
		rng := rand.New(rand.NewSource(seed))
		for i := range g.Edges() {
			g.Edges()[i].Size = 1 + rng.Intn(16)
			g.Edges()[i].Bytes = 1 + rng.Int63n(1<<20)
		}
		decoded, err := dag.DecodeBinary(dag.AppendBinary(nil, g), dag.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []struct {
			name string
			g    *dag.Graph
		}{{"bytes-set", g}, {"wire-decoded", decoded}} {
			iter, err := sched.Objective(variant.g, 2+int(seed)%5)
			if err != nil {
				t.Fatal(err)
			}
			tm := iter.Timing()
			classes, err := retime.Classify(variant.g, tm)
			if err != nil {
				t.Fatal(err)
			}
			total, minZero, maxZero := 0, -1, 0
			for _, c := range classes {
				size := variant.g.Edge(c.Edge).Size
				total += size
				if c.DeltaR() <= 0 {
					if minZero < 0 || size < minZero {
						minZero = size
					}
					maxZero = max(maxZero, size)
				}
			}
			var capacities []int
			for c := 0; c < total; c += 1 + total/40 {
				capacities = append(capacities, c)
			}
			for _, capacity := range append(capacities, total, total+7) {
				name := fmt.Sprintf("seed%d/%s/cap%d", seed, variant.name, capacity)
				want, slack := fullSortOptimize(t, variant.g, classes, tm, capacity)
				if err := core.OptimizeInto(context.Background(), &dst, variant.g, classes, tm, capacity); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(dst.Assignment, want.Assignment) || dst.Profit != want.Profit ||
					dst.CacheUsed != want.CacheUsed || dst.CachedCount != want.CachedCount || dst.Competitors != want.Competitors {
					t.Fatalf("%s: OptimizeInto = %+v, the full-sort fill gives %+v", name, dst, want)
				}
				switch {
				case capacity >= total:
					seen[variant.name+"/everything fits"]++
				case slack == 0 && minZero >= 0:
					seen[variant.name+"/zero slack"]++
				case slack > minZero && slack < maxZero:
					seen[variant.name+"/slack between sizes"]++
				}
			}
		}
	}
	for _, regime := range []string{"zero slack", "slack between sizes", "everything fits"} {
		for _, variant := range []string{"bytes-set", "wire-decoded"} {
			if seen[variant+"/"+regime] == 0 {
				t.Errorf("the sweep never reached %q with %s graphs: %v", regime, variant, seen)
			}
		}
	}
}
