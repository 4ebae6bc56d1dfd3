package wire_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/wire"
)

// Plan bytes are pinned by a golden of hashes, so a solver change that
// claims to move no plan proves it by passing.  Regenerate an intended
// change with `go test ./internal/wire -run TestPlanBytesGolden -update`
// — and bump sched.SolverEpoch with it.
var update = flag.Bool("update", false, "rewrite testdata/plan_hashes.golden from this build")

// goldenGraphs are the seeded problems behind the golden: shallow
// (wide) to deep (chain-like) layerings, so the group search lands on
// every concurrent-iteration count from 1 to 64 across the PE counts.
func goldenGraphs(t *testing.T) []*dag.Graph {
	t.Helper()
	var graphs []*dag.Graph
	for seed := int64(1); seed <= 48; seed++ {
		v := 8 + int(seed%6)*10
		layers := []int{2, 4, 0, v / 2, v}[seed%5]
		g, err := synth.Generate(synth.Params{
			Name: fmt.Sprintf("golden-%d", seed), Vertices: v, Edges: v + v/2, Seed: seed,
			Layers: layers, MaxSize: 1 + int(seed%4), MaxExec: 2 + int(seed%7),
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// givenObjective is ParaCONVGivenScheduleCtx against the graph's own
// objective schedule on all pes PEs — the allocation stage without the
// group search.
func givenObjective(ctx context.Context, g *dag.Graph, cfg pim.Config) (*sched.Plan, error) {
	iter, err := sched.Objective(g, cfg.NumPEs)
	if err != nil {
		return nil, err
	}
	return sched.ParaCONVGivenScheduleCtx(ctx, g, iter, cfg)
}

// TestPlanBytesGolden plans every golden graph on every PE count with
// both Para-CONV planners and the given-schedule allocation stage, and
// hashes each (planner, PE count) row's stored and lean plan frames in
// graph order.  A row records the concurrent-iteration counts its
// plans used.
func TestPlanBytesGolden(t *testing.T) {
	graphs := goldenGraphs(t)
	planners := []struct {
		name string
		plan func(context.Context, *dag.Graph, pim.Config) (*sched.Plan, error)
	}{
		{"para-conv", sched.ParaCONVCtx},
		{"para-conv-single", sched.ParaCONVSingleCtx},
		{"para-conv-given", givenObjective},
	}
	var out strings.Builder
	seenCI := map[int]bool{}
	for _, pl := range planners {
		for _, pes := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} {
			h := sha256.New()
			var cis []int
			var frame []byte
			for _, g := range graphs {
				p, err := pl.plan(context.Background(), g, pim.Neurocube(pes))
				if err != nil {
					t.Fatalf("%s on %d PEs, %s: %v", pl.name, pes, g.Name(), err)
				}
				frame = wire.AppendPlan(frame[:0], p)
				h.Write(frame)
				frame = wire.AppendLeanPlan(frame[:0], p)
				h.Write(frame)
				if !slices.Contains(cis, p.ConcurrentIterations) {
					cis = append(cis, p.ConcurrentIterations)
				}
				seenCI[p.ConcurrentIterations] = true
			}
			slices.Sort(cis)
			fmt.Fprintf(&out, "%s pes=%d plans=%d ci=%s sha256=%x\n", pl.name, pes, len(graphs),
				strings.Trim(strings.Join(strings.Fields(fmt.Sprint(cis)), ","), "[]"), h.Sum(nil))
		}
	}
	for _, ci := range []int{1, 64} {
		if !seenCI[ci] {
			t.Errorf("no golden plan runs %d concurrent iterations; the table no longer spans 1..64", ci)
		}
	}

	path := filepath.Join("testdata", "plan_hashes.golden")
	got := []byte(out.String())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this build's plans (rerun with -update, and bump sched.SolverEpoch, if the change is intended):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestSolverEpochPinsPlanGolden ties sched.SolverEpoch to the plan
// golden: the pair (epoch, sha256 of plan_hashes.golden) is pinned, so
// rewriting the golden with -update without bumping the epoch fails
// here.  An intended plan change bumps the epoch and re-pins both; a
// frame from the old epoch is then a miss, never a plan this build
// would not produce.
func TestSolverEpochPinsPlanGolden(t *testing.T) {
	const (
		pinnedEpoch  = 1
		pinnedGolden = "519dde2ed3fbbbcac92cd8c6ba5c5b5c676018b2a4c988f78a154a8542294401"
	)
	data, err := os.ReadFile(filepath.Join("testdata", "plan_hashes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); sched.SolverEpoch != pinnedEpoch || got != pinnedGolden {
		t.Errorf("(SolverEpoch, golden sha256) = (%d, %s), pinned (%d, %s): a plan change bumps sched.SolverEpoch and re-pins both",
			sched.SolverEpoch, got, pinnedEpoch, pinnedGolden)
	}
}
