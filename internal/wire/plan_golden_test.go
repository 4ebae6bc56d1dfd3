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
// hashes each (planner, PE count) row's frames in graph order: full=
// over the self-contained stored-plan frames, which carry every field
// of the plan and so pin the plans themselves, and lean= over the
// at-rest frames, which pin that frame's layout.  A row records the
// concurrent-iteration counts its plans used.
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
			full, lean := sha256.New(), sha256.New()
			var cis []int
			var frame []byte
			for _, g := range graphs {
				p, err := pl.plan(context.Background(), g, pim.Neurocube(pes))
				if err != nil {
					t.Fatalf("%s on %d PEs, %s: %v", pl.name, pes, g.Name(), err)
				}
				frame = wire.AppendPlan(frame[:0], p)
				full.Write(frame)
				frame = wire.AppendLeanPlan(frame[:0], p)
				lean.Write(frame)
				if !slices.Contains(cis, p.ConcurrentIterations) {
					cis = append(cis, p.ConcurrentIterations)
				}
				seenCI[p.ConcurrentIterations] = true
			}
			slices.Sort(cis)
			fmt.Fprintf(&out, "%s pes=%d plans=%d ci=%s full=%x lean=%x\n", pl.name, pes, len(graphs),
				strings.Trim(strings.Join(strings.Fields(fmt.Sprint(cis)), ","), "[]"), full.Sum(nil), lean.Sum(nil))
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

// TestLeanFrameRebuildsEveryPlan: for every golden graph, PE count
// and planner, baselines included, the lean frame decodes to the
// plan the solver built, in every field — the decoder and the solver
// assemble plans by the same lines.
func TestLeanFrameRebuildsEveryPlan(t *testing.T) {
	graphs := goldenGraphs(t)
	for _, pl := range []struct {
		name string
		plan func(context.Context, *dag.Graph, pim.Config) (*sched.Plan, error)
	}{
		{"para-conv", sched.ParaCONVCtx},
		{"para-conv-single", sched.ParaCONVSingleCtx},
		{"para-conv-given", givenObjective},
		{"sparta", sched.SPARTACtx},
		{"naive", sched.NaiveCtx},
	} {
		for _, pes := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} {
			for _, g := range graphs {
				p, err := pl.plan(context.Background(), g, pim.Neurocube(pes))
				if err != nil {
					t.Fatalf("%s on %d PEs, %s: %v", pl.name, pes, g.Name(), err)
				}
				got, err := wire.DecodeLeanPlan(wire.AppendLeanPlan(nil, p), g)
				if err != nil {
					t.Fatalf("%s on %d PEs, %s: %v", pl.name, pes, g.Name(), err)
				}
				wire.PlansEqual(t, p, got)
				if t.Failed() {
					t.Fatalf("%s on %d PEs, %s: decoded plan differs from the solved one", pl.name, pes, g.Name())
				}
			}
		}
	}
}

// TestSolverEpochPinsPlanGolden ties sched.SolverEpoch to the plans in
// the golden: the pair (epoch, sha256 of plan_hashes.golden with every
// lean= column dropped) is pinned, so rewriting the plans with -update
// without bumping the epoch fails here.  An intended plan change bumps
// the epoch and re-pins both; a frame from the old epoch is then a
// miss, never a plan this build would not produce.  The lean= column
// pins a frame layout, not a plan: a layout change re-keys its frame
// kind instead, which retires old frames without an epoch bump.
func TestSolverEpochPinsPlanGolden(t *testing.T) {
	const (
		pinnedEpoch  = 1
		pinnedGolden = "752d0b795bfb3a9bdc8c22287cc6a9c01dab2e6cd6466484770dee998ba846dc"
	)
	data, err := os.ReadFile(filepath.Join("testdata", "plan_hashes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var plans strings.Builder
	for _, row := range strings.SplitAfter(string(data), "\n") {
		if i := strings.Index(row, " lean="); i >= 0 {
			row = row[:i] + "\n"
		}
		plans.WriteString(row)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(plans.String()))); sched.SolverEpoch != pinnedEpoch || got != pinnedGolden {
		t.Errorf("(SolverEpoch, sha256 of the golden's plan columns) = (%d, %s), pinned (%d, %s): a plan change bumps sched.SolverEpoch and re-pins both",
			sched.SolverEpoch, got, pinnedEpoch, pinnedGolden)
	}
}
