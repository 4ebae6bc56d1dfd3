package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/synth"
)

// testPlan solves a small synthetic graph so the fixture exercises the
// real field population (retiming vectors, assignments, prologue).
func testPlan(t *testing.T) *sched.Plan {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: "wireplan", Vertices: 40, Edges: 90, Seed: 7})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	p, err := sched.ParaCONVCtx(context.Background(), g, pim.Neurocube(8))
	if err != nil {
		t.Fatalf("ParaCONV: %v", err)
	}
	return p
}

func graphBytes(t *testing.T, g *dag.Graph) []byte {
	t.Helper()
	if g == nil {
		return nil
	}
	return dag.AppendBinary(nil, g)
}

// PlansEqual is plansEqual for the package's external tests.
var PlansEqual = plansEqual

func plansEqual(t *testing.T, want, got *sched.Plan) {
	t.Helper()
	if want.Scheme != got.Scheme {
		t.Errorf("Scheme = %q, want %q", got.Scheme, want.Scheme)
	}
	if !bytes.Equal(graphBytes(t, want.Iter.Graph), graphBytes(t, got.Iter.Graph)) {
		t.Error("kernel graph did not round-trip")
	}
	if want.Iter.PEs != got.Iter.PEs || want.Iter.Period != got.Iter.Period {
		t.Errorf("Iter PEs/Period = %d/%d, want %d/%d", got.Iter.PEs, got.Iter.Period, want.Iter.PEs, want.Iter.Period)
	}
	if len(want.Iter.Tasks) != len(got.Iter.Tasks) {
		t.Fatalf("%d tasks, want %d", len(got.Iter.Tasks), len(want.Iter.Tasks))
	}
	for i := range want.Iter.Tasks {
		if want.Iter.Tasks[i] != got.Iter.Tasks[i] {
			t.Errorf("task %d = %+v, want %+v", i, got.Iter.Tasks[i], want.Iter.Tasks[i])
		}
	}
	if len(want.Iter.Assignment) != len(got.Iter.Assignment) {
		t.Fatalf("%d assignments, want %d", len(got.Iter.Assignment), len(want.Iter.Assignment))
	}
	for i := range want.Iter.Assignment {
		if want.Iter.Assignment[i] != got.Iter.Assignment[i] {
			t.Errorf("assignment %d = %v, want %v", i, got.Iter.Assignment[i], want.Iter.Assignment[i])
		}
	}
	if want.ConcurrentIterations != got.ConcurrentIterations || want.RMax != got.RMax ||
		want.CachedIPRs != got.CachedIPRs || want.CacheLoadUnits != got.CacheLoadUnits {
		t.Errorf("plan scalars = %d/%d/%d/%d, want %d/%d/%d/%d",
			got.ConcurrentIterations, got.RMax, got.CachedIPRs, got.CacheLoadUnits,
			want.ConcurrentIterations, want.RMax, want.CachedIPRs, want.CacheLoadUnits)
	}
	for _, r := range []struct {
		name       string
		want, got  []int
		wantScalar [2]int
		gotScalar  [2]int
	}{
		{"Retiming.R", want.Retiming.R, got.Retiming.R,
			[2]int{want.Retiming.RMax, want.Retiming.Period}, [2]int{got.Retiming.RMax, got.Retiming.Period}},
		{"Retiming.REdge", want.Retiming.REdge, got.Retiming.REdge, [2]int{}, [2]int{}},
		{"LogicalRetiming.R", want.LogicalRetiming.R, got.LogicalRetiming.R,
			[2]int{want.LogicalRetiming.RMax, want.LogicalRetiming.Period}, [2]int{got.LogicalRetiming.RMax, got.LogicalRetiming.Period}},
		{"LogicalRetiming.REdge", want.LogicalRetiming.REdge, got.LogicalRetiming.REdge, [2]int{}, [2]int{}},
	} {
		if len(r.want) != len(r.got) {
			t.Errorf("%s has %d entries, want %d", r.name, len(r.got), len(r.want))
			continue
		}
		for i := range r.want {
			if r.want[i] != r.got[i] {
				t.Errorf("%s[%d] = %d, want %d", r.name, i, r.got[i], r.want[i])
			}
		}
		if r.wantScalar != r.gotScalar {
			t.Errorf("%s rmax/period = %v, want %v", r.name, r.gotScalar, r.wantScalar)
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	plan := testPlan(t)
	frame := AppendPlan(nil, plan)
	got, err := DecodePlan(frame, dag.Limits{})
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	plansEqual(t, plan, got)
	if err := got.Iter.Validate(); err != nil {
		t.Fatalf("decoded plan fails schedule validation: %v", err)
	}
	// Re-encoding the decoded plan must be byte-identical: the frame is
	// deterministic, so the store's content addressing is stable.
	again := AppendPlan(nil, got)
	if !bytes.Equal(frame, again) {
		t.Error("re-encoded frame differs from the original")
	}
}

func TestPlanDecodeTruncation(t *testing.T) {
	frame := AppendPlan(nil, testPlan(t))
	for i := 0; i < len(frame); i++ {
		if _, err := DecodePlan(frame[:i], dag.Limits{}); err == nil {
			t.Fatalf("DecodePlan accepted a frame truncated to %d/%d bytes", i, len(frame))
		}
	}
}

func TestPlanDecodeTrailingBytes(t *testing.T) {
	frame := AppendPlan(nil, testPlan(t))
	if _, err := DecodePlan(append(frame, 0), dag.Limits{}); err == nil {
		t.Fatal("DecodePlan accepted a frame with a trailing byte")
	}
}

func TestPlanDecodeBadPlacement(t *testing.T) {
	plan := testPlan(t)
	if len(plan.Iter.Assignment) == 0 {
		t.Skip("fixture plan has no assignments")
	}
	frame := AppendPlan(nil, plan)
	// Corrupt every byte position and require that at least one
	// corruption is rejected as a bad placement (the others fail as
	// truncation/overrun/trailing errors or decode to different valid
	// plans; none may panic).
	sawPlacementErr := false
	for i := 4; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0xff
		_, err := DecodePlan(mut, dag.Limits{})
		if err != nil && strings.Contains(err.Error(), "placement byte") {
			sawPlacementErr = true
			break
		}
	}
	if !sawPlacementErr {
		t.Error("no single-byte corruption produced a placement-byte rejection")
	}
}

func TestPlanDecodeGraphLimits(t *testing.T) {
	frame := AppendPlan(nil, testPlan(t))
	_, err := DecodePlan(frame, dag.Limits{MaxNodes: 2})
	if err == nil {
		t.Fatal("DecodePlan ignored the graph node cap")
	}
	var lim *dag.LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("cap violation surfaced as %T (%v), want *dag.LimitError", err, err)
	}
}

// leanPlan builds a plan whose kernel replicates the problem graph
// across several concurrent iterations, so lean decoding exercises the
// Replicate rebuild, not just the aliasing fast path.
func leanPlan(t *testing.T) (*sched.Plan, *dag.Graph) {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: "wirelean", Vertices: 6, Edges: 8, Seed: 11})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	p, err := sched.ParaCONVCtx(context.Background(), g, pim.Neurocube(16))
	if err != nil {
		t.Fatalf("ParaCONV: %v", err)
	}
	return p, g
}

func TestLeanPlanRoundTrip(t *testing.T) {
	plan, g := leanPlan(t)
	if plan.ConcurrentIterations <= 1 {
		t.Fatalf("fixture has CI=%d; want a multi-group plan to exercise the kernel rebuild", plan.ConcurrentIterations)
	}
	frame := AppendLeanPlan(nil, plan)
	full := AppendPlan(nil, plan)
	if len(frame) >= len(full) {
		t.Errorf("lean frame is %d bytes, full frame %d — stripping the kernel saved nothing", len(frame), len(full))
	}
	if !leanPlanFrame(frame) || leanPlanFrame(full) {
		t.Error("leanPlanFrame misclassifies the framings")
	}
	got, err := DecodeLeanPlan(frame, g)
	if err != nil {
		t.Fatalf("DecodeLeanPlan: %v", err)
	}
	plansEqual(t, plan, got)
	if err := got.Iter.Validate(); err != nil {
		t.Fatalf("lean-decoded plan fails schedule validation: %v", err)
	}
}

func TestLeanPlanAliasesSingleIterationKernel(t *testing.T) {
	g, err := synth.Generate(synth.Params{Name: "wireplan", Vertices: 40, Edges: 90, Seed: 7})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	plan, err := sched.ParaCONVCtx(context.Background(), g, pim.Neurocube(4))
	if err != nil {
		t.Fatalf("ParaCONV: %v", err)
	}
	if plan.ConcurrentIterations != 1 {
		t.Fatalf("fixture has CI=%d; the aliasing path needs 1", plan.ConcurrentIterations)
	}
	got, err := DecodeLeanPlan(AppendLeanPlan(nil, plan), g)
	if err != nil {
		t.Fatalf("DecodeLeanPlan: %v", err)
	}
	if got.Iter.Graph != g {
		t.Error("single-iteration lean decode did not alias the problem graph")
	}
	plansEqual(t, plan, got)

	// Every scheme rests lean: a baseline plans on the problem graph
	// itself, so its kernel aliases it too.
	for _, solve := range []func(context.Context, *dag.Graph, pim.Config) (*sched.Plan, error){sched.SPARTACtx, sched.NaiveCtx} {
		base, err := solve(context.Background(), g, pim.Neurocube(4))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeLeanPlan(AppendLeanPlan(nil, base), g)
		if err != nil {
			t.Fatalf("DecodeLeanPlan(%s): %v", base.Scheme, err)
		}
		if got.Iter.Graph != g {
			t.Errorf("%s lean decode did not alias the problem graph", base.Scheme)
		}
		plansEqual(t, base, got)
	}
}

func TestLeanPlanRejections(t *testing.T) {
	plan, g := leanPlan(t)

	other := *plan
	other.Scheme = "sparta"
	if _, err := DecodeLeanPlan(AppendLeanPlan(nil, &other), g); err == nil {
		t.Error("DecodeLeanPlan accepted a replicated kernel of a scheme that never replicates")
	}
	if _, err := DecodeLeanPlan(AppendLeanPlan(nil, plan), nil); err == nil {
		t.Error("DecodeLeanPlan accepted a nil problem graph")
	}
	if _, err := DecodeLeanPlan(AppendPlan(nil, plan), g); err == nil {
		t.Error("DecodeLeanPlan accepted a stored-plan frame")
	}
}

// TestPlanFrameEpoch: both plan kinds carry the solver epoch after the
// envelope, and a frame from any other epoch — or from a build before
// frames carried one — fails to decode instead of yielding a plan.
func TestPlanFrameEpoch(t *testing.T) {
	plan, g := leanPlan(t)
	for _, frame := range [][]byte{AppendPlan(nil, plan), AppendLeanPlan(nil, plan)} {
		if got := binary.LittleEndian.Uint32(frame[4:]); got != sched.SolverEpoch {
			t.Fatalf("%c frame carries epoch %d, want %d", frame[2], got, sched.SolverEpoch)
		}
		next := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(next[4:], sched.SolverEpoch+1)
		legacy := append(append([]byte(nil), frame[:4]...), frame[4+planEpochSize:]...)
		for _, bad := range []struct {
			name  string
			frame []byte
		}{{"next epoch", next}, {"no epoch", legacy}} {
			if _, err := DecodeFillPlan(bad.frame, g, dag.Limits{}); err == nil || !strings.Contains(err.Error(), "solver epoch") {
				t.Errorf("%c frame, %s: err = %v, want a solver-epoch rejection", frame[2], bad.name, err)
			}
		}
	}
}
