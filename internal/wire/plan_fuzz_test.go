package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/synth"
)

// planFuzzLimits caps the kernel a stored-plan frame may embed, as
// the daemon's graph limits cap a request's graph.
var planFuzzLimits = dag.Limits{MaxNodes: 256, MaxEdges: 1024}

// planFuzzGraph is the problem graph every lean frame is decoded
// against: small enough that the Para-CONV solver unrolls it into
// several concurrent iterations on a 16-PE array.
func planFuzzGraph(tb testing.TB) *dag.Graph {
	tb.Helper()
	g, err := synth.Generate(synth.Params{Name: "planfuzz", Vertices: 6, Edges: 8, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// planSeed is one named frame; valid marks the well-formed plan frames
// of this epoch, the only ones that may decode and validate.
type planSeed struct {
	name  string
	frame []byte
	valid bool
}

// planSeeds is the named edge-case table behind both the unit test and
// the fuzz corpus: the plan frames of both kinds, and every way one can
// arrive truncated, stale, padded or lying.
func planSeeds(tb testing.TB) []planSeed {
	tb.Helper()
	g := planFuzzGraph(tb)
	solve := func(planner func(context.Context, *dag.Graph, pim.Config) (*sched.Plan, error), pes int) *sched.Plan {
		p, err := planner(context.Background(), g, pim.Neurocube(pes))
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	multi, single, baseline := solve(sched.ParaCONVCtx, 16), solve(sched.ParaCONVSingleCtx, 16), solve(sched.SPARTACtx, 4)
	if multi.ConcurrentIterations < 2 || single.ConcurrentIterations != 1 {
		tb.Fatalf("fixture plans have CI %d and %d; want > 1 and 1", multi.ConcurrentIterations, single.ConcurrentIterations)
	}
	lean, full := AppendLeanPlan(nil, multi), AppendPlan(nil, multi)
	with := func(frame []byte, edit func([]byte) []byte) []byte { return edit(append([]byte(nil), frame...)) }
	epoch := func(e uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], e); return b }
	}
	noEpoch := func(b []byte) []byte { return append(b[:4], b[4+planEpochSize:]...) }
	// The scheme's length byte follows the epoch, and the PE count the
	// scheme: re-spell each as a padded two-byte varint.
	schemeAt := 4 + planEpochSize
	pesAt := schemeAt + 1 + len(multi.Scheme)
	pad := func(at int) func([]byte) []byte {
		return func(b []byte) []byte {
			return append(append(b[:at:at], b[at]|0x80, 0x00), b[at+1:]...)
		}
	}
	lying := *multi
	lying.ConcurrentIterations = 1 << 40
	// A lean frame's group count is its task count over |V|: one that
	// claims 2^31 groups' tasks must be refused before anything is
	// sized by it.
	huge := appendInt(appendInt(appendString(appendPlanHeader(nil, kindLeanPlan), multi.Scheme), 1<<31), multi.Iter.Period)
	huge = binary.AppendUvarint(huge, uint64(1<<31*g.NumNodes()))
	replicatedBaseline := *multi
	replicatedBaseline.Scheme = baseline.Scheme

	return []planSeed{
		{"lean, CI > 1", lean, true},
		{"lean, one iteration", AppendLeanPlan(nil, single), true},
		{"stored, CI > 1", full, true},
		{"stored baseline", AppendPlan(nil, baseline), true},
		{"empty", nil, false},
		{"envelope only", lean[:4], false},
		{"epoch cut short", lean[:6], false},
		{"lean cut mid-body", lean[:len(lean)/2], false},
		{"stored cut inside the kernel", full[:len(full)/3], false},
		{"lean missing its last byte", lean[:len(lean)-1], false},
		{"trailing byte", append(append([]byte(nil), lean...), 0), false},
		{"lean from the next epoch", with(lean, epoch(sched.SolverEpoch+1)), false},
		{"stored from epoch zero", with(full, epoch(0)), false},
		{"lean with no epoch", with(lean, noEpoch), false},
		{"stored with no epoch", with(full, noEpoch), false},
		{"padded scheme length", with(lean, pad(schemeAt)), false},
		{"padded PE count", with(lean, pad(pesAt)), false},
		{"lean CI beyond its tasks", AppendLeanPlan(nil, &lying), false},
		{"lean baseline scheme", AppendLeanPlan(nil, baseline), true},
		{"lean baseline at CI > 1", AppendLeanPlan(nil, &replicatedBaseline), false},
		{"request frame as a plan", AppendRequest(nil, &Request{PEs: 16}, g), false},
		{"response frame as a plan", AppendPlanResponse(nil, NewPlanResponse(multi, "neurocube", 10)), false},
		{"lean tasks of 2^31 groups", huge, false},
	}
}

// allocated returns the fewest heap bytes any of three runs of f
// allocated: the counter is process-wide, and the minimum sheds what
// other goroutines allocated meanwhile.
func allocated(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// checkPlanFrames is the property: the three plan decoders never
// panic, allocate at most linearly in the frame's length (a lying
// count must not size anything the bytes do not back), DecodeFillPlan
// agrees with the decoder of the frame's kind, and an accepted frame
// is the one encoding of the plan it decodes to.
func checkPlanFrames(t *testing.T, g *dag.Graph, frame []byte) {
	var (
		full, lean, fill          *sched.Plan
		errFull, errLean, errFill error
	)
	spent := allocated(func() {
		full, errFull = DecodePlan(frame, planFuzzLimits)
		lean, errLean = DecodeLeanPlan(frame, g)
		fill, errFill = DecodeFillPlan(frame, g, planFuzzLimits)
	})
	if bound := uint64(256*len(frame) + 1<<16); !raceEnabled && spent > bound {
		t.Fatalf("decoding a %d-byte frame allocated %d bytes; bound %d", len(frame), spent, bound)
	}

	want, reencode := errFull, func(p *sched.Plan) []byte { return AppendPlan(nil, p) }
	if leanPlanFrame(frame) {
		want, reencode = errLean, func(p *sched.Plan) []byte { return AppendLeanPlan(nil, p) }
	}
	if (errFill == nil) != (want == nil) || (errFill != nil && errFill.Error() != want.Error()) {
		t.Fatalf("DecodeFillPlan: %v; the %q decoder: %v", errFill, frame[2], want)
	}
	for _, d := range []struct {
		name string
		p    *sched.Plan
		err  error
		enc  func(*sched.Plan) []byte
	}{
		{"DecodePlan", full, errFull, func(p *sched.Plan) []byte { return AppendPlan(nil, p) }},
		{"DecodeLeanPlan", lean, errLean, func(p *sched.Plan) []byte { return AppendLeanPlan(nil, p) }},
		{"DecodeFillPlan", fill, errFill, reencode},
	} {
		if d.err == nil && !bytes.Equal(d.enc(d.p), frame) {
			t.Fatalf("%s accepted a frame that does not re-encode to itself", d.name)
		}
	}
}

func TestPlanFrameSeeds(t *testing.T) {
	g := planFuzzGraph(t)
	for _, s := range planSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			checkPlanFrames(t, g, s.frame)
			p, err := DecodeFillPlan(s.frame, g, planFuzzLimits)
			if err == nil {
				err = p.Iter.Validate()
			}
			if (err == nil) != s.valid {
				t.Errorf("decode and validate: err = %v, want valid = %v", err, s.valid)
			}
		})
	}
}

// FuzzPlanFrames runs checkPlanFrames over arbitrary frames, seeded
// with the named edge cases.
func FuzzPlanFrames(f *testing.F) {
	for _, s := range planSeeds(f) {
		f.Add(s.frame)
	}
	g := planFuzzGraph(f)
	f.Fuzz(func(t *testing.T, frame []byte) { checkPlanFrames(t, g, frame) })
}
