package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
)

func testGraph(t testing.TB) *dag.Graph {
	t.Helper()
	g := dag.New("wire-test")
	g.AddNode(dag.Node{Name: "a", Kind: dag.OpConv, Exec: 3})
	g.AddNode(dag.Node{Name: "b", Kind: dag.OpPool, Exec: 2})
	g.AddEdge(dag.Edge{From: 0, To: 1, Size: 2, CacheTime: 1, EDRAMTime: 2})
	return g
}

func TestRequestRoundTrip(t *testing.T) {
	g := testGraph(t)
	req := Request{
		Arch:       "neurocube",
		Archs:      []string{"prime", "edge"},
		PEs:        64,
		Iterations: 1000,
		Variant:    "para-conv",
		TimeoutMS:  250,
	}
	data := AppendRequest(nil, &req, g)
	var got Request
	gotG, err := DecodeRequest(data, &got, dag.Limits{})
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("request round trip:\n got %+v\nwant %+v", got, req)
	}
	if gotG.NumNodes() != g.NumNodes() || gotG.NumEdges() != g.NumEdges() || gotG.Name() != g.Name() {
		t.Errorf("graph round trip: |V|=%d |E|=%d name=%q", gotG.NumNodes(), gotG.NumEdges(), gotG.Name())
	}
}

func TestRequestRoundTripZeroValues(t *testing.T) {
	g := testGraph(t)
	data := AppendRequest(nil, &Request{}, g)
	var got Request
	if _, err := DecodeRequest(data, &got, dag.Limits{}); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	want := Request{Archs: []string{}}
	got.Archs = got.Archs[:len(got.Archs)] // normalize nil-vs-empty for the compare
	if got.Arch != want.Arch || len(got.Archs) != 0 || got.PEs != 0 || got.Iterations != 0 ||
		got.Variant != "" || got.TimeoutMS != 0 {
		t.Errorf("zero-value request round trip: %+v", got)
	}
}

func TestRequestNoGraph(t *testing.T) {
	data := AppendRequest(nil, &Request{Arch: "edge"}, nil)
	var got Request
	if _, err := DecodeRequest(data, &got, dag.Limits{}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("err = %v, want ErrNoGraph", err)
	}
}

func TestRequestGraphLimits(t *testing.T) {
	data := AppendRequest(nil, &Request{}, testGraph(t))
	var got Request
	_, err := DecodeRequest(data, &got, dag.Limits{MaxNodes: 1})
	var lim *dag.LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v (%T), want *dag.LimitError", err, err)
	}
	if lim.Kind != "nodes" || lim.Max != 1 {
		t.Errorf("LimitError = %+v", *lim)
	}
}

func TestPlanResponseRoundTrip(t *testing.T) {
	r := PlanResponse{
		Scheme: "para-conv", Arch: "neurocube", PEs: 32, Period: 17,
		ConcurrentIterations: 4, RMax: 2, PrologueTime: 34, CachedIPRs: 9,
		CacheLoadUnits: 40, Vertices: 200, Edges: 520, Iterations: 100,
		TotalTime: 1234, Throughput: 0.0625,
		VertexRetiming: []int{0, 1, 2, 1, 0},
		CachedEdges:    []int{3, 7, 11},
	}
	data := AppendPlanResponse(nil, &r)
	var got PlanResponse
	if err := DecodePlanResponse(data, &got); err != nil {
		t.Fatalf("DecodePlanResponse: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("plan round trip:\n got %+v\nwant %+v", got, r)
	}
	if !bytes.Equal(data, AppendPlanResponse(nil, &got)) {
		t.Error("re-encoding the decoded plan changed the frame")
	}
}

// TestPlanResponseFrameMatchesAppend: a frame built once from a
// response re-creates AppendPlanResponse's bytes for any horizon, with
// and without the array fields, and never through the heap.
func TestPlanResponseFrameMatchesAppend(t *testing.T) {
	for _, r := range []PlanResponse{
		{Scheme: "para-conv", Arch: "neurocube-16", PEs: 16, Period: 17, ConcurrentIterations: 4,
			RMax: 2, PrologueTime: 34, CachedIPRs: 9, CacheLoadUnits: 40, Vertices: 200, Edges: 520,
			VertexRetiming: []int{0, 1, 2, 1, 0, 300}, CachedEdges: []int{3, 7, 11, 1 << 20}},
		{Scheme: "naive", Arch: "edge"},
	} {
		frame := NewPlanResponseFrame(&r)
		if !frame.Built() {
			t.Fatal("a built frame reports unbuilt")
		}
		for _, h := range []struct {
			iterations, totalTime int
			throughput            float64
		}{{1, 51, 1.0 / 51}, {100, 459, 100.0 / 459}, {1e9, -1, 0}} {
			r.Iterations, r.TotalTime, r.Throughput = h.iterations, h.totalTime, h.throughput
			if got, want := frame.Append(nil, h.iterations, h.totalTime, h.throughput), AppendPlanResponse(nil, &r); !bytes.Equal(got, want) {
				t.Errorf("%s at %d iterations:\n got % x\nwant % x", r.Scheme, h.iterations, got, want)
			}
		}
		if !raceEnabled {
			buf := make([]byte, 0, 256)
			if allocs := testing.AllocsPerRun(100, func() { buf = frame.Append(buf[:0], 100, 459, 0.2) }); allocs > 0 {
				t.Errorf("PlanResponseFrame.Append allocates %.1f times per call, want 0", allocs)
			}
		}
	}
	if (PlanResponseFrame{}).Built() {
		t.Error("the zero frame reports built")
	}
}

func TestPlanResponseEmptySlicesRoundTrip(t *testing.T) {
	r := PlanResponse{Scheme: "naive", Arch: "edge"}
	var got PlanResponse
	if err := DecodePlanResponse(AppendPlanResponse(nil, &r), &got); err != nil {
		t.Fatalf("DecodePlanResponse: %v", err)
	}
	if got.Scheme != "naive" || got.Arch != "edge" || len(got.VertexRetiming) != 0 || len(got.CachedEdges) != 0 {
		t.Errorf("round trip: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	plan := AppendPlanResponse(nil, &PlanResponse{Scheme: "x", Arch: "y"})
	tests := []struct {
		name string
		run  func() error
		want string
	}{
		{"short input", func() error { return DecodePlanResponse([]byte{'P'}, &PlanResponse{}) }, "shorter than"},
		{"bad magic", func() error { return DecodePlanResponse([]byte{'X', 'C', 'P', 1}, &PlanResponse{}) }, "bad magic"},
		{"wrong kind", func() error { return DecodePlanResponse([]byte{'P', 'C', kindRequest, 1}, &PlanResponse{}) }, "frame kind"},
		{"future version", func() error {
			b := append([]byte(nil), plan...)
			b[3] = 9
			return DecodePlanResponse(b, &PlanResponse{})
		}, "unsupported version"},
		{"truncated", func() error { return DecodePlanResponse(plan[:len(plan)-2], &PlanResponse{}) }, "truncated"},
		{"trailing bytes", func() error { return DecodePlanResponse(append(append([]byte(nil), plan...), 0), &PlanResponse{}) }, "trailing"},
		{"lying string length", func() error {
			return DecodePlanResponse([]byte{'P', 'C', 'P', 1, 0xff, 0x01}, &PlanResponse{})
		}, "exceeds"},
		{"request wrong kind", func() error {
			var req Request
			_, err := DecodeRequest(plan, &req, dag.Limits{})
			return err
		}, "frame kind"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("decode returned nil error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestDecodeNeverPanics walks truncations of every frame type through
// its decoder: each must return an error or a value, never panic.
func TestDecodeNeverPanics(t *testing.T) {
	frames := [][]byte{
		AppendRequest(nil, &Request{Arch: "a", Archs: []string{"b"}, PEs: 4}, testGraph(t)),
		AppendPlanResponse(nil, &PlanResponse{Scheme: "s", VertexRetiming: []int{1, 2}}),
	}
	for fi, frame := range frames {
		for i := 0; i <= len(frame); i++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("frame %d truncated to %d bytes panicked: %v", fi, i, r)
					}
				}()
				in := frame[:i]
				var req Request
				_, _ = DecodeRequest(in, &req, dag.Limits{})
				_ = DecodePlanResponse(in, &PlanResponse{})
			}()
		}
	}
}

// TestAppendZeroAlloc pins the encoders' allocation contract: with
// pre-sized destinations every Append* call touches the heap zero
// times.
func TestAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	g := testGraph(t)
	req := Request{Arch: "neurocube", PEs: 16, Iterations: 100}
	plan := PlanResponse{Scheme: "para-conv", VertexRetiming: []int{1, 2, 3}, CachedEdges: []int{0}}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendRequest(buf[:0], &req, g)
		buf = AppendPlanResponse(buf[:0], &plan)
	})
	if allocs > 0 {
		t.Errorf("Append* allocate %.1f times per run, want 0", allocs)
	}
}

// TestDecodeRequestAllocBudget bounds the request decoder: the request
// strings, the graph and its storage — nothing proportional to the
// frame beyond them.
func TestDecodeRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	g := dag.New("budget")
	for i := 0; i < 120; i++ {
		g.AddNode(dag.Node{Kind: dag.OpConv, Exec: 1 + i%5})
	}
	for i := 0; i+1 < 120; i++ {
		g.AddEdge(dag.Edge{From: dag.NodeID(i), To: dag.NodeID(i + 1), Size: 1, EDRAMTime: 1})
	}
	data := AppendRequest(nil, &Request{Arch: "neurocube", Variant: "para-conv", PEs: 32, Iterations: 50}, g)
	var req Request
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeRequest(data, &req, dag.Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Errorf("DecodeRequest allocates %.1f times per call, want <= 24", allocs)
	}
}
