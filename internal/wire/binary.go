package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"repro/internal/dag"
	"repro/internal/frame"
)

// The binary frames are internal/frame frames, one kind byte per
// payload, with fields in fixed order, so every encoding is
// byte-for-byte deterministic.  A request's graph travels
// as a trailing dag binary frame (see dag.AppendBinary): it is the
// last field, so it needs no length prefix and the dag decoder's own
// trailing-byte check seals the envelope.

// Version is the frame version the codec writes and the only one it
// accepts.
const Version = 1

// Frame kind bytes, one per payload type.
const (
	kindRequest = 'Q'
	kindPlan    = 'P'
)

// ErrNoGraph reports a binary request whose trailing graph frame is
// absent; it maps to the same client error as an empty "graph" field
// in a JSON request.
var ErrNoGraph = errors.New("wire: request has no graph")

// GraphError wraps a failure decoding the request's embedded graph
// frame, so servers can distinguish "your graph is bad" (bad_graph,
// like a text-path parse failure) from a malformed request envelope
// (bad_request).  errors.As unwraps through it, so the dag package's
// *LimitError remains reachable.
type GraphError struct{ Err error }

func (e *GraphError) Error() string { return "wire: request graph: " + e.Err.Error() }
func (e *GraphError) Unwrap() error { return e.Err }

func appendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendInts(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendInt(dst, v)
	}
	return dst
}

// AppendRequest appends the binary encoding of req to dst.  The graph
// g is embedded as the trailing dag frame; nil g encodes a graphless
// request (which DecodeRequest rejects with ErrNoGraph).  The
// Request.Graph text field is not carried — binary requests transport
// their graph in binary form only.
//
//paraconv:hotpath
func AppendRequest(dst []byte, req *Request, g *dag.Graph) []byte {
	dst = frame.AppendHeader(dst, kindRequest, Version)
	dst = frame.AppendBytes(dst, req.Arch)
	dst = binary.AppendUvarint(dst, uint64(len(req.Archs)))
	for _, a := range req.Archs {
		dst = frame.AppendBytes(dst, a)
	}
	dst = appendInt(dst, req.PEs)
	dst = appendInt(dst, req.Iterations)
	dst = frame.AppendBytes(dst, req.Variant)
	dst = appendInt(dst, req.TimeoutMS)
	if g != nil {
		dst = dag.AppendBinary(dst, g)
	}
	return dst
}

// SplitRequest parses a binary request frame's scalar header into req
// (fully overwritten; its Archs capacity is reused) and returns the
// trailing dag frame undecoded, as a sub-slice of data.  All strings
// are copied out of data; the frame is not, so it lives only as long
// as data does.  The frame's bytes are what identify the graph: dag's
// decoder accepts only the canonical encoding, so hashing them (see
// run.FrameFingerprint) keys a plan lookup before — on a hit, instead
// of — decoding.
//
//paraconv:hotpath
func SplitRequest(data []byte, req *Request) (frame []byte, err error) {
	d := open(data, kindRequest)
	*req = Request{Arch: d.String("arch"), Archs: req.Archs[:0]}
	n := d.Len("archs")
	if err := d.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		req.Archs = append(req.Archs, d.String("archs entry"))
	}
	req.PEs = d.Int("pes")
	req.Iterations = d.Int("iterations")
	req.Variant = d.String("variant")
	req.TimeoutMS = d.Int("timeout_ms")
	return graphFrame(&d)
}

// open checks a wire frame's envelope.
func open(data []byte, kind byte) frame.Reader {
	return frame.Open(data, "wire: ", kind, Version)
}

// graphFrame returns the rest of the input as the trailing dag frame.
func graphFrame(d *frame.Reader) ([]byte, error) {
	rest := d.Rest() // nil after a failure
	if err := d.Err(); err != nil || len(rest) > 0 {
		return rest, err
	}
	return nil, ErrNoGraph
}

// DecodeGraph decodes a trailing dag frame (from SplitRequest or
// SplitPeerFill) under lim.  Failures surface as *GraphError, size
// violations inside it as the dag package's *LimitError, so servers map
// them exactly like the text path.
func DecodeGraph(frame []byte, lim dag.Limits) (*dag.Graph, error) {
	g, err := dag.DecodeBinary(frame, lim)
	if err != nil {
		return nil, &GraphError{Err: err}
	}
	return g, nil
}

// DecodeRequest is SplitRequest followed by DecodeGraph: the whole
// request, graph included.
//
//paraconv:hotpath
func DecodeRequest(data []byte, req *Request, lim dag.Limits) (*dag.Graph, error) {
	frame, err := SplitRequest(data, req)
	if err != nil {
		return nil, err
	}
	return DecodeGraph(frame, lim)
}

// AppendPlanResponse appends the binary encoding of r to dst.
//
//paraconv:hotpath
func AppendPlanResponse(dst []byte, r *PlanResponse) []byte {
	dst = appendPlanResponseHead(dst, r)
	dst = appendHorizon(dst, r.Iterations, r.TotalTime, r.Throughput)
	return appendPlanResponseTail(dst, r)
}

// A plan frame is three runs of fields: a head and a tail fixed by the
// plan, around the three fields that depend on the request's iteration
// count.  PlanResponseFrame caches the first and last.

func appendPlanResponseHead(dst []byte, r *PlanResponse) []byte {
	dst = frame.AppendHeader(dst, kindPlan, Version)
	dst = frame.AppendBytes(dst, r.Scheme)
	dst = frame.AppendBytes(dst, r.Arch)
	dst = appendInt(dst, r.PEs)
	dst = appendInt(dst, r.Period)
	dst = appendInt(dst, r.ConcurrentIterations)
	dst = appendInt(dst, r.RMax)
	dst = appendInt(dst, r.PrologueTime)
	dst = appendInt(dst, r.CachedIPRs)
	dst = appendInt(dst, r.CacheLoadUnits)
	dst = appendInt(dst, r.Vertices)
	return appendInt(dst, r.Edges)
}

func appendHorizon(dst []byte, iterations, totalTime int, throughput float64) []byte {
	dst = appendInt(dst, iterations)
	dst = appendInt(dst, totalTime)
	return appendFloat(dst, throughput)
}

func appendPlanResponseTail(dst []byte, r *PlanResponse) []byte {
	dst = appendInts(dst, r.VertexRetiming)
	return appendInts(dst, r.CachedEdges)
}

// PlanResponseFrame is the part of a plan frame that does not depend
// on the request's iteration count: everything before and everything
// after the iterations / total_time / throughput fields.  A plan cache
// builds it once per plan; Append then answers any horizon without
// touching the plan's arrays again.  The zero value means "not built".
type PlanResponseFrame struct {
	head, tail []byte
}

// NewPlanResponseFrame encodes r's request-independent fields.
func NewPlanResponseFrame(r *PlanResponse) PlanResponseFrame {
	b := appendPlanResponseHead(nil, r)
	cut := len(b)
	b = appendPlanResponseTail(b, r)
	return PlanResponseFrame{head: b[:cut:cut], tail: b[cut:]}
}

// Built reports whether f holds a frame.
func (f PlanResponseFrame) Built() bool { return f.head != nil }

// Append appends the complete plan frame for the given horizon: the
// bytes AppendPlanResponse writes for the response f was built from
// with these three fields set.
//
//paraconv:hotpath
func (f PlanResponseFrame) Append(dst []byte, iterations, totalTime int, throughput float64) []byte {
	dst = append(dst, f.head...)
	dst = appendHorizon(dst, iterations, totalTime, throughput)
	return append(dst, f.tail...)
}

// DecodePlanResponse parses a binary plan frame into r, reusing the
// capacity of its slices.
func DecodePlanResponse(data []byte, r *PlanResponse) error {
	d := open(data, kindPlan)
	*r = PlanResponse{
		Scheme:               d.String("scheme"),
		Arch:                 d.String("arch"),
		PEs:                  d.Int("pes"),
		Period:               d.Int("period"),
		ConcurrentIterations: d.Int("concurrent_iterations"),
		RMax:                 d.Int("r_max"),
		PrologueTime:         d.Int("prologue_time"),
		CachedIPRs:           d.Int("cached_iprs"),
		CacheLoadUnits:       d.Int("cache_load_units"),
		Vertices:             d.Int("vertices"),
		Edges:                d.Int("edges"),
		Iterations:           d.Int("iterations"),
		TotalTime:            d.Int("total_time"),
		Throughput:           d.Float64("throughput"),
		VertexRetiming:       ints(&d, "vertex_retiming", r.VertexRetiming[:0]),
		CachedEdges:          ints(&d, "cached_edges", r.CachedEdges[:0]),
	}
	return d.Finish()
}

// ints appends a length-prefixed run of signed integers to dst,
// pre-sized: Len bounds n by the bytes left.
func ints(d *frame.Reader, what string, dst []int) []int {
	n := d.Len(what)
	if d.Err() != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, d.Int(what))
	}
	return dst
}
