package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/dag"
)

// The binary frames share one envelope: two magic bytes 'P' 'C', a
// kind byte naming the payload, and a version byte.  Fields follow in
// fixed order — varint for signed integers, uvarint for counts and
// string lengths, 8 little-endian bytes for float64 values — so every
// encoding is byte-for-byte deterministic.  A request's graph travels
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

func appendHeader(dst []byte, kind byte) []byte {
	return append(dst, 'P', 'C', kind, Version)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

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
	dst = appendHeader(dst, kindRequest)
	dst = appendString(dst, req.Arch)
	dst = binary.AppendUvarint(dst, uint64(len(req.Archs)))
	for _, a := range req.Archs {
		dst = appendString(dst, a)
	}
	dst = appendInt(dst, req.PEs)
	dst = appendInt(dst, req.Iterations)
	dst = appendString(dst, req.Variant)
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
	d, err := newDecoder(data, kindRequest)
	if err != nil {
		return nil, err
	}
	*req = Request{Archs: req.Archs[:0]}
	if req.Arch, err = d.str("arch"); err != nil {
		return nil, err
	}
	n, err := d.length("archs")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		a, err := d.str("archs entry")
		if err != nil {
			return nil, err
		}
		req.Archs = append(req.Archs, a)
	}
	if req.PEs, err = d.integer("pes"); err != nil {
		return nil, err
	}
	if req.Iterations, err = d.integer("iterations"); err != nil {
		return nil, err
	}
	if req.Variant, err = d.str("variant"); err != nil {
		return nil, err
	}
	if req.TimeoutMS, err = d.integer("timeout_ms"); err != nil {
		return nil, err
	}
	return d.graphFrame()
}

// graphFrame returns the rest of the input as the trailing dag frame.
func (d *decoder) graphFrame() ([]byte, error) {
	if d.off == len(d.data) {
		return nil, ErrNoGraph
	}
	return d.data[d.off:], nil
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
	dst = appendHeader(dst, kindPlan)
	dst = appendString(dst, r.Scheme)
	dst = appendString(dst, r.Arch)
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
	d, err := newDecoder(data, kindPlan)
	if err != nil {
		return err
	}
	*r = PlanResponse{VertexRetiming: r.VertexRetiming[:0], CachedEdges: r.CachedEdges[:0]}
	if r.Scheme, err = d.str("scheme"); err != nil {
		return err
	}
	if r.Arch, err = d.str("arch"); err != nil {
		return err
	}
	for _, f := range []struct {
		what string
		dst  *int
	}{
		{"pes", &r.PEs}, {"period", &r.Period},
		{"concurrent_iterations", &r.ConcurrentIterations}, {"r_max", &r.RMax},
		{"prologue_time", &r.PrologueTime}, {"cached_iprs", &r.CachedIPRs},
		{"cache_load_units", &r.CacheLoadUnits}, {"vertices", &r.Vertices},
		{"edges", &r.Edges}, {"iterations", &r.Iterations}, {"total_time", &r.TotalTime},
	} {
		if *f.dst, err = d.integer(f.what); err != nil {
			return err
		}
	}
	if r.Throughput, err = d.float("throughput"); err != nil {
		return err
	}
	if r.VertexRetiming, err = d.ints("vertex_retiming", r.VertexRetiming); err != nil {
		return err
	}
	if r.CachedEdges, err = d.ints("cached_edges", r.CachedEdges); err != nil {
		return err
	}
	return d.finish()
}

// decoder is a bounds-checked cursor over one wire frame.
type decoder struct {
	data []byte
	off  int
}

func newDecoder(data []byte, kind byte) (*decoder, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: %d-byte input shorter than the 4-byte header", len(data))
	}
	if data[0] != 'P' || data[1] != 'C' {
		return nil, fmt.Errorf("wire: bad magic % x", data[:2])
	}
	if data[2] != kind {
		return nil, fmt.Errorf("wire: frame kind %q, want %q", data[2], kind)
	}
	if data[3] != Version {
		return nil, fmt.Errorf("wire: unsupported version %d (want %d)", data[3], Version)
	}
	return &decoder{data: data, off: 4}, nil
}

func (d *decoder) truncated(what string) error {
	return fmt.Errorf("wire: truncated at offset %d reading %s", d.off, what)
}

func (d *decoder) finish() error {
	if d.off != len(d.data) {
		return fmt.Errorf("wire: %d trailing bytes after the frame", len(d.data)-d.off)
	}
	return nil
}

func (d *decoder) varint(what string) (int64, error) {
	// One- and two-byte fast paths: plan frames are dominated by small
	// integers (task times bounded by the period, retiming values near
	// zero), and binary.Varint's general loop costs more than the
	// decode itself at the frame decoder's call rates.
	if d.off+1 < len(d.data) {
		if b := d.data[d.off]; b < 0x80 {
			d.off++
			return int64(b>>1) ^ -int64(b&1), nil
		} else if b1 := d.data[d.off+1]; b1 < 0x80 && b1 != 0 {
			u := uint64(b&0x7f) | uint64(b1)<<7
			d.off += 2
			return int64(u>>1) ^ -int64(u&1), nil
		}
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, d.truncated(what)
	}
	if n > 1 && d.data[d.off+n-1] == 0 {
		return 0, d.padded(what)
	}
	d.off += n
	return v, nil
}

// padded rejects a varint with a redundant zero group (0x80 0x00 for
// 0), so an accepted frame is the one encoding of what it decodes to.
func (d *decoder) padded(what string) error {
	return fmt.Errorf("wire: non-minimal varint at offset %d reading %s", d.off, what)
}

func (d *decoder) integer(what string) (int, error) {
	v, err := d.varint(what)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt || v < math.MinInt {
		return 0, fmt.Errorf("wire: %s %d out of range", what, v)
	}
	return int(v), nil
}

// length reads a uvarint count, bounded against the bytes remaining so
// a lying prefix cannot reserve unbacked memory.
func (d *decoder) length(what string) (int, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.truncated(what)
	}
	if n > 1 && d.data[d.off+n-1] == 0 {
		return 0, d.padded(what)
	}
	d.off += n
	if v > uint64(len(d.data)-d.off) {
		return 0, fmt.Errorf("wire: %s length %d exceeds the %d input bytes remaining", what, v, len(d.data)-d.off)
	}
	return int(v), nil
}

func (d *decoder) str(what string) (string, error) {
	l, err := d.length(what)
	if err != nil {
		return "", err
	}
	s := string(d.data[d.off : d.off+l])
	d.off += l
	return s, nil
}

func (d *decoder) float(what string) (float64, error) {
	if len(d.data)-d.off < 8 {
		return 0, d.truncated(what)
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return f, nil
}

func (d *decoder) ints(what string, dst []int) ([]int, error) {
	n, err := d.length(what)
	if err != nil {
		return dst, err
	}
	// length bounded n against the remaining bytes, so pre-sizing
	// cannot reserve unbacked memory — and saves the append path's
	// grow-and-copy churn on the frame decoder's array fields.
	if cap(dst)-len(dst) < n {
		grown := make([]int, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		v, err := d.integer(what)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
