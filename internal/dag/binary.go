package dag

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// The binary codec is the wire-efficient sibling of the text format:
// a length-prefixed, varint-encoded frame carrying exactly the same
// information content (name, per-node kind/exec/name, per-edge
// endpoints and weights), so the two formats round-trip through each
// other.  Layout, all integers varint (zigzag for signed values,
// plain uvarint for counts and lengths):
//
//	magic   'P' 'C' 'G'            (3 bytes)
//	version 0x01                   (1 byte)
//	name    uvarint len + bytes
//	counts  uvarint nodes, uvarint edges
//	node*   kind byte, varint exec, uvarint namelen + bytes
//	edge*   uvarint from, uvarint to,
//	        varint size, varint cachetime, varint edramtime
//
// Encoding is byte-for-byte deterministic: the same graph always
// yields the same bytes (field order is fixed and varints have a
// unique minimal form), and decoding accepts no other bytes for it:
// padded varints are rejected, so an accepted frame is byte-for-byte
// what AppendBinary would write for the decoded graph.  Decoding also
// rejects trailing bytes, unknown versions and out-of-range
// references, and enforces the same Limits
// policy as the text parser — with the counts checked against the
// remaining input length first, so a lying header cannot reserve
// memory the body could never justify.

// BinaryVersion is the frame version the codec writes and the only
// one it accepts.  Bump it on any layout change; readers reject
// frames from the future rather than misparse them.
const BinaryVersion = 1

// binMagic are the three magic bytes opening a binary graph frame.
var binMagic = [3]byte{'P', 'C', 'G'}

// AppendBinary appends the binary encoding of g to dst and returns
// the extended slice (zero allocations once dst has capacity).
//
//paraconv:hotpath
func AppendBinary(dst []byte, g *Graph) []byte {
	dst = append(dst, binMagic[0], binMagic[1], binMagic[2], BinaryVersion)
	dst = appendBinString(dst, g.name)
	dst = binary.AppendUvarint(dst, uint64(len(g.nodes)))
	dst = binary.AppendUvarint(dst, uint64(len(g.edges)))
	for i := range g.nodes {
		n := &g.nodes[i]
		dst = append(dst, byte(n.Kind))
		dst = binary.AppendVarint(dst, int64(n.Exec))
		dst = appendBinString(dst, n.Name)
	}
	for i := range g.edges {
		e := &g.edges[i]
		dst = binary.AppendUvarint(dst, uint64(e.From))
		dst = binary.AppendUvarint(dst, uint64(e.To))
		dst = binary.AppendVarint(dst, int64(e.Size))
		dst = binary.AppendVarint(dst, int64(e.CacheTime))
		dst = binary.AppendVarint(dst, int64(e.EDRAMTime))
	}
	return dst
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// binNameScratch pools the decoder's name staging: the graph name and
// all node names are accumulated in one byte buffer (with per-node
// lengths) and then backed by a single string, so a 1000-vertex graph
// costs one name allocation instead of one per vertex.
type binNameScratch struct {
	buf  []byte
	lens []int
}

var binNamePool = sync.Pool{New: func() any { return new(binNameScratch) }}

// DecodeBinary parses a binary graph frame from data, which must
// contain exactly one frame (trailing bytes are an error).  The
// returned graph holds no references into data.  It enforces lim the
// same way ReadTextLimits does and validates the result.
//
//paraconv:hotpath
func DecodeBinary(data []byte, lim Limits) (*Graph, error) {
	d := binDecoder{data: data}
	if len(data) < 4 {
		return nil, fmt.Errorf("dag: binary graph: %d-byte input shorter than the 4-byte header", len(data))
	}
	if data[0] != binMagic[0] || data[1] != binMagic[1] || data[2] != binMagic[2] {
		return nil, fmt.Errorf("dag: binary graph: bad magic % x", data[:3])
	}
	if data[3] != BinaryVersion {
		return nil, fmt.Errorf("dag: binary graph: unsupported version %d (want %d)", data[3], BinaryVersion)
	}
	d.off = 4

	name, err := d.bstring()
	if err != nil {
		return nil, err
	}
	nodes, err := d.count("node")
	if err != nil {
		return nil, err
	}
	edges, err := d.count("edge")
	if err != nil {
		return nil, err
	}
	if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
		return nil, &LimitError{Kind: "nodes", Max: lim.MaxNodes, Offset: d.off}
	}
	if lim.MaxEdges > 0 && edges > lim.MaxEdges {
		return nil, &LimitError{Kind: "edges", Max: lim.MaxEdges, Offset: d.off}
	}
	// Every node costs at least 3 bytes and every edge at least 5, so
	// a header whose counts outrun the remaining input is lying; fail
	// before reserving anything.
	if rem := len(data) - d.off; 3*nodes+5*edges > rem {
		return nil, fmt.Errorf("dag: binary graph: declared %d nodes, %d edges exceed the %d input bytes remaining", nodes, edges, rem)
	}

	// Nodes and edges are written in place into exact-size storage; the
	// adjacency is built once, by link, after the last edge.  The graph
	// name and every node name share one string backing.
	adj := make([][]EdgeID, 2*nodes)
	g := &Graph{
		nodes: make([]Node, nodes),
		out:   adj[:nodes:nodes],
		in:    adj[nodes:],
	}
	ns := binNamePool.Get().(*binNameScratch)
	ns.buf = append(ns.buf[:0], name...)
	ns.lens = ns.lens[:0]
	defer binNamePool.Put(ns)
	for i := range g.nodes {
		if d.off >= len(data) {
			return nil, d.truncated("node")
		}
		kind := OpKind(data[d.off])
		d.off++
		if kind > OpOutput {
			return nil, fmt.Errorf("dag: binary graph: node %d has unknown op kind %d", i, kind)
		}
		exec, err := d.bvarint("node exec")
		if err != nil {
			return nil, err
		}
		nm, err := d.bstring()
		if err != nil {
			return nil, err
		}
		ns.buf = append(ns.buf, nm...)
		ns.lens = append(ns.lens, len(nm))
		g.nodes[i] = Node{ID: NodeID(i), Kind: kind, Exec: int(exec)}
	}
	if len(ns.buf) > 0 {
		backing := string(ns.buf)
		g.name = backing[:len(name)]
		off := len(name)
		for i, l := range ns.lens {
			if l > 0 {
				g.nodes[i].Name = backing[off : off+l]
				off += l
			}
		}
	}

	g.edges = make([]Edge, edges)
	for i := range g.edges {
		from, err := d.count("edge endpoint")
		if err != nil {
			return nil, err
		}
		to, err := d.count("edge endpoint")
		if err != nil {
			return nil, err
		}
		if from >= nodes || to >= nodes {
			return nil, fmt.Errorf("dag: binary graph: edge %d->%d references undeclared node", from, to)
		}
		size, err := d.bvarint("edge size")
		if err != nil {
			return nil, err
		}
		ct, err := d.bvarint("edge cachetime")
		if err != nil {
			return nil, err
		}
		et, err := d.bvarint("edge edramtime")
		if err != nil {
			return nil, err
		}
		g.edges[i] = Edge{From: NodeID(from), To: NodeID(to), Size: int(size), CacheTime: int(ct), EDRAMTime: int(et)}
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("dag: binary graph: %d trailing bytes after the frame", len(data)-d.off)
	}
	g.link()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.validated = true
	return g, nil
}

// binDecoder is a bounds-checked cursor over one binary frame.
type binDecoder struct {
	data []byte
	off  int
}

func (d *binDecoder) truncated(what string) error {
	return fmt.Errorf("dag: binary graph: truncated at offset %d reading %s", d.off, what)
}

// buvarint and bvarint read a one-byte varint (every count, endpoint
// and weight below 128, or 64 signed: most of a frame) inline; longer
// ones take encoding/binary's loop and the padding check.
func (d *binDecoder) buvarint(what string) (uint64, error) {
	if d.off < len(d.data) && d.data[d.off] < 0x80 {
		d.off++
		return uint64(d.data[d.off-1]), nil
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.truncated(what)
	}
	if n > 1 && d.data[d.off+n-1] == 0 {
		return 0, d.padded(what)
	}
	d.off += n
	return v, nil
}

// padded rejects a varint carrying a redundant trailing zero group
// (0x80 0x00 for 0): AppendBinary never emits one, and accepting it
// would let two byte strings decode to one graph — servers key plans by
// a hash of the frame's bytes, so an accepted frame must be THE
// encoding of its graph.
func (d *binDecoder) padded(what string) error {
	return fmt.Errorf("dag: binary graph: non-minimal varint at offset %d reading %s", d.off, what)
}

// maxAbsWeight bounds signed frame values to what the text codec can
// represent (atoiBytes caps fields at 18 decimal digits), keeping the
// two formats' accepted domains identical.
const maxAbsWeight = 1e18 - 1

func (d *binDecoder) bvarint(what string) (int64, error) {
	if d.off < len(d.data) && d.data[d.off] < 0x80 {
		b := d.data[d.off]
		d.off++
		return int64(b>>1) ^ -int64(b&1), nil
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, d.truncated(what)
	}
	if n > 1 && d.data[d.off+n-1] == 0 {
		return 0, d.padded(what)
	}
	if v > maxAbsWeight || v < -maxAbsWeight {
		return 0, fmt.Errorf("dag: binary graph: %s %d out of range", what, v)
	}
	d.off += n
	return v, nil
}

// count reads a uvarint that must fit a non-negative int with headroom
// (counts, lengths and endpoint indexes).  The label is passed through
// verbatim — never concatenated — so the success path stays
// allocation-free.
func (d *binDecoder) count(what string) (int, error) {
	v, err := d.buvarint(what)
	if err != nil {
		return 0, err
	}
	if v > 1<<31 {
		return 0, fmt.Errorf("dag: binary graph: %s %d out of range", what, v)
	}
	return int(v), nil
}

// bstring reads a length-prefixed byte string, returning a view into
// the input (callers must copy before the input is recycled).
func (d *binDecoder) bstring() ([]byte, error) {
	l, err := d.count("string")
	if err != nil {
		return nil, err
	}
	if l > len(d.data)-d.off {
		return nil, d.truncated("string body")
	}
	s := d.data[d.off : d.off+l]
	d.off += l
	return s, nil
}
