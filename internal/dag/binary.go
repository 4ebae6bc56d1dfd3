package dag

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/frame"
)

// The binary codec is the wire-efficient sibling of the text format:
// a length-prefixed, varint-encoded frame carrying exactly the same
// information content (name, per-node kind/exec/name, per-edge
// endpoints and weights), so the two formats round-trip through each
// other.  Layout, all integers varint (zigzag for signed values,
// plain uvarint for counts and lengths):
//
//	header  'P' 'C' 'G' 0x01       (internal/frame's envelope)
//	name    uvarint len + bytes
//	counts  uvarint nodes, uvarint edges
//	node*   kind byte, varint exec, uvarint namelen + bytes
//	edge*   uvarint from, uvarint to,
//	        varint size, varint cachetime, varint edramtime
//
// Encoding is byte-for-byte deterministic, and decoding (through
// internal/frame's reader) accepts no other bytes, so an accepted frame
// is what AppendBinary writes for the decoded graph.  Decoding also
// enforces the text parser's Limits, with the counts checked against
// the bytes left first, so a lying header reserves nothing.

// BinaryVersion is the frame version the codec writes and the only
// one it accepts.  Bump it on any layout change; readers reject
// frames from the future rather than misparse them.
const BinaryVersion = 1

// binKind is the frame kind byte of a binary graph frame.
const binKind = 'G'

// AppendBinary appends the binary encoding of g to dst and returns
// the extended slice (zero allocations once dst has capacity).
//
//paraconv:hotpath
func AppendBinary(dst []byte, g *Graph) []byte {
	dst = frame.AppendHeader(dst, binKind, BinaryVersion)
	dst = frame.AppendBytes(dst, g.name)
	dst = binary.AppendUvarint(dst, uint64(len(g.nodes)))
	dst = binary.AppendUvarint(dst, uint64(len(g.edges)))
	for i := range g.nodes {
		n := &g.nodes[i]
		dst = append(dst, byte(n.Kind))
		dst = binary.AppendVarint(dst, int64(n.Exec))
		dst = frame.AppendBytes(dst, n.Name)
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
	r := frame.Open(data, "dag: binary graph: ", binKind, BinaryVersion)
	name := r.Bytes("string")
	nodes, edges := int(r.Uvarint("node", maxCount)), int(r.Uvarint("edge", maxCount))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
		return nil, &LimitError{Kind: "nodes", Max: lim.MaxNodes, Offset: r.Offset()}
	}
	if lim.MaxEdges > 0 && edges > lim.MaxEdges {
		return nil, &LimitError{Kind: "edges", Max: lim.MaxEdges, Offset: r.Offset()}
	}
	// Every node costs at least 3 bytes and every edge at least 5, so
	// a header whose counts outrun the remaining input is lying; fail
	// before reserving anything.
	if rem := len(data) - r.Offset(); 3*nodes+5*edges > rem {
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
		kind := OpKind(r.Byte("node"))
		if kind > OpOutput {
			r.Fail(fmt.Errorf("dag: binary graph: node %d has unknown op kind %d", i, kind))
		}
		exec := r.Varint("node exec", -maxAbsWeight, maxAbsWeight)
		nm := r.Bytes("string")
		if err := r.Err(); err != nil {
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
		from, to := r.Uvarint("edge endpoint", maxCount), r.Uvarint("edge endpoint", maxCount)
		if from >= uint64(nodes) || to >= uint64(nodes) {
			r.Fail(fmt.Errorf("dag: binary graph: edge %d->%d references undeclared node", from, to))
		}
		g.edges[i] = Edge{From: NodeID(from), To: NodeID(to),
			Size:      int(r.Varint("edge size", -maxAbsWeight, maxAbsWeight)),
			CacheTime: int(r.Varint("edge cachetime", -maxAbsWeight, maxAbsWeight)),
			EDRAMTime: int(r.Varint("edge edramtime", -maxAbsWeight, maxAbsWeight)),
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	g.link()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.validated = true
	return g, nil
}

// maxAbsWeight bounds signed frame values to what the text codec can
// represent (atoiBytes caps fields at 18 decimal digits), keeping the
// two formats' accepted domains identical.
const maxAbsWeight = 1e18 - 1

// maxCount bounds counts and endpoint indexes: a non-negative int with
// headroom, so the size check's arithmetic cannot overflow.
const maxCount = 1 << 31
