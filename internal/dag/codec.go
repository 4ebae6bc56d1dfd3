package dag

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
)

// The text format written by WriteText / read by ReadText is a small
// line-oriented exchange format so the cmd/ tools can pass graphs
// around without a JSON schema:
//
//	graph <name>
//	counts <nodes> <edges>
//	node <id> <kind> <exec> [name]
//	edge <from> <to> <size> <cachetime> <edramtime>
//
// Lines beginning with '#' and blank lines are ignored.  The counts
// header is optional (older encodings omit it); when present it lets
// the parser preallocate node, edge and adjacency storage in one shot
// and reject over-limit graphs before reading a single body line.
// Node lines must appear before any edge referencing them; ids must be
// the dense 0..n-1 sequence in order (matching AddNode's assignment).
//
// The parser is on the planning daemon's per-request path, so it is
// built to run allocation-lean: scanner buffers come from a pool,
// lines are tokenized in place (no strings.Fields slice per line), and
// numeric fields parse with strconv instead of fmt's reflection-based
// scanning.

// WriteText serializes g in the package text format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %s\n", sanitizeToken(g.Name(), "unnamed"))
	fmt.Fprintf(bw, "counts %d %d\n", g.NumNodes(), g.NumEdges())
	for i := range g.Nodes() {
		n := &g.Nodes()[i]
		fmt.Fprintf(bw, "node %d %s %d %s\n", n.ID, n.Kind, n.Exec, sanitizeToken(n.Name, "-"))
	}
	for i := range g.Edges() {
		e := &g.Edges()[i]
		fmt.Fprintf(bw, "edge %d %d %d %d %d\n", e.From, e.To, e.Size, e.CacheTime, e.EDRAMTime)
	}
	return bw.Flush()
}

func sanitizeToken(s, fallback string) string {
	s = strings.Join(strings.Fields(s), "_")
	if s == "" {
		return fallback
	}
	return s
}

// Limits bounds what ReadTextLimits accepts, for parsing graphs from
// untrusted input (the planning service's network requests).  Zero
// values mean "no cap" on that dimension.
type Limits struct {
	// MaxNodes and MaxEdges cap the declared graph size.  Parsing
	// fails fast with a *LimitError as soon as a cap is crossed — at
	// the counts header when the input carries one, otherwise at the
	// first body line over the cap — so an oversized input costs at
	// most the capped prefix.
	MaxNodes int
	MaxEdges int
}

// LimitError reports a graph exceeding a codec cap.  It is a distinct
// type so servers can map it to a client error (the input is
// well-formed but over policy) rather than an internal failure.
type LimitError struct {
	// Kind is "nodes" or "edges".
	Kind string
	// Max is the cap that was crossed; Line is the text-input line
	// that crossed it (0 for binary input, which reports Offset
	// instead).
	Max  int
	Line int
	// Offset is the byte offset at which a binary parse crossed the
	// cap (0 for text input).
	Offset int
}

// Error implements error.
func (e *LimitError) Error() string {
	if e.Offset > 0 {
		return fmt.Sprintf("dag: offset %d: graph exceeds %s limit %d", e.Offset, e.Kind, e.Max)
	}
	return fmt.Sprintf("dag: line %d: graph exceeds %s limit %d", e.Line, e.Kind, e.Max)
}

// scanBufPool recycles the scanner's initial read buffer across
// parses; bufio.Scanner only reallocates past this when a single line
// exceeds 64 KiB.
var scanBufPool = sync.Pool{New: func() any {
	b := make([]byte, 64*1024)
	return &b
}}

// maxPreallocNodes bounds how much storage a counts header may reserve
// when no explicit limit applies, so a lying header cannot turn into a
// large allocation before the body proves the size real.
const maxPreallocNodes = 1 << 20

// splitFieldsInto tokenizes line on ASCII whitespace into dst without
// allocating, returning the field count.  At most len(dst) fields are
// stored; the count keeps growing past that so arity checks still
// reject over-long lines.
func splitFieldsInto(line []byte, dst [][]byte) int {
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !isSpace(line[i]) {
			i++
		}
		if n < len(dst) {
			dst[n] = line[start:i]
		}
		n++
	}
	return n
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// atoiBytes parses a decimal integer from a byte field without the
// string conversion strconv.Atoi would force (whose error path makes
// the string escape, costing an allocation per numeric field).
func atoiBytes(b []byte) (int, bool) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) || len(b)-i > 18 {
		return 0, false
	}
	n := 0
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// ReadText parses the package text format with no size caps.  The
// returned graph is validated; any structural defect is reported as
// an error.
//
//paraconv:hotpath
func ReadText(r io.Reader) (*Graph, error) {
	return ReadTextLimits(r, Limits{})
}

// ReadTextLimits is ReadText with caps on the declared graph size;
// crossing a cap aborts the parse with a *LimitError.
//
//paraconv:hotpath
func ReadTextLimits(r io.Reader, lim Limits) (*Graph, error) {
	bufp := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(bufp)
	sc := bufio.NewScanner(r)
	sc.Buffer(*bufp, 1024*1024)
	g := New("")
	lineNo := 0
	var fields [8][]byte
	// Edges are appended to g.edges as they parse and linked once at
	// EOF, so the adjacency lists are sized exactly instead of growing
	// edge by edge.
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		nf := splitFieldsInto(line, fields[:])
		switch string(fields[0]) {
		case "graph":
			if nf != 2 {
				return nil, fmt.Errorf("dag: line %d: want 'graph <name>', got %q", lineNo, line)
			}
			g.SetName(string(fields[1]))
		case "counts":
			if nf != 3 {
				return nil, fmt.Errorf("dag: line %d: want 'counts <nodes> <edges>', got %q", lineNo, line)
			}
			nodes, ok := atoiBytes(fields[1])
			if !ok || nodes < 0 {
				return nil, fmt.Errorf("dag: line %d: bad node count %q", lineNo, fields[1])
			}
			edges, ok := atoiBytes(fields[2])
			if !ok || edges < 0 {
				return nil, fmt.Errorf("dag: line %d: bad edge count %q", lineNo, fields[2])
			}
			// Fail before the body when the declared size is over
			// policy; clamp the reservation so a dishonest header
			// cannot allocate more than the caps (or a sane default)
			// allow.
			if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
				return nil, &LimitError{Kind: "nodes", Max: lim.MaxNodes, Line: lineNo}
			}
			if lim.MaxEdges > 0 && edges > lim.MaxEdges {
				return nil, &LimitError{Kind: "edges", Max: lim.MaxEdges, Line: lineNo}
			}
			g.Grow(min(nodes, maxPreallocNodes), min(edges, 4*maxPreallocNodes))
		case "node":
			if nf < 4 || nf > 5 {
				return nil, fmt.Errorf("dag: line %d: want 'node <id> <kind> <exec> [name]', got %q", lineNo, line)
			}
			id, ok := atoiBytes(fields[1])
			if !ok {
				return nil, fmt.Errorf("dag: line %d: bad node id %q", lineNo, fields[1])
			}
			kind, err := parseKind(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dag: line %d: %v", lineNo, err)
			}
			exec, ok := atoiBytes(fields[3])
			if !ok {
				return nil, fmt.Errorf("dag: line %d: bad exec %q", lineNo, fields[3])
			}
			name := ""
			if nf == 5 && string(fields[4]) != "-" {
				name = string(fields[4])
			}
			if lim.MaxNodes > 0 && g.NumNodes() >= lim.MaxNodes {
				return nil, &LimitError{Kind: "nodes", Max: lim.MaxNodes, Line: lineNo}
			}
			got := g.AddNode(Node{Name: name, Kind: kind, Exec: exec})
			if int(got) != id {
				return nil, fmt.Errorf("dag: line %d: node ids must be dense and in order: declared %d, assigned %d", lineNo, id, got)
			}
		case "edge":
			if nf != 6 {
				return nil, fmt.Errorf("dag: line %d: want 'edge <from> <to> <size> <cachetime> <edramtime>', got %q", lineNo, line)
			}
			var nums [5]int
			for i := range nums {
				v, ok := atoiBytes(fields[i+1])
				if !ok {
					return nil, fmt.Errorf("dag: line %d: bad field %q", lineNo, fields[i+1])
				}
				nums[i] = v
			}
			from, to, size, ct, et := nums[0], nums[1], nums[2], nums[3], nums[4]
			if from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() {
				return nil, fmt.Errorf("dag: line %d: edge %d->%d references undeclared node", lineNo, from, to)
			}
			if lim.MaxEdges > 0 && g.NumEdges() >= lim.MaxEdges {
				return nil, &LimitError{Kind: "edges", Max: lim.MaxEdges, Line: lineNo}
			}
			g.edges = append(g.edges, Edge{From: NodeID(from), To: NodeID(to), Size: size, CacheTime: ct, EDRAMTime: et})
		default:
			return nil, fmt.Errorf("dag: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dag: reading graph: %w", err)
	}
	g.link()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.validated = true
	return g, nil
}

func parseKind(s []byte) (OpKind, error) {
	switch string(s) {
	case "conv":
		return OpConv, nil
	case "pool":
		return OpPool, nil
	case "fc":
		return OpFC, nil
	case "input":
		return OpInput, nil
	case "output":
		return OpOutput, nil
	default:
		return 0, fmt.Errorf("unknown op kind %q", s)
	}
}

// WriteDOT emits the graph in Graphviz DOT syntax for visual
// inspection.  Conv vertices are boxes, pool vertices are ellipses;
// edge labels show size and the cache/eDRAM transfer times.
func WriteDOT(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", sanitizeToken(g.Name(), "G"))
	fmt.Fprintf(bw, "  rankdir=TB;\n  node [fontsize=10];\n")
	for i := range g.Nodes() {
		n := &g.Nodes()[i]
		shape := "box"
		switch n.Kind {
		case OpPool:
			shape = "ellipse"
		case OpFC:
			shape = "hexagon"
		case OpInput, OpOutput:
			shape = "plaintext"
		}
		label := n.Name
		if label == "" {
			label = fmt.Sprintf("T%d", n.ID+1)
		}
		fmt.Fprintf(bw, "  n%d [shape=%s,label=\"%s\\nc=%d\"];\n", n.ID, shape, label, n.Exec)
	}
	for i := range g.Edges() {
		e := &g.Edges()[i]
		fmt.Fprintf(bw, "  n%d -> n%d [label=\"sp=%d t=%d/%d\"];\n", e.From, e.To, e.Size, e.CacheTime, e.EDRAMTime)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
