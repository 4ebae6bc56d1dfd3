package dag

import (
	"fmt"
	"strconv"
)

// Replicate returns a graph containing `copies` disjoint copies of g.
// Copy k's vertex i gets ID k*|V|+i, so IDs within a copy keep their
// relative order; names are suffixed "#k" for k > 0.  Schedulers use
// this to unroll several iterations of an application into one kernel
// when the PE array is larger than a single iteration can fill.
//
// Replicate sits on the planning hot path (every Para-CONV solve with
// more than one group unrolls through it), so it builds the result in
// bulk: storage is reserved up front, edges are written in place and
// linked once (see link), and each copy's renamed vertex names are
// carved out of one shared string.
//
//paraconv:hotpath
func Replicate(g *Graph, copies int) (*Graph, error) {
	if copies < 1 {
		return nil, fmt.Errorf("dag: Replicate(%d); want >= 1", copies)
	}
	if copies == 1 {
		return g.Clone(), nil
	}
	n, m := g.NumNodes(), g.NumEdges()
	out := New(g.Name())
	out.Grow(copies*n, copies*m)
	var nameBuf []byte
	for k := 0; k < copies; k++ {
		// Stage this copy's renamed vertex names into one buffer so a
		// single string conversion backs all of them.
		names := ""
		if k > 0 {
			nameBuf = nameBuf[:0]
			for i := range g.Nodes() {
				if name := g.Nodes()[i].Name; name != "" {
					nameBuf = append(nameBuf, name...)
					nameBuf = append(nameBuf, '#')
					nameBuf = strconv.AppendInt(nameBuf, int64(k), 10)
				}
			}
			names = string(nameBuf)
		}
		off := 0
		for i := range g.Nodes() {
			node := g.Nodes()[i]
			if k > 0 && node.Name != "" {
				w := len(node.Name) + 1 + digits(k)
				node.Name = names[off : off+w]
				off += w
			}
			out.AddNode(node)
		}
	}
	for k := 0; k < copies; k++ {
		for i := range g.Edges() {
			e := g.Edges()[i]
			e.From += NodeID(k * n)
			e.To += NodeID(k * n)
			out.edges = append(out.edges, e)
		}
	}
	out.link()
	return out, nil
}

// digits returns the decimal digit count of the non-negative k.
func digits(k int) int {
	d := 1
	for k >= 10 {
		k /= 10
		d++
	}
	return d
}
