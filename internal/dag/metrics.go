package dag

import "fmt"

// WidthProfile returns the number of vertices at each ASAP level — the
// graph's parallelism profile.  MaxWidth bounds how many PEs a
// dependency-respecting scheduler can keep busy simultaneously, which
// is exactly where the SPARTA baseline's scaling saturates.  It
// returns ErrCyclic (wrapped) if the graph is not acyclic.
func (g *Graph) WidthProfile() ([]int, error) {
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	widths := make([]int, len(levels))
	for i, l := range levels {
		widths[i] = len(l)
	}
	return widths, nil
}

// MaxWidth returns the widest level of the ASAP decomposition, or 0
// for an empty graph.  It returns ErrCyclic (wrapped) if the graph is
// not acyclic.
func (g *Graph) MaxWidth() (int, error) {
	widths, err := g.WidthProfile()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, w := range widths {
		if w > max {
			max = w
		}
	}
	return max, nil
}

// PathCount returns the number of distinct source-to-sink paths.  On
// pathological graphs (path counts grow exponentially) it saturates at
// 2^40 rather than overflowing.  It returns ErrCyclic (wrapped) if the
// graph is not acyclic.
func (g *Graph) PathCount() (int64, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	const saturate = int64(1) << 40
	paths := make([]int64, g.NumNodes())
	total := int64(0)
	for _, v := range order {
		if g.InDegree(v) == 0 {
			paths[v] = 1
		}
		for _, eid := range g.Out(v) {
			w := g.Edge(eid).To
			paths[w] += paths[v]
			if paths[w] > saturate {
				paths[w] = saturate
			}
		}
		if g.OutDegree(v) == 0 {
			total += paths[v]
			if total > saturate {
				total = saturate
			}
		}
	}
	return total, nil
}

// Summary returns a one-paragraph human description including the
// parallelism metrics.  For a cyclic (hence invalid) graph it returns
// the defect description instead.
func (g *Graph) Summary() string {
	st, err := g.ComputeStats()
	if err != nil {
		return fmt.Sprintf("%s: %v", g.name, err)
	}
	width, err := g.MaxWidth()
	if err != nil {
		return fmt.Sprintf("%s: %v", g.name, err)
	}
	paths, err := g.PathCount()
	if err != nil {
		return fmt.Sprintf("%s: %v", g.name, err)
	}
	return fmt.Sprintf("%s; width max %d, %d paths", st, width, paths)
}
