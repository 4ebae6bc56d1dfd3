package sched

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pim"
)

// WriteGantt renders an ASCII Gantt chart of one iteration schedule,
// one row per PE, one column per time unit, matching the style of the
// paper's Figure 3.  Vertices print as their 1-based index (T1, T2,
// ...) when they fit, '#' otherwise; idle time prints as '.'.
func WriteGantt(w io.Writer, s *IterationSchedule) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s: %d PEs, period %d, utilization %.0f%%\n",
		s.Graph.Name(), s.PEs, s.Period, 100*s.Utilization())

	colWidth := 4
	byPE := make([][]Task, s.PEs)
	for i := range s.Tasks {
		t := s.Tasks[i]
		byPE[t.PE] = append(byPE[t.PE], t)
	}
	// Header ruler.
	fmt.Fprintf(bw, "%6s|", "")
	for c := 0; c < s.Period; c++ {
		fmt.Fprintf(bw, "%*d", colWidth, c+1)
	}
	fmt.Fprintln(bw)
	for pe := 0; pe < s.PEs; pe++ {
		tasks := byPE[pe]
		sort.Slice(tasks, func(a, b int) bool { return tasks[a].Start < tasks[b].Start })
		cells := make([]string, s.Period)
		for c := range cells {
			cells[c] = "."
		}
		for _, t := range tasks {
			label := "T" + strconv.Itoa(int(t.Node)+1)
			if len(label) > colWidth-1 {
				label = "#"
			}
			for c := t.Start; c < t.Finish && c < s.Period; c++ {
				cells[c] = label
			}
		}
		fmt.Fprintf(bw, "PE%-4d|", pe+1)
		for _, cell := range cells {
			fmt.Fprintf(bw, "%*s", colWidth, cell)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Summary renders a one-paragraph description of a plan for CLI and
// example output.
func (p *Plan) Summary(iterations int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %d PEs: period %d", p.Scheme, p.Iter.PEs, p.Iter.Period)
	if p.ConcurrentIterations > 1 {
		fmt.Fprintf(&b, " x%d concurrent iterations", p.ConcurrentIterations)
	}
	if p.RMax > 0 {
		fmt.Fprintf(&b, ", R_max %d (prologue %d)", p.RMax, p.PrologueTime())
	}
	fmt.Fprintf(&b, ", %d IPRs cached", p.CachedIPRs)
	fmt.Fprintf(&b, "; %d iterations in %d time units (%.3f iters/unit)",
		iterations, p.TotalTime(iterations), p.Throughput(iterations))
	return b.String()
}

// CacheSummary tabulates the placement decision per IPR edge.
func (p *Plan) CacheSummary() string {
	var b strings.Builder
	g := p.Iter.Graph
	cached, spilled := 0, 0
	for i := range g.Edges() {
		if len(p.Iter.Assignment) == g.NumEdges() && p.Iter.Assignment[i] == pim.InCache {
			cached++
		} else {
			spilled++
		}
	}
	fmt.Fprintf(&b, "IPR placement: %d in on-chip cache, %d in eDRAM (of %d)", cached, spilled, g.NumEdges())
	return b.String()
}
