package bench

import (
	"fmt"
	"sync"

	"repro/internal/cnn"
	"repro/internal/dag"
	"repro/internal/pim"
)

// The quantitative reproduction uses synthetic graphs with the paper's
// exact |V|/|E| (see suite.go).  This file provides the complementary
// "real-life" mode: the same experiments over task graphs lowered from
// actual CNN layer models of each application class (internal/cnn's
// BenchmarkNetwork), which exercises the full front end and shows that
// the headline result is not an artifact of the generator.

// realGraphMemo memoizes CNN lowering per application name, mirroring
// Benchmark.Graph's memoization: one lowering per process, one shared
// *dag.Graph pointer for every experiment that asks.
var realGraphMemo sync.Map // string -> *graphOnce

// RealGraph lowers the named application's layer model to a task
// graph under the Neurocube latency model.  The result is memoized
// per name.
func RealGraph(name string) (*dag.Graph, error) {
	v, _ := realGraphMemo.LoadOrStore(name, &graphOnce{})
	m := v.(*graphOnce)
	m.once.Do(func() {
		net, err := cnn.BenchmarkNetwork(name)
		if err != nil {
			m.err = err
			return
		}
		g, err := cnn.ToTaskGraph(net, cnn.LowerOptions{Arch: pim.Neurocube(PECounts[0])})
		if err != nil {
			m.err = fmt.Errorf("bench: lowering %q: %w", name, err)
			return
		}
		m.g = g
	})
	return m.g, m.err
}

// RealTable1Row mirrors Table1Row for the CNN-derived graphs.
type RealTable1Row struct {
	Name     string
	Vertices int
	Edges    int
	Sparta   []int
	ParaCONV []int
}

// Ratio returns Para-CONV's time as a fraction of SPARTA's at PE
// index i.
func (r RealTable1Row) Ratio(i int) float64 {
	return float64(r.ParaCONV[i]) / float64(r.Sparta[i])
}

// Table1Real runs the Table 1 experiment over the CNN-derived
// application graphs instead of the exact-size synthetic suite.  One
// application is one pool job (its first job also pays the memoized
// lowering).
func (r *Runner) Table1Real() ([]RealTable1Row, error) {
	names := cnn.BenchmarkNetworkNames()
	rows := make([]RealTable1Row, len(names))
	err := r.runJobs(len(names), func(i int) error {
		name := names[i]
		g, err := RealGraph(name)
		if err != nil {
			return err
		}
		row := RealTable1Row{
			Name:     name,
			Vertices: g.NumNodes(),
			Edges:    g.NumEdges(),
			Sparta:   make([]int, len(PECounts)),
			ParaCONV: make([]int, len(PECounts)),
		}
		for pi, pes := range PECounts {
			cfg := pim.Neurocube(pes)
			sp, err := r.planCell(g, cfg, planSPARTA)
			if err != nil {
				return fmt.Errorf("bench: real table1 %s sparta %d PEs: %w", name, pes, err)
			}
			pc, err := r.planCell(g, cfg, planParaCONV)
			if err != nil {
				return fmt.Errorf("bench: real table1 %s para-conv %d PEs: %w", name, pes, err)
			}
			row.Sparta[pi] = sp.TotalTime(Iterations)
			row.ParaCONV[pi] = pc.TotalTime(Iterations)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTable1Real renders the real-application Table 1.
func FormatTable1Real(rows []RealTable1Row) string {
	t1 := make([]Table1Row, len(rows))
	for i, r := range rows {
		t1[i] = Table1Row{
			Benchmark: Benchmark{Name: r.Name, Vertices: r.Vertices, Edges: r.Edges},
			Sparta:    r.Sparta,
			ParaCONV:  r.ParaCONV,
		}
	}
	return FormatTable1(t1)
}
