package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"

	"repro/internal/dag"
	"repro/internal/pim"
)

// SensitivityRow summarizes how one benchmark's Para-CONV outcome
// responds to measurement noise in the task characterization.  The
// paper's pipeline assumes exact execution and transfer times; a
// production system estimates them from profiling, so the outputs
// should degrade gracefully under perturbation.
type SensitivityRow struct {
	Benchmark Benchmark
	// BaseRatio is Para/SPARTA with exact weights.
	BaseRatio float64
	// MinRatio and MaxRatio bound the ratio over the perturbed
	// trials.
	MinRatio float64
	MaxRatio float64
	// RMaxSpread is max-min of R_max over the trials.
	RMaxSpread int
	// Trials is the number of perturbed replans.
	Trials int
}

// Sensitivity perturbs every execution time by up to ±noise
// (fraction, e.g. 0.25) across `trials` seeded replans of each
// benchmark and reports the spread of the headline outputs.  One
// benchmark is one pool job, and each job owns a *rand.Rand seeded
// from the benchmark — trials are deterministic regardless of which
// worker runs them.
func (r *Runner) Sensitivity(pes int, noise float64, trials int) ([]SensitivityRow, error) {
	if noise <= 0 || noise >= 1 {
		return nil, fmt.Errorf("bench: sensitivity noise %g; want in (0,1)", noise)
	}
	if trials < 1 {
		return nil, fmt.Errorf("bench: sensitivity trials %d; want >= 1", trials)
	}
	cfg := pim.Neurocube(pes)
	rows := make([]SensitivityRow, len(Suite))
	err := r.runJobs(len(Suite), func(i int) error {
		b := Suite[i]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		base, err := r.pairRatio(g, cfg)
		if err != nil {
			return fmt.Errorf("bench: sensitivity %s: %w", b.Name, err)
		}
		row := SensitivityRow{
			Benchmark: b,
			BaseRatio: base,
			MinRatio:  base,
			MaxRatio:  base,
			Trials:    trials,
		}
		rmaxMin, rmaxMax := -1, -1
		rng := rand.New(rand.NewSource(b.Seed * 7919))
		for trial := 0; trial < trials; trial++ {
			pg := Perturb(g, noise, rng)
			ratio, err := r.pairRatio(pg, cfg)
			if err != nil {
				return fmt.Errorf("bench: sensitivity %s trial %d: %w", b.Name, trial, err)
			}
			if ratio < row.MinRatio {
				row.MinRatio = ratio
			}
			if ratio > row.MaxRatio {
				row.MaxRatio = ratio
			}
			plan, err := r.planCell(pg, cfg, planParaCONV)
			if err != nil {
				return err
			}
			if rmaxMin < 0 || plan.RMax < rmaxMin {
				rmaxMin = plan.RMax
			}
			if plan.RMax > rmaxMax {
				rmaxMax = plan.RMax
			}
		}
		row.RMaxSpread = rmaxMax - rmaxMin
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Perturb returns a copy of the graph with every execution time
// multiplied by a factor drawn uniformly from [1-noise, 1+noise]
// (minimum 1 time unit); transfer times are perturbed the same way,
// preserving EDRAMTime >= CacheTime.
func Perturb(g *dag.Graph, noise float64, rng *rand.Rand) *dag.Graph {
	out := g.Clone()
	scale := func(v int) int {
		f := 1 + noise*(2*rng.Float64()-1)
		s := int(float64(v)*f + 0.5)
		if s < 1 {
			s = 1
		}
		return s
	}
	for i := 0; i < out.NumNodes(); i++ {
		n := out.Node(dag.NodeID(i))
		n.Exec = scale(n.Exec)
	}
	for i := 0; i < out.NumEdges(); i++ {
		e := out.Edge(dag.EdgeID(i))
		e.EDRAMTime = scale(e.EDRAMTime)
		if e.EDRAMTime < e.CacheTime {
			e.EDRAMTime = e.CacheTime
		}
	}
	return out
}

// FormatSensitivity renders the study.
func FormatSensitivity(rows []SensitivityRow, noise float64) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\tbase ratio\tmin\tmax\tR_max spread\t(noise ±%.0f%%)\n", 100*noise)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%d\t\n",
			r.Benchmark.Name, r.BaseRatio, r.MinRatio, r.MaxRatio, r.RMaxSpread)
	}
	w.Flush()
	return b.String()
}
