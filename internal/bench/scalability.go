package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/pim"
	"repro/internal/synth"
)

// ScalabilityRow is one synthetic graph size in the scalability sweep
// (the paper evaluates synthetic task graphs "with over 500
// convolutions"; this sweep continues well past that).
type ScalabilityRow struct {
	Vertices int
	Edges    int
	// Ratio is Para-CONV/SPARTA total time at the sweep's PE count.
	Ratio float64
	// RMax and Period describe the Para-CONV plan.
	RMax   int
	Period int
	// Competitors is how many IPRs competed for cache.
	CachedIPRs int
}

// Scalability sweeps synthetic graph sizes at the given PE count,
// showing that the advantage and the planner's outputs behave
// smoothly beyond the paper's largest benchmark.  One graph size is
// one pool job (the biggest sizes dominate, so finer cells would not
// help wall clock).
func (r *Runner) Scalability(pes int, sizes []int) ([]ScalabilityRow, error) {
	if len(sizes) == 0 {
		sizes = []int{128, 256, 512, 1024, 2048}
	}
	cfg := pim.Neurocube(pes)
	rows := make([]ScalabilityRow, len(sizes))
	err := r.runJobs(len(sizes), func(i int) error {
		v := sizes[i]
		e := v * 26 / 10 // the suite's |E|/|V| is about 2.6
		g, err := synth.Generate(synth.Params{
			Name:     fmt.Sprintf("scale-%d", v),
			Vertices: v,
			Edges:    e,
			Seed:     int64(9000 + v),
		})
		if err != nil {
			return fmt.Errorf("bench: scalability %d: %w", v, err)
		}
		pc, err := r.planCell(g, cfg, planParaCONV)
		if err != nil {
			return fmt.Errorf("bench: scalability %d para-conv: %w", v, err)
		}
		sp, err := r.planCell(g, cfg, planSPARTA)
		if err != nil {
			return fmt.Errorf("bench: scalability %d sparta: %w", v, err)
		}
		rows[i] = ScalabilityRow{
			Vertices:   v,
			Edges:      e,
			Ratio:      float64(pc.TotalTime(Iterations)) / float64(sp.TotalTime(Iterations)),
			RMax:       pc.RMax,
			Period:     pc.Iter.Period,
			CachedIPRs: pc.CachedIPRs,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatScalability renders the sweep.
func FormatScalability(rows []ScalabilityRow, pes int) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "|V|\t|E|\tPara/SPARTA\tR_max\tperiod\tcached (at %d PEs)\n", pes)
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.3f\t%d\t%d\t%d\n",
			r.Vertices, r.Edges, r.Ratio, r.RMax, r.Period, r.CachedIPRs)
	}
	w.Flush()
	return b.String()
}
