package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/pim"
)

// LatencyRow exposes the latency/throughput trade-off the paper leaves
// implicit: Para-CONV's software pipeline delivers one result per
// period but an individual inference traverses R_max + 1 pipeline
// stages, while SPARTA completes each inference in one makespan with
// nothing in flight behind it.  For batch workloads throughput wins;
// for a single latency-critical request the baseline can be
// preferable — the study quantifies where.
type LatencyRow struct {
	Benchmark Benchmark
	// ParaLatency is the steady-state arrival-to-completion time of
	// one iteration under Para-CONV: (R_max + 1) periods.
	ParaLatency int
	// ParaThroughput is iterations per time unit in steady state.
	ParaThroughput float64
	// SpartaLatency is the baseline's single-iteration makespan.
	SpartaLatency int
	// SpartaThroughput is the baseline's iterations per time unit.
	SpartaThroughput float64
}

// BreakEvenIterations returns the smallest batch size at which
// Para-CONV's total time (prologue + pipeline) undercuts the
// baseline's, i.e. where throughput starts paying for latency.
func (r LatencyRow) BreakEvenIterations() int {
	for n := 1; n <= 1<<20; n++ {
		para := float64(r.ParaLatency) + float64(n-1)/r.ParaThroughput
		sparta := float64(n) * float64(r.SpartaLatency)
		if para < sparta {
			return n
		}
	}
	return -1
}

// Latency computes the study at the given PE count.  One benchmark is
// one pool job; the solves are shared with Table 1 through the plan
// cache.
func (r *Runner) Latency(pes int) ([]LatencyRow, error) {
	cfg := pim.Neurocube(pes)
	rows := make([]LatencyRow, len(Suite))
	err := r.runJobs(len(Suite), func(i int) error {
		b := Suite[i]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		pc, err := r.planCell(g, cfg, planParaCONV)
		if err != nil {
			return fmt.Errorf("bench: latency %s: %w", b.Name, err)
		}
		sp, err := r.planCell(g, cfg, planSPARTA)
		if err != nil {
			return fmt.Errorf("bench: latency %s: %w", b.Name, err)
		}
		rows[i] = LatencyRow{
			Benchmark:        b,
			ParaLatency:      (pc.RMax + 1) * pc.Iter.Period,
			ParaThroughput:   float64(pc.ConcurrentIterations) / float64(pc.Iter.Period),
			SpartaLatency:    sp.Iter.Period,
			SpartaThroughput: 1 / float64(sp.Iter.Period),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatLatency renders the study.
func FormatLatency(rows []LatencyRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tPara lat\tPara tput\tSPARTA lat\tSPARTA tput\tbreak-even batch")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.4f\t%d\t%.4f\t%d\n",
			r.Benchmark.Name, r.ParaLatency, r.ParaThroughput,
			r.SpartaLatency, r.SpartaThroughput, r.BreakEvenIterations())
	}
	w.Flush()
	return b.String()
}
