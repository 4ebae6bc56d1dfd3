package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/retime"
	"repro/internal/sched"
)

// CaseMixRow is one benchmark's distribution over the six Figure-4
// cases at the objective schedule — how many IPRs are placement-
// indifferent (1, 4, 6) versus cache-profitable (2, 3, 5).
type CaseMixRow struct {
	Benchmark Benchmark
	Counts    map[retime.Case]int
}

// Profitable returns the number of IPRs whose placement changes their
// relative retiming value (cases 2, 3 and 5).
func (r CaseMixRow) Profitable() int {
	return r.Counts[retime.Case2] + r.Counts[retime.Case3] + r.Counts[retime.Case5]
}

// CaseMix classifies every benchmark's IPRs against the a-priori
// objective schedule (Figure 4's six cases, §3.2).  One benchmark is
// one pool job.
func (r *Runner) CaseMix(pes int) ([]CaseMixRow, error) {
	rows := make([]CaseMixRow, len(Suite))
	err := r.runJobs(len(Suite), func(i int) error {
		b := Suite[i]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		iter, err := sched.Objective(g, pes)
		if err != nil {
			return fmt.Errorf("bench: case mix %s: %w", b.Name, err)
		}
		classes, err := retime.Classify(g, iter.Timing())
		if err != nil {
			return fmt.Errorf("bench: case mix %s: %w", b.Name, err)
		}
		rows[i] = CaseMixRow{Benchmark: b, Counts: retime.CaseHistogram(classes)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatCaseMix renders the distribution.
func FormatCaseMix(rows []CaseMixRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tcase1\tcase2\tcase3\tcase4\tcase5\tcase6\tprofitable")
	order := []retime.Case{retime.Case1, retime.Case2, retime.Case3, retime.Case4, retime.Case5, retime.Case6}
	for _, r := range rows {
		fmt.Fprintf(w, "%s", r.Benchmark.Name)
		for _, c := range order {
			fmt.Fprintf(w, "\t%d", r.Counts[c])
		}
		fmt.Fprintf(w, "\t%d\n", r.Profitable())
	}
	w.Flush()
	return b.String()
}
