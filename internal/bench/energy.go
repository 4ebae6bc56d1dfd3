package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/pim"
)

// EnergyRow is one benchmark's data-movement energy on one
// architecture — the paper's future-work study (§5: "study energy
// issue for PIM architecture with CNN applications").
type EnergyRow struct {
	Benchmark Benchmark
	Arch      string
	// ParaPJ and SpartaPJ are total data-movement energies over
	// Iterations iterations (picojoules); Para-CONV runs the
	// single-kernel configuration so both schemes devote the full
	// array cache to one iteration.
	ParaPJ   float64
	SpartaPJ float64
}

// Saving returns the relative energy saving of Para-CONV.
func (r EnergyRow) Saving() float64 {
	if r.SpartaPJ <= 0 { // energies are sums of non-negative terms
		return 0
	}
	return 1 - r.ParaPJ/r.SpartaPJ
}

// Energy measures data-movement energy for every benchmark on every
// built-in architecture preset at the given PE count.  Each
// (architecture, benchmark, planner) cell is one pool job; the two
// cells of a row write disjoint fields.
func (r *Runner) Energy(pes int) ([]EnergyRow, error) {
	presets := pim.Presets(pes)
	rows := make([]EnergyRow, len(presets)*len(Suite))
	for ai, cfg := range presets {
		for bi, b := range Suite {
			rows[ai*len(Suite)+bi] = EnergyRow{Benchmark: b, Arch: cfg.Name}
		}
	}
	kinds := []planKind{planParaSingle, planSPARTA}
	err := r.runJobs(len(rows)*len(kinds), func(i int) error {
		ri := i / len(kinds)
		kind := kinds[i%len(kinds)]
		cfg := presets[ri/len(Suite)]
		b := Suite[ri%len(Suite)]
		g, err := b.Graph()
		if err != nil {
			return err
		}
		_, stats, err := r.simCell(g, cfg, kind, Iterations)
		if err != nil {
			return fmt.Errorf("bench: energy %s on %s: %w", b.Name, cfg.Name, err)
		}
		if kind == planParaSingle {
			rows[ri].ParaPJ = stats.EnergyPJ
		} else {
			rows[ri].SpartaPJ = stats.EnergyPJ
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatEnergy renders the energy study grouped by architecture.
func FormatEnergy(rows []EnergyRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "arch\tbenchmark\tSPARTA nJ\tPara nJ\tsaving")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.1f%%\n",
			r.Arch, r.Benchmark.Name, r.SpartaPJ/1000, r.ParaPJ/1000, 100*r.Saving())
	}
	w.Flush()
	return b.String()
}

// CSVEnergy writes the energy study as CSV.
func CSVEnergy(w io.Writer, rows []EnergyRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"arch", "benchmark", "sparta_pj", "para_pj", "saving"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Arch, r.Benchmark.Name,
			strconv.FormatFloat(r.SpartaPJ, 'f', 1, 64),
			strconv.FormatFloat(r.ParaPJ, 'f', 1, 64),
			strconv.FormatFloat(r.Saving(), 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
