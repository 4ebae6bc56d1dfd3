package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/wire"
)

// PerfSchema versions the BENCH_*.json layout; bump it when a record
// field changes meaning so stale baselines are rejected instead of
// silently compared.
const PerfSchema = "paraconv-bench/v1"

// PerfRecord is one measured hot-path workload.
type PerfRecord struct {
	// Name identifies the workload (stable across runs; the compare
	// step joins on it).
	Name string `json:"name"`
	// NsPerOp, BytesPerOp and AllocsPerOp are per-operation averages
	// over the measurement window (runtime.MemStats deltas).
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// OpsPerSec is the completed-operation rate.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Ops is how many operations the window fitted (a confidence
	// signal: single-digit counts are noisy).
	Ops int `json:"ops"`
}

// PerfReport is the full suite result, serialized to BENCH_<n>.json.
type PerfReport struct {
	Schema      string       `json:"schema"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	CreatedUnix int64        `json:"created_unix"`
	Short       bool         `json:"short"`
	Records     []PerfRecord `json:"records"`
}

// Lookup returns the record with the given name, or nil.
func (r *PerfReport) Lookup(name string) *PerfRecord {
	for i := range r.Records {
		if r.Records[i].Name == name {
			return &r.Records[i]
		}
	}
	return nil
}

// measureLoop runs fn repeatedly for the target duration and averages
// cost per operation from wall time and whole-process MemStats deltas.
// One warm-up call runs first so pools reach their steady state before
// the window opens.
func measureLoop(ctx context.Context, target time.Duration, fn func() error) (PerfRecord, error) {
	if err := fn(); err != nil {
		return PerfRecord{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for time.Since(start) < target {
		if err := ctx.Err(); err != nil {
			return PerfRecord{}, err
		}
		if err := fn(); err != nil {
			return PerfRecord{}, err
		}
		ops++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return PerfRecord{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		Ops:         ops,
	}, nil
}

// perfWorkload is one named row of the suite.
type perfWorkload struct {
	name string
	fn   func() error
}

// perfWorkloads builds the suite's fixtures once and returns the
// workloads in report order.  Every row is a single-goroutine kernel
// with no socket and no file, so the code alone determines its number;
// the daemon's serving paths are measured by `go run ./benchmark`.
func perfWorkloads(ctx context.Context) ([]perfWorkload, error) {
	const vertices = 1200
	cfg := pim.Neurocube(32)
	g, err := synth.Generate(synth.Params{
		Name:     fmt.Sprintf("scale-%d", vertices),
		Vertices: vertices,
		Edges:    vertices * 26 / 10,
		Seed:     int64(9000 + vertices),
	})
	if err != nil {
		return nil, fmt.Errorf("bench: perf fixture: %w", err)
	}
	plan, err := sched.ParaCONVCtx(ctx, g, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: perf fixture plan: %w", err)
	}
	kernel := plan.Iter.Graph
	tm := plan.Iter.Timing()
	classes, err := retime.Classify(kernel, tm)
	if err != nil {
		return nil, fmt.Errorf("bench: perf fixture classify: %w", err)
	}
	items, err := core.BuildItems(kernel, classes, tm)
	if err != nil {
		return nil, fmt.Errorf("bench: perf fixture items: %w", err)
	}
	capacity := cfg.TotalCacheUnits()
	chosen := make([]bool, len(items))

	var gtext bytes.Buffer
	if err := dag.WriteText(&gtext, g); err != nil {
		return nil, fmt.Errorf("bench: perf fixture encode: %w", err)
	}
	encoded := gtext.Bytes()
	bframe := dag.AppendBinary(nil, g)
	var grd bytes.Reader
	limits := dag.Limits{MaxNodes: 20000, MaxEdges: 200000}

	gPlan, err := synth.Generate(synth.Params{Name: "perfplan", Vertices: 200, Edges: 520, Seed: 9200})
	if err != nil {
		return nil, fmt.Errorf("bench: perf fixture: %w", err)
	}
	planSmall, err := sched.ParaCONVCtx(ctx, gPlan, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: perf fixture small plan: %w", err)
	}
	payload := wire.AppendPlan(nil, planSmall)

	return []perfWorkload{
		{"core/knapsack_bitset_1200", func() error {
			_, err := core.KnapsackInto(ctx, chosen, items, capacity)
			return err
		}},
		{"core/knapsack_fulltable_1200", func() error {
			core.KnapsackFullTable(items, capacity)
			return nil
		}},
		{"core/knapsack_profit_1200", func() error {
			core.KnapsackProfit(items, capacity)
			return nil
		}},
		{"dag/readtext_1200", func() error {
			grd.Reset(encoded)
			_, err := dag.ReadTextLimits(&grd, limits)
			return err
		}},
		{"dag/readbinary_1200", func() error {
			_, err := dag.DecodeBinary(bframe, limits)
			return err
		}},
		// These two rows time the solver and simulator under a context
		// that never cancels, as their BENCH baselines were taken: the
		// caller's cancellable ctx would add a lock to every per-row and
		// per-edge ctx check and move the rows off those baselines.
		{"sched/paraconv_plan_200", func() error {
			_, err := sched.ParaCONVCtx(context.Background(), gPlan, cfg)
			return err
		}},
		{"sim/run_1200x100", func() error {
			_, err := sim.RunCtx(context.Background(), plan, cfg, 100)
			return err
		}},
		// The encoder of the frame the durable store holds: pure CPU
		// into a reused buffer.  Named for the store so the row joins
		// BENCH_3 and BENCH_4.
		{"store/plan_encode_200", func() error {
			wire.AppendPlan(payload[:0], planSmall)
			return nil
		}},
	}, nil
}

// RunPerf measures every kernel workload and returns the populated
// report.  short shrinks the measurement windows for CI smoke use (the
// numbers get noisier; the compare gate should be off).
func RunPerf(ctx context.Context, short bool) (*PerfReport, error) {
	target := time.Second
	if short {
		target = 150 * time.Millisecond
	}
	rep := &PerfReport{
		Schema:      PerfSchema,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CreatedUnix: time.Now().Unix(),
		Short:       short,
	}
	workloads, err := perfWorkloads(ctx)
	if err != nil {
		return nil, err
	}
	for _, w := range workloads {
		rec, err := measureLoop(ctx, target, w.fn)
		if err != nil {
			return nil, fmt.Errorf("bench: perf %s: %w", w.name, err)
		}
		rec.Name = w.name
		rep.Records = append(rep.Records, rec)
	}
	return rep, nil
}

// WritePerfJSON serializes the report, indented for diff-friendly
// commits.
func WritePerfJSON(w io.Writer, rep *PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadPerfFile loads a previously written BENCH_*.json and checks the
// schema tag.
func ReadPerfFile(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.Schema != PerfSchema {
		return nil, fmt.Errorf("bench: %s has schema %q; this build expects %q", path, rep.Schema, PerfSchema)
	}
	return rep, nil
}

// PerfDelta is one workload-metric comparison against a baseline.
type PerfDelta struct {
	Name   string
	Metric string // "ns/op" or "allocs/op"
	Prev   float64
	Cur    float64
	// Pct is the relative change in the metric, positive = worse.
	Pct float64
	// Regressed is set when the change crosses the gate's tolerance.
	Regressed bool
}

// PerfComparison is a run joined to a baseline by workload name.
type PerfComparison struct {
	// Deltas holds two entries (ns/op, allocs/op) per workload both
	// sides measured, regressions first.
	Deltas []PerfDelta
	// OnlyBaseline and New name the workloads one side lacks.  They are
	// not gated, so they are reported: a renamed or retired row must not
	// leave the gate unnoticed.
	OnlyBaseline []string
	New          []string
}

// perfTolerancePct is the regression gate: a metric more than 10%
// worse than the baseline fails the run.
const perfTolerancePct = 10.0

// allocSlack absorbs sub-integer allocs/op jitter: a workload whose
// baseline rounds to zero allocations may drift by this many objects
// before the percentage test means anything.
const allocSlack = 2.0

// ComparePerf joins two reports by workload name and flags
// regressions: ns/op or allocs/op more than 10% worse.
func ComparePerf(prev, cur *PerfReport) PerfComparison {
	var out PerfComparison
	for i := range prev.Records {
		if name := prev.Records[i].Name; cur.Lookup(name) == nil {
			out.OnlyBaseline = append(out.OnlyBaseline, name)
		}
	}
	for i := range cur.Records {
		c := &cur.Records[i]
		p := prev.Lookup(c.Name)
		if p == nil {
			out.New = append(out.New, c.Name)
			continue
		}
		out.Deltas = append(out.Deltas, PerfDelta{
			Name: c.Name, Metric: "ns/op", Prev: p.NsPerOp, Cur: c.NsPerOp,
			Pct:       pctWorse(p.NsPerOp, c.NsPerOp),
			Regressed: c.NsPerOp > p.NsPerOp*(1+perfTolerancePct/100),
		}, PerfDelta{
			Name: c.Name, Metric: "allocs/op", Prev: p.AllocsPerOp, Cur: c.AllocsPerOp,
			Pct:       pctWorse(p.AllocsPerOp, c.AllocsPerOp),
			Regressed: c.AllocsPerOp > p.AllocsPerOp*(1+perfTolerancePct/100)+allocSlack,
		})
	}
	sort.SliceStable(out.Deltas, func(a, b int) bool {
		da, db := out.Deltas[a], out.Deltas[b]
		if da.Regressed != db.Regressed {
			return da.Regressed
		}
		return da.Pct > db.Pct
	})
	return out
}

func pctWorse(base, cur float64) float64 {
	const eps = 1e-12 // all metrics are non-negative; treat sub-eps as zero
	if math.Abs(base) < eps {
		if math.Abs(cur) < eps {
			return 0
		}
		return 100
	}
	return (cur - base) / base * 100
}

// GatePerf returns an error naming every regressed metric, or nil.
func GatePerf(deltas []PerfDelta) error {
	var bad []string
	for _, d := range deltas {
		if d.Regressed {
			bad = append(bad, fmt.Sprintf("%s %s %.4g -> %.4g (%+.1f%%)", d.Name, d.Metric, d.Prev, d.Cur, d.Pct))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("bench: %d metrics regressed past %.0f%%:\n  %s",
		len(bad), perfTolerancePct, strings.Join(bad, "\n  "))
}

// FormatPerf renders a report as an aligned table.
func FormatPerf(rep *PerfReport) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tns/op\tB/op\tallocs/op\tops/s\tops")
	for i := range rep.Records {
		r := &rep.Records[i]
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.1f\t%.1f\t%d\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.OpsPerSec, r.Ops)
	}
	tw.Flush()
	return sb.String()
}

// FormatPerfCompare renders the comparison, regressions first, then
// the workloads only one side has.
func FormatPerfCompare(c PerfComparison) string {
	var sb strings.Builder
	if len(c.Deltas) == 0 {
		sb.WriteString("no common workloads to compare\n")
	} else {
		tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcurrent\tchange\t")
		for _, d := range c.Deltas {
			mark := ""
			if d.Regressed {
				mark = "REGRESSED"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%s\n", d.Name, d.Metric, d.Prev, d.Cur, d.Pct, mark)
		}
		tw.Flush()
	}
	if len(c.OnlyBaseline) > 0 {
		fmt.Fprintf(&sb, "only in baseline: %s\n", strings.Join(c.OnlyBaseline, ", "))
	}
	if len(c.New) > 0 {
		fmt.Fprintf(&sb, "new: %s\n", strings.Join(c.New, ", "))
	}
	return sb.String()
}
