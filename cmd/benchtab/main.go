// Command benchtab regenerates the tables and figures of the paper's
// evaluation (§4) from the benchmark suite.
//
// Usage:
//
//	benchtab [-exp all|table1|table2|fig5|fig6|movement|...] [-csv]
//	         [-pes N] [-parallel N] [-timeout D] [-cachestats]
//	         [-http ADDR] [-http-hold D] [-metrics-out FILE]
//	         [-loglevel debug|info|warn|error] [-metrics=false]
//
// With -csv the selected experiment is written as CSV to stdout
// (one experiment at a time); otherwise human-readable tables print.
// -pes selects the PE count for the movement study (default 32).
// -parallel fans independent experiment cells out over N workers; the
// stdout is byte-identical to a serial run.  -timeout bounds the whole
// invocation (the solvers and simulators are cancellable mid-loop).
// -cachestats reports the plan cache's hit/miss/eviction counters on
// stderr when the run completes.
//
// -http serves the live debug endpoint (Prometheus text at /metrics,
// JSON at /metrics.json, pprof under /debug/pprof/) while the
// experiments run; an address without a host binds loopback only, and
// -http-hold keeps the server up after the experiments finish.
// -metrics-out writes a JSON metrics snapshot at exit, -loglevel
// raises structured-log verbosity, and -metrics=false disables
// instrument writes entirely.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/run"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code back to main so deferred cleanup
// (notably the -cachestats report) runs on every path; os.Exit inside
// would skip it.
func realMain() int {
	log.SetFlags(0)
	log.SetPrefix("benchtab: ")
	exp := flag.String("exp", "all", "experiment to run: all, table1, table2, fig5, fig6, movement, energy, real, compare, scalability, sensitivity, casemix, latency")
	csvOut := flag.Bool("csv", false, "emit CSV instead of a formatted table (single experiment only)")
	pes := flag.Int("pes", 32, "PE count for the movement study")
	outDir := flag.String("out", "", "write every experiment's CSV into this directory and exit")
	report := flag.String("report", "", "write a full Markdown reproduction report to this file and exit")
	parallel := flag.Int("parallel", 1, "worker count for independent experiment cells (output is identical to -parallel 1)")
	timeout := flag.Duration("timeout", 0, "abort the whole invocation after this duration (0 = no limit)")
	cacheStats := flag.Bool("cachestats", false, "print plan-cache hit/miss/eviction counters to stderr at exit")
	benchOut := flag.String("bench-out", "", "run the hot-path perf suite and write its JSON report (BENCH_<n>.json) to this file")
	benchCompare := flag.String("bench-compare", "", "baseline BENCH_*.json to compare the perf suite against (runs the suite even without -bench-out)")
	benchGate := flag.Bool("bench-gate", false, "with -bench-compare: exit nonzero when a metric regresses more than 10%")
	benchShort := flag.Bool("bench-short", false, "short perf measurement windows (CI smoke; numbers get noisier)")
	obsFlags := obs.RegisterFlags()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	obsCleanup, err := obsFlags.Setup(ctx)
	if err != nil {
		log.Print(err)
		return 2
	}
	defer obsCleanup()
	session := run.New(ctx)
	runner := bench.NewRunner(session, *parallel)
	defer func() {
		if *cacheStats {
			st := session.CacheStats()
			fmt.Fprintf(os.Stderr, "benchtab: plan cache: %d hits, %d misses, %d evictions, %d/%d entries\n",
				st.Hits, st.Misses, st.Evictions, st.Size, st.Bound)
		}
	}()

	if *benchOut != "" || *benchCompare != "" {
		return runPerfSuite(ctx, *benchOut, *benchCompare, *benchGate, *benchShort)
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := runner.WriteReport(f); err != nil {
			f.Close()
			log.Print(err)
			return 1
		}
		if err := f.Close(); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("wrote reproduction report to %s\n", *report)
		return 0
	}

	if *outDir != "" {
		if err := writeAllCSVs(runner, *outDir); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("wrote table1.csv, table2.csv, fig5.csv, fig6.csv, energy.csv to %s\n", *outDir)
		return 0
	}

	if *csvOut && *exp == "all" {
		log.Print("-csv requires a single experiment (-exp table1|table2|fig5|fig6)")
		return 1
	}

	runExp := func(name string) error {
		switch name {
		case "table1":
			rows, err := runner.Table1()
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVTable1(os.Stdout, rows)
			}
			fmt.Println("Table 1: total execution time, SPARTA vs Para-CONV (IMP% = Para/SPARTA x100)")
			fmt.Println(bench.FormatTable1(rows))
		case "table2":
			rows, err := runner.Table2()
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVTable2(os.Stdout, rows)
			}
			fmt.Println("Table 2: maximum retiming value of Para-CONV")
			fmt.Println(bench.FormatTable2(rows))
		case "fig5":
			rows, err := runner.Fig5()
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVFig5(os.Stdout, rows)
			}
			fmt.Println("Figure 5: per-iteration execution time, normalized to SPARTA on 64 PEs")
			fmt.Println(bench.FormatFig5(rows))
			fmt.Println(bench.ChartFig5(rows))
		case "fig6":
			rows, err := runner.Fig6()
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVFig6(os.Stdout, rows)
			}
			fmt.Println("Figure 6: intermediate processing results allocated to on-chip cache")
			fmt.Println(bench.FormatFig6(rows))
			fmt.Println(bench.ChartFig6(rows))
		case "latency":
			if *csvOut {
				return fmt.Errorf("latency has no CSV writer; drop -csv")
			}
			rows, err := runner.Latency(*pes)
			if err != nil {
				return err
			}
			fmt.Printf("Latency vs throughput (%d PEs)\n", *pes)
			fmt.Println(bench.FormatLatency(rows))
		case "casemix":
			if *csvOut {
				return fmt.Errorf("casemix has no CSV writer; drop -csv")
			}
			rows, err := runner.CaseMix(*pes)
			if err != nil {
				return err
			}
			fmt.Printf("Figure-4 case distribution at the %d-PE objective schedule\n", *pes)
			fmt.Println(bench.FormatCaseMix(rows))
		case "sensitivity":
			if *csvOut {
				return fmt.Errorf("sensitivity has no CSV writer; drop -csv")
			}
			rows, err := runner.Sensitivity(*pes, 0.25, 5)
			if err != nil {
				return err
			}
			fmt.Printf("Sensitivity study (%d PEs, 5 perturbed replans per benchmark)\n", *pes)
			fmt.Println(bench.FormatSensitivity(rows, 0.25))
		case "scalability":
			if *csvOut {
				return fmt.Errorf("scalability has no CSV writer; drop -csv")
			}
			rows, err := runner.Scalability(*pes, nil)
			if err != nil {
				return err
			}
			fmt.Printf("Scalability sweep (%d PEs, synthetic graphs past the paper's 500+ convolutions)\n", *pes)
			fmt.Println(bench.FormatScalability(rows, *pes))
		case "compare":
			if *csvOut {
				return fmt.Errorf("compare has no CSV writer; drop -csv")
			}
			t1, err := runner.Table1()
			if err != nil {
				return err
			}
			t2, err := runner.Table2()
			if err != nil {
				return err
			}
			f5, err := runner.Fig5()
			if err != nil {
				return err
			}
			f6, err := runner.Fig6()
			if err != nil {
				return err
			}
			fmt.Println("Paper vs measured, Table 1 (Para/SPARTA execution-time ratio):")
			fmt.Println(bench.CompareTable1(t1))
			fmt.Println("Paper vs measured, Table 2 (maximum retiming value):")
			fmt.Println(bench.CompareTable2(t2))
			fmt.Println("Qualitative trend agreement:")
			fmt.Println(bench.FormatTrends(bench.CheckTrends(t1, t2, f5, f6)))
		case "energy":
			rows, err := runner.Energy(*pes)
			if err != nil {
				return err
			}
			if *csvOut {
				return bench.CSVEnergy(os.Stdout, rows)
			}
			fmt.Printf("Energy study (%d PEs, all architecture presets, %d iterations)\n", *pes, bench.Iterations)
			fmt.Println(bench.FormatEnergy(rows))
		case "real":
			rows, err := runner.Table1Real()
			if err != nil {
				return err
			}
			if *csvOut {
				return fmt.Errorf("real has no CSV writer; drop -csv")
			}
			fmt.Println("Table 1 over CNN-derived application graphs (real layer models)")
			fmt.Println(bench.FormatTable1Real(rows))
		case "movement":
			rows, err := runner.Movement(*pes)
			if err != nil {
				return err
			}
			if *csvOut {
				return fmt.Errorf("movement has no CSV writer; drop -csv")
			}
			fmt.Printf("Data movement study (%d PEs, %d iterations)\n", *pes, bench.Iterations)
			fmt.Println(bench.FormatMovement(rows))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "fig5", "fig6", "movement", "energy", "real", "scalability", "sensitivity", "casemix", "latency", "compare"}
	}
	// Run every requested experiment even if one fails; report the
	// failures together at the end and exit nonzero.  A cancelled
	// context (Ctrl-C or -timeout) stops the sequence at the failure
	// point — later experiments would only repeat the same error.
	var failures []string
	for _, n := range names {
		if err := runExp(n); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", n, err))
			log.Printf("experiment %s failed: %v", n, err)
			if ctx.Err() != nil {
				break
			}
		}
	}
	if len(failures) > 0 {
		log.Printf("%d of %d experiments failed:", len(failures), len(names))
		for _, f := range failures {
			log.Printf("  %s", f)
		}
		return 1
	}
	return 0
}

// runPerfSuite measures the kernel workloads and hands the report to
// recordPerf — the machinery behind scripts/bench.sh.
func runPerfSuite(ctx context.Context, outPath, comparePath string, gate, short bool) int {
	rep, err := bench.RunPerf(ctx, short)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Print(bench.FormatPerf(rep))
	return recordPerf(rep, outPath, comparePath, gate)
}

// recordPerf compares rep against the baseline at comparePath, gates on
// regressions, and only then writes rep to outPath: a run that fails
// the gate must leave no file behind, or the next scripts/bench.sh
// would take the regressed numbers as its baseline.
func recordPerf(rep *bench.PerfReport, outPath, comparePath string, gate bool) int {
	if comparePath != "" {
		prev, err := bench.ReadPerfFile(comparePath)
		if err != nil {
			log.Print(err)
			return 1
		}
		cmp := bench.ComparePerf(prev, rep)
		fmt.Printf("comparison against %s:\n", comparePath)
		fmt.Print(bench.FormatPerfCompare(cmp))
		if gate {
			if err := bench.GatePerf(cmp.Deltas); err != nil {
				log.Print(err)
				return 1
			}
			fmt.Println("bench gate: no metric regressed past the 10% tolerance")
		}
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := bench.WritePerfJSON(f, rep); err != nil {
			f.Close()
			log.Print(err)
			return 1
		}
		if err := f.Close(); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("wrote perf report to %s\n", outPath)
	}
	return 0
}

// writeAllCSVs regenerates every CSV-capable experiment into dir.
func writeAllCSVs(r *bench.Runner, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(*os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return err
		}
		return f.Sync()
	}
	t1, err := r.Table1()
	if err != nil {
		return err
	}
	if err := write("table1.csv", func(f *os.File) error { return bench.CSVTable1(f, t1) }); err != nil {
		return err
	}
	t2, err := r.Table2()
	if err != nil {
		return err
	}
	if err := write("table2.csv", func(f *os.File) error { return bench.CSVTable2(f, t2) }); err != nil {
		return err
	}
	f5, err := r.Fig5()
	if err != nil {
		return err
	}
	if err := write("fig5.csv", func(f *os.File) error { return bench.CSVFig5(f, f5) }); err != nil {
		return err
	}
	f6, err := r.Fig6()
	if err != nil {
		return err
	}
	if err := write("fig6.csv", func(f *os.File) error { return bench.CSVFig6(f, f6) }); err != nil {
		return err
	}
	en, err := r.Energy(32)
	if err != nil {
		return err
	}
	return write("energy.csv", func(f *os.File) error { return bench.CSVEnergy(f, en) })
}
