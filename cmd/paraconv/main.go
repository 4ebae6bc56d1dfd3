// Command paraconv runs the Para-CONV pipeline on one task graph and
// prints the resulting plan: kernel schedule, cache allocation,
// retiming/prologue, and simulated execution statistics, side by side
// with the SPARTA baseline.
//
// Usage:
//
//	paraconv [-pes N] [-iters N] [-gantt] [-analyze] [-timeout D]
//	         [-bench name | -graph file.tg]
//	         [-http ADDR] [-http-hold D] [-metrics-out FILE]
//
// The graph comes from a named paper benchmark (-bench protein) or a
// file in the text graph format (-graph), which "-" reads from stdin.
// Ctrl-C or -timeout cancels the solvers and simulators mid-loop.
// -analyze prints the trace-derived per-PE utilization timeline with
// idle time broken down into prologue, waiting-on-transfer and
// no-ready-task.  -http serves /metrics, /metrics.json and
// /debug/pprof while the run executes (loopback by default);
// -metrics-out writes a JSON metrics snapshot at exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"

	"repro/internal/bench"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/obs/tracestat"
	"repro/internal/opt"
	"repro/internal/pim"
	"repro/internal/run"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paraconv: ")
	pes := flag.Int("pes", 16, "number of processing engines")
	iters := flag.Int("iters", 100, "iterations to execute")
	gantt := flag.Bool("gantt", false, "print the kernel Gantt chart")
	benchName := flag.String("bench", "", "run a named paper benchmark (cat ... protein)")
	graphFile := flag.String("graph", "", "run a graph from a text-format file ('-' for stdin)")
	traceOut := flag.String("trace", "", "write the Para-CONV event trace to this file")
	traceFmt := flag.String("traceformat", "chrome", "trace format: chrome, jsonl, csv")
	arch := flag.String("arch", "neurocube", "architecture preset: neurocube, prime, hmc2, edge")
	cluster := flag.Int("cluster", -1, "pre-cluster linear chains bounded by this exec time (-1 = off, 0 = unbounded)")
	planOut := flag.String("plan", "", "write the Para-CONV plan summary (JSON) to this file")
	schedOut := flag.String("schedule", "", "write the Para-CONV kernel schedule (CSV) to this file")
	timeout := flag.Duration("timeout", 0, "abort planning and simulation after this duration (0 = no limit)")
	analyze := flag.Bool("analyze", false, "print the per-PE utilization timeline and idle-time breakdown from an event-level run")
	obsFlags := obs.RegisterFlags()
	flag.Parse()
	export, ok := traceExports[*traceFmt]
	if *traceOut != "" && !ok {
		log.Fatalf("unknown trace format %q (want chrome, jsonl or csv)", *traceFmt)
	}

	// One session scopes the whole invocation: Ctrl-C (or -timeout)
	// cancels the solvers and simulators mid-loop, and the baseline
	// comparison reuses any plan the cache already holds.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	obsCleanup, err := obsFlags.Setup(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer obsCleanup()
	session := run.New(ctx)

	g, err := loadGraph(*benchName, *graphFile)
	if err != nil {
		log.Fatal(err)
	}
	if *cluster >= 0 {
		res, err := opt.ClusterLinearChains(g, *cluster)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("clustered %d linear-chain IPRs away (%d -> %d vertices)\n\n",
			res.Merged, g.NumNodes(), res.Graph.NumNodes())
		g = res.Graph
	}
	cfg, err := pim.Preset(*arch, *pes)
	if err != nil {
		log.Fatal(err)
	}
	st, err := g.ComputeStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph %s on %s (%d KB PE-array cache)\n\n", st, cfg.Name, cfg.TotalCacheBytes()/1024)

	plan, err := session.Plan(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	base, err := session.Baseline(g, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("para-conv:", plan.Summary(*iters))
	fmt.Println("           " + plan.CacheSummary())
	fmt.Println("sparta:   ", base.Summary(*iters))
	ratio := float64(plan.TotalTime(*iters)) / float64(base.TotalTime(*iters))
	fmt.Printf("\nPara-CONV runs in %.1f%% of SPARTA's time (%.2fx speedup)\n", 100*ratio, 1/ratio)

	for _, p := range []*sched.Plan{plan, base} {
		stats, err := session.Simulate(p, cfg, *iters)
		if err != nil {
			log.Fatalf("simulating %s: %v", p.Scheme, err)
		}
		fmt.Printf("\n%s simulation: %d cycles, utilization %.1f%%, off-chip fetch ratio %.2f, %.1f nJ moved\n",
			p.Scheme, stats.Cycles, 100*stats.Utilization(), stats.OffChipFetchRatio(), stats.EnergyPJ/1000)
	}

	if *analyze {
		// Same capped horizon as -trace: the steady state repeats, so
		// a short event-level run is representative.
		horizon := min(*iters, 20)
		stats, tr, err := session.SimulateTrace(plan, cfg, horizon)
		if err != nil {
			log.Fatalf("tracing for -analyze: %v", err)
		}
		rep, err := tracestat.Analyze(tr, plan, stats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npara-conv trace analysis (%d iterations, prologue ends at t=%d):\n", horizon, rep.PrologueEnd)
		if err := rep.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *gantt {
		fmt.Println()
		if err := sched.WriteGantt(os.Stdout, &plan.Iter); err != nil {
			log.Fatal(err)
		}
	}

	if *traceOut != "" {
		if err := writeTrace(session, *traceOut, export, plan, cfg, *iters); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s trace to %s\n", *traceFmt, *traceOut)
	}
	if *planOut != "" {
		if err := writeFile(*planOut, func(f *os.File) error { return sched.WritePlanJSON(f, plan) }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote plan JSON to %s\n", *planOut)
	}
	if *schedOut != "" {
		if err := writeFile(*schedOut, func(f *os.File) error { return sched.WriteScheduleCSV(f, &plan.Iter) }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote schedule CSV to %s\n", *schedOut)
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Sync()
}

// traceExports are the -traceformat writers; main rejects any other
// name before it plans, simulates or creates anything.
var traceExports = map[string]func(io.Writer, *sim.Trace, *dag.Graph) error{
	"chrome": trace.WriteChrome,
	"jsonl":  func(w io.Writer, tr *sim.Trace, _ *dag.Graph) error { return trace.WriteJSONL(w, tr) },
	"csv":    func(w io.Writer, tr *sim.Trace, _ *dag.Graph) error { return trace.WriteCSV(w, tr) },
}

// writeTrace re-runs the plan through the event-driven simulator and
// writes the event log with export.
func writeTrace(session *run.Session, path string, export func(io.Writer, *sim.Trace, *dag.Graph) error, plan *sched.Plan, cfg pim.Config, iters int) error {
	// Cap the traced horizon: the steady state repeats exactly, so a
	// short run is representative and keeps files small.
	horizon := iters
	if horizon > 20 {
		horizon = 20
	}
	_, tr, err := session.SimulateTrace(plan, cfg, horizon)
	if err != nil {
		return fmt.Errorf("tracing: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := export(f, tr, plan.Iter.Graph); err != nil {
		return err
	}
	return f.Sync()
}

func loadGraph(benchName, graphFile string) (*dag.Graph, error) {
	switch {
	case benchName != "" && graphFile != "":
		return nil, fmt.Errorf("use either -bench or -graph, not both")
	case benchName != "":
		b, err := bench.ByName(benchName)
		if err != nil {
			return nil, err
		}
		return b.Graph()
	case graphFile == "-":
		return dag.ReadText(os.Stdin)
	case graphFile != "":
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dag.ReadText(f)
	default:
		// Default demo: the paper's motivational benchmark size.
		b, err := bench.ByName("flower")
		if err != nil {
			return nil, err
		}
		return b.Graph()
	}
}
