// Command benchmark is the repository's serve-path benchmark.  It
// builds the real cmd/paraconvd, boots it as subprocesses, and drives
// POST /v1/plan (binary codec) through each way a plan can be served —
// memory hit, cold solve, store hit, peer fill — from two closed-loop
// clients, checking every answer.  Per workload it prints the
// end-to-end metrics a caller sees and, from a traced replay of the
// same requests in its own process, the layer metrics and the latency
// ledger that say where a request's microseconds go.  See README.md.
//
// Usage (from the repository root):
//
//	go run ./benchmark [-workload NAME] [-seed N] [-aa] [-out DIR]
//
// BENCHMARK.json's driver appends -seconds and -trace to those; see the
// flag texts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// windowSeconds is the measured window of every workload.  Run length
// belongs to the benchmark, not to whoever runs it: two runs are only
// comparable at the same length.  BENCHMARK.json's run_seconds is this
// number (a unit test compares them).
const windowSeconds = 20

// basePort is the first loopback port tried for the daemons.
const basePort = 27400

func main() {
	workloadName := flag.String("workload", "", "run one workload (mem_hit, cold_solve, store_hit, peer_fill) and end with its result line; default all four")
	seed := flag.Int64("seed", 1, "population seed: graph i is generated from seed*10000+i, and the daemon only ever sees the generated request bytes")
	aa := flag.Bool("aa", false, "run the suite twice back to back, print both with their relative differences, and fail if any exceeds its metric's bound")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for the daemon binary, the data dirs and the span files")
	// The next two are the rest of the command line BENCHMARK.json's
	// driver issues (-workload W -seed N -seconds S -trace 0|1), not
	// knobs: the window is fixed, and -trace only picks which metric
	// set the driver asked the result line to carry.
	seconds := flag.Int("seconds", windowSeconds, fmt.Sprintf("the measured window; fixed at %d, any other value is refused", windowSeconds))
	trace := flag.Int("trace", 1, "1 = follow the window with the traced pass and end with the per-layer metrics; 0 = no traced pass, end with the end-to-end metrics")
	flag.Parse()
	if *seconds != windowSeconds {
		fmt.Fprintf(os.Stderr, "benchmark: the measured window is fixed at %d s; -seconds %d is refused\n", windowSeconds, *seconds)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := runSuite(ctx, options{workload: *workloadName, seed: *seed, trace: *trace != 0, aa: *aa, out: *out})
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	trace    bool
	aa       bool
	out      string
}

// report is one workload's outcome.
type report struct {
	workload  string
	addrs     []string // the daemons' listen addresses, front first
	attempted int64
	failed    int64
	// problem is why the run is not correct ("" when it is): failed
	// requests or a path assertion.
	problem string
	e2e     map[string]float64
	layer   map[string]float64 // nil without the traced pass
	trace   *traceResult
}

func runSuite(ctx context.Context, opt options) error {
	selected := workloads
	if opt.workload != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == opt.workload })
		if i < 0 {
			return fmt.Errorf("unknown workload %q", opt.workload)
		}
		selected = workloads[i : i+1]
	}
	if runtime.NumCPU() < clients {
		return fmt.Errorf("%d closed-loop clients need at least as many CPUs; this machine has %d", clients, runtime.NumCPU())
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(ctx, opt.out)
	if err != nil {
		return err
	}
	printEnvironment(opt)

	suite := func() ([]*report, error) {
		var reports []*report
		for _, w := range selected {
			rep, err := runWorkload(ctx, w, bin, opt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			printReport(rep)
			reports = append(reports, rep)
		}
		return reports, nil
	}

	first, err := suite()
	if err != nil {
		return err
	}
	var incorrect []string
	for _, rep := range first {
		if rep.problem != "" {
			incorrect = append(incorrect, rep.workload+": "+rep.problem)
		}
	}
	if opt.aa && len(incorrect) == 0 {
		fmt.Println("\n== A/A: second run of the same code ==")
		second, err := suite()
		if err != nil {
			return err
		}
		if diff := compareAA(first, second); diff != "" {
			incorrect = append(incorrect, "A/A runs disagree:\n"+diff)
		}
	}
	if opt.workload != "" {
		// The result line is the last line of standard output.
		if err := printResultLine(first[0], opt.trace); err != nil {
			return err
		}
	}
	if len(incorrect) > 0 {
		return errors.New(strings.Join(incorrect, "\n"))
	}
	return nil
}

// runWorkload sets the workload up setupRepeats times, measures one
// window on the last set-up, then (with tracing) replays the traced
// pass against the same daemons.
func runWorkload(ctx context.Context, w workload, bin string, opt options) (rep *report, err error) {
	addrs, err := freeAddrs(basePort, w.daemons)
	if err != nil {
		return nil, err
	}
	var accept func(string) bool
	if w.pinned {
		accept = ownedBy(addrs, addrs[1])
	}
	pop, err := buildPopulation(ctx, opt.seed, populationSize, accept)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, bin: bin, addrs: addrs, dataDir: filepath.Join(opt.out, "data", w.name), pop: pop, ans: newAnswers(pop)}
	defer os.RemoveAll(r.dataDir)

	var f *fleet
	var setups, boots []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
		if f, err = r.setUp(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, f.setupS)
		for _, d := range f.daemons {
			boots = append(boots, d.bootS)
		}
	}
	defer func() { err = errors.Join(err, f.stop()) }()

	win, err := f.measure(ctx, windowSeconds*time.Second)
	if err != nil {
		return nil, err
	}
	correct := int64(len(win.lat))
	if correct == 0 {
		return nil, fmt.Errorf("no request succeeded in the window: %v", win.firstErr)
	}
	rep = &report{workload: w.name, addrs: addrs, attempted: win.attempted, failed: win.failed}
	if win.failed > 0 {
		rep.problem = fmt.Sprintf("%d of %d requests failed (first: %v)", win.failed, win.attempted, win.firstErr)
	} else if bad := failedChecks(pathChecks(w.name, win.attempted, win.counts)); bad != "" {
		rep.problem = "the workload left its path:\n" + bad
	}
	rep.e2e = map[string]float64{
		"plans_per_s":     float64(correct) / win.seconds,
		"latency_p50_us":  micros(percentile(win.lat, 0.50)),
		"latency_p99_us":  micros(percentile(win.lat, 0.99)),
		"cpu_us_per_plan": win.daemonCPU * 1e6 / float64(correct),
		"setup_s":         median(setups),
	}
	if !opt.trace {
		return rep, nil
	}

	tr, err := tracedPass(ctx, r, f, opt.out)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	rep.trace, rep.layer = tr, tr.layer
	n, c, size := win.attempted, win.counts, float64(len(pop))
	var reqBytes, respBytes, planBytes, leanBytes float64
	for k, p := range pop {
		reqBytes += float64(len(p.body))
		respBytes += float64(len(r.ans.seen[k]))
		planBytes += float64(len(p.planFrame))
		leanBytes += float64(len(p.leanFrame))
	}
	l := rep.layer
	l["wire.request_bytes"] = reqBytes / size
	l["wire.response_bytes"] = respBytes / size
	l["wire.plan_frame_bytes"] = planBytes / size
	l["wire.lean_frame_bytes"] = leanBytes / size
	l["run.mem_hit_share"] = share(c.memHits, n)
	l["run.solve_share"] = share(c.solves, n)
	l["run.dedup_share"] = share(c.dedup, n)
	l["core.dp_rows_per_solve"] = share(tr.dpRows, tr.solves)
	l["store.hit_share"] = share(c.storeHits, n)
	l["store.writes_per_plan"] = share(c.storeWrites, n)
	l["store.evictions_per_plan"] = share(c.storeEvictions, n)
	l["cluster.fill_share"] = share(c.peerFills, n)
	l["cluster.fallback_share"] = share(c.fallbacks, n)
	l["server.shed"] = float64(c.shed)
	l["daemon.boot_s"] = median(boots)
	l["daemon.peak_rss_mb"] = win.peakRSSMB
	l["loadgen.cpu_us_per_plan"] = win.selfCPU * 1e6 / float64(correct)
	l["loadgen.latency_p999_us"] = micros(percentile(win.lat, 0.999))
	l["loadgen.samples"] = float64(correct)
	return rep, nil
}

// median of a small sample (the mean of the middle two when even).
func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func printEnvironment(opt options) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	fmt.Printf("load: %d closed-loop clients, %d graphs of %d vertices / %d edges, %d warm-up requests, %d s window, %d set-ups, seed %d\n",
		clients, populationSize, graphVertices, graphEdges, warmupRequests, windowSeconds, setupRepeats, opt.seed)
	fmt.Printf("data dirs: %s (%s)\n", filepath.Join(opt.out, "data"), dataRootFS(opt.out))
}

func printReport(rep *report) {
	fmt.Printf("\n== %s (daemons on %s) ==\n", rep.workload, strings.Join(rep.addrs, ", "))
	fmt.Println("end-to-end")
	for _, m := range endToEnd {
		printMetric(m, rep.e2e[m.Name])
	}
	fmt.Printf("  %-30s %14.6f ratio (%d of %d)\n", "failed_share", share(rep.failed, rep.attempted), rep.failed, rep.attempted)
	if rep.problem != "" {
		fmt.Printf("  INCORRECT: %s\n", rep.problem)
	}
	if rep.trace == nil {
		return
	}
	onPath := map[string]bool{"server": true, "daemon": true, "loadgen": true}
	for _, row := range rep.trace.ledger {
		onPath[layerOf(row.name)] = true
	}
	fmt.Printf("layers on the path (traced pass: %d requests, %d spans -> %s)\n", traceRequests, rep.trace.spans, rep.trace.spanFile)
	for _, m := range perLayer {
		if v, reported := rep.layer[m.Name]; reported && onPath[layerOf(m.Name)] {
			printMetric(m, v)
		}
	}
	fmt.Println("ledger (p50 self time per call on the path)")
	for _, row := range rep.trace.ledger {
		fmt.Printf("  %-30s %14.3f us\n", row.name, row.selfUS)
	}
	fmt.Printf("  %-30s %14.3f us\n", "server.overhead", rep.layer["server.overhead_us"])
	fmt.Printf("  %-30s %14.3f us\n", "= server.roundtrip", rep.layer["server.roundtrip_us"])
}

// printMetric prints one metric by name with its unit; seconds get
// microsecond digits because boots and store opens are that short.
func printMetric(m metricDef, v float64) {
	if m.Unit == "s" {
		fmt.Printf("  %-30s %14.6f %s\n", m.Name, v, m.Unit)
		return
	}
	fmt.Printf("  %-30s %14.3f %s\n", m.Name, v, m.Unit)
}

// layerOf is the package prefix of a metric or span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// printResultLine prints the machine-readable result: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one
// (0 where the workload's path does not reach the layer).
func printResultLine(rep *report, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.problem == "", rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// compareAA prints two runs of the same code side by side and returns
// a description of every (workload, metric) pair that disagrees: an
// end-to-end metric by more than its bound, an exact-count layer
// metric at all.
func compareAA(first, second []*report) string {
	var bad strings.Builder
	fmt.Printf("\n%-12s %-26s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, a := range first {
		b := second[i]
		for _, m := range endToEnd {
			x, y := a.e2e[m.Name], b.e2e[m.Name]
			diff := (y - x) / x
			if m.Better == "higher" {
				diff = -diff
			}
			mark := ""
			if diff > m.Bound || -diff > m.Bound {
				mark = "  <-- beyond bound"
				fmt.Fprintf(&bad, "  %s %s: %.3f vs %.3f (%+.1f%%, bound %.0f%%)\n", a.workload, m.Name, x, y, 100*diff, 100*m.Bound)
			}
			fmt.Printf("%-12s %-26s %14.3f %14.3f %+8.1f%% %6.0f%%%s\n", a.workload, m.Name, x, y, 100*diff, 100*m.Bound, mark)
		}
		for _, m := range perLayer {
			if !exactLayer[m.Name] {
				continue
			}
			// Exact counts of one deterministic request stream: the two
			// runs' shortest decimal forms must coincide.
			x, y := fmt.Sprint(a.layer[m.Name]), fmt.Sprint(b.layer[m.Name])
			if x != y {
				fmt.Fprintf(&bad, "  %s %s: exact count %s vs %s\n", a.workload, m.Name, x, y)
			}
		}
	}
	return bad.String()
}
