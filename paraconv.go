// Package paraconv is the public API of the Para-CONV reproduction:
// task-level data allocation for convolutional connections in a
// processing-in-memory (PIM) architecture, after Wang, Zhang and Yang,
// "Exploiting Parallelism for Convolutional Connections in
// Processing-In-Memory Architecture", DAC 2017.
//
// The pipeline a typical caller runs:
//
//	g := paraconv.GoogLeNetGraph(...)        // or BuildGraph / Synthetic
//	cfg := paraconv.Neurocube(64)            // the PIM instance
//	plan, err := paraconv.Plan(g, cfg)       // Para-CONV: retime + DP-allocate
//	stats, err := paraconv.Simulate(plan, cfg, 1000)
//
// Plan packs the convolutions into a compact steady-state kernel,
// classifies every intermediate processing result (IPR) into the
// paper's six Figure-4 cases, solves the optimal cache-allocation
// dynamic program under the PE-array capacity, and derives the minimal
// legal retiming (prologue).  Baseline produces the SPARTA comparison
// plan, and the bench helpers regenerate every table and figure of the
// paper's evaluation.
package paraconv

import (
	"context"
	"io"

	"repro/internal/bench"
	"repro/internal/cnn"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/obs/tracestat"
	"repro/internal/opt"
	"repro/internal/pim"
	"repro/internal/run"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Re-exported core types.  The aliases make the internal packages'
// documented types available to external callers through one import.
type (
	// Graph is the weighted task DAG G=(V,E,P,R) of the paper's
	// application model: vertices are convolution/pooling operations,
	// edges are intermediate processing results.
	Graph = dag.Graph
	// Node is one convolution/pooling operation V_i(s_i, c_i, d_i).
	Node = dag.Node
	// Edge is one intermediate processing result I_{i,j}.
	Edge = dag.Edge
	// NodeID and EdgeID identify vertices and edges.
	NodeID = dag.NodeID
	EdgeID = dag.EdgeID
	// OpKind classifies a vertex (convolution, pooling, ...).
	OpKind = dag.OpKind

	// Config describes a PIM instance (PE count, cache, latencies).
	Config = pim.Config
	// Placement is a cache-or-eDRAM location for an IPR.
	Placement = pim.Placement

	// ExecutionPlan is a complete schedule + allocation + retiming.
	ExecutionPlan = sched.Plan
	// IterationSchedule is one kernel iteration's task placement.
	IterationSchedule = sched.IterationSchedule

	// SimStats aggregates the discrete-event simulator's measurements.
	SimStats = sim.Stats

	// Network is a CNN description at the layer level.
	Network = cnn.Network
	// Shape is a channels x height x width feature-map shape.
	Shape = cnn.Shape

	// Benchmark is one entry of the paper's 12-benchmark suite.
	Benchmark = bench.Benchmark
	// SynthParams parameterizes the synthetic task-graph generator.
	SynthParams = synth.Params
)

// Operation kinds.
const (
	OpConv = dag.OpConv
	OpPool = dag.OpPool
	OpFC   = dag.OpFC
)

// IPR placements.
const (
	InCache = pim.InCache
	InEDRAM = pim.InEDRAM
)

// Session scopes a batch of planning and simulation work under one
// context.Context and one content-keyed plan cache.  Prefer a Session
// over the package-level Plan/Baseline/Simulate helpers when you need
// cancellation (Ctrl-C, deadlines) or are re-planning the same graphs
// repeatedly: cache hits return the already-solved *ExecutionPlan.
// A Session is safe for concurrent use.
type Session = run.Session

// PlanCacheStats is a snapshot of a Session's plan-cache counters
// (hits, misses, evictions, current size and bound).
type PlanCacheStats = run.CacheStats

// NewSession returns a Session scoped to ctx with the default
// plan-cache bound.  A nil ctx means context.Background().
func NewSession(ctx context.Context) *Session { return run.New(ctx) }

// NewSessionWithCacheBound is NewSession with an explicit plan-cache
// capacity; bound <= 0 disables caching.
func NewSessionWithCacheBound(ctx context.Context, bound int) *Session {
	return run.NewWithCacheBound(ctx, bound)
}

// NewGraph returns an empty task graph with the given name.
func NewGraph(name string) *Graph { return dag.New(name) }

// ReadGraph parses a task graph in the line-oriented text format
// (see WriteGraph).
func ReadGraph(r io.Reader) (*Graph, error) { return dag.ReadText(r) }

// WriteGraph serializes a task graph in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return dag.WriteText(w, g) }

// WriteDOT emits the task graph in Graphviz DOT syntax.
func WriteDOT(w io.Writer, g *Graph) error { return dag.WriteDOT(w, g) }

// Neurocube returns the paper's Neurocube-derived PIM configuration
// for the given PE count (the evaluation sweeps 16, 32, 64).
func Neurocube(numPEs int) Config { return pim.Neurocube(numPEs) }

// PRIME, HMCGen2 and EdgeDevice return alternative PIM architecture
// presets (the paper's §5 future work: other emerging PIM
// architectures under one general model).
func PRIME(numPEs int) Config      { return pim.PRIME(numPEs) }
func HMCGen2(numPEs int) Config    { return pim.HMCGen2(numPEs) }
func EdgeDevice(numPEs int) Config { return pim.EdgeDevice(numPEs) }

// ArchPresets returns every built-in architecture at the given PE
// count, Neurocube first.
func ArchPresets(numPEs int) []Config { return pim.Presets(numPEs) }

// ArchCandidate is one architecture's evaluation in SelectArch's
// sweep.
type ArchCandidate = sched.Candidate

// SelectArch plans the application on every candidate architecture and
// returns the fastest, plus the full ranking (best first).
func SelectArch(g *Graph, candidates []Config, iterations int) (ArchCandidate, []ArchCandidate, error) {
	return sched.SelectConfigCtx(context.Background(), g, candidates, iterations)
}

// Synthetic generates a random layered CNN-like task graph with
// exactly the requested vertex and edge counts.
func Synthetic(p SynthParams) (*Graph, error) { return synth.Generate(p) }

// GoogLeNet builds the full GoogLeNet layer model of Szegedy et
// al. [16], the paper's named benchmark source.
func GoogLeNet() (*Network, error) { return cnn.GoogLeNet() }

// LeNet5 builds the classic LeNet-5 character-recognition network.
func LeNet5() (*Network, error) { return cnn.LeNet5() }

// NetworkGraph lowers a finalized CNN to its task DAG under the given
// PIM latency model.
func NetworkGraph(n *Network, cfg Config) (*Graph, error) {
	return cnn.ToTaskGraph(n, cnn.LowerOptions{Arch: cfg})
}

// Plan runs the full Para-CONV pipeline (paper §3): compact objective
// schedule, Figure-4 classification of every IPR, optimal dynamic-
// programming cache allocation under the PE-array capacity, and the
// minimal legal retiming.  The kernel replicates across PE groups when
// the graph is too small to fill the array.
func Plan(g *Graph, cfg Config) (*ExecutionPlan, error) {
	return sched.ParaCONVCtx(context.Background(), g, cfg)
}

// PlanSingleKernel is Plan with the whole array devoted to one
// iteration per kernel — the paper's canonical configuration.
func PlanSingleKernel(g *Graph, cfg Config) (*ExecutionPlan, error) {
	return sched.ParaCONVSingleCtx(context.Background(), g, cfg)
}

// ObjectiveSchedule compacts one iteration of the graph onto numPEs
// processing engines — the a-priori objective schedule of §3.3.3.
func ObjectiveSchedule(g *Graph, numPEs int) (IterationSchedule, error) {
	return sched.Objective(g, numPEs)
}

// PlanWithSchedule runs Para-CONV's allocation pipeline against a
// caller-supplied objective schedule: the schedule (hence the period
// p) is a property of the application, and the PIM configuration
// enters only through the PE-array cache capacity.  Sweeping the
// array at a fixed schedule isolates the capacity effect on R_max —
// the configuration behind the paper's Table 2 and Figure 6.
func PlanWithSchedule(g *Graph, iter IterationSchedule, cfg Config) (*ExecutionPlan, error) {
	return sched.ParaCONVGivenScheduleCtx(context.Background(), g, iter, cfg)
}

// Baseline builds the SPARTA [6] comparison plan: sensor-characterized
// priority list scheduling with greedy cache allocation, no retiming,
// no software pipelining.
func Baseline(g *Graph, cfg Config) (*ExecutionPlan, error) {
	return sched.SPARTACtx(context.Background(), g, cfg)
}

// Simulate executes `iterations` iterations of the plan on the PIM
// discrete-event simulator, verifying the schedule and measuring data
// movement, energy and utilization.
func Simulate(plan *ExecutionPlan, cfg Config, iterations int) (SimStats, error) {
	return sim.RunCtx(context.Background(), plan, cfg, iterations)
}

// SimTrace is the event log of a traced simulation run.
type SimTrace = sim.Trace

// SimEvent is one timestamped simulation event.
type SimEvent = sim.Event

// SimulateTrace is Simulate with a full event log: every task
// instance, IPR transfer and iteration completion, plus resource-usage
// peaks.  Event volume grows with iterations x (|V|+|E|).
func SimulateTrace(plan *ExecutionPlan, cfg Config, iterations int) (SimStats, *SimTrace, error) {
	return sim.TraceRunCtx(context.Background(), plan, cfg, iterations)
}

// AppNetwork builds the layer model of one of the paper's named
// benchmark applications (cat, car, ..., protein); see
// AppNetworkNames.
func AppNetwork(name string) (*Network, error) { return cnn.BenchmarkNetwork(name) }

// AppNetworkNames lists the available application models.
func AppNetworkNames() []string { return cnn.BenchmarkNetworkNames() }

// WriteGantt renders an ASCII Gantt chart of one kernel iteration.
func WriteGantt(w io.Writer, s *IterationSchedule) error { return sched.WriteGantt(w, s) }

// BenchmarkSuite returns the paper's 12 benchmarks (cat ... protein)
// with the exact vertex/edge counts of Table 1.
func BenchmarkSuite() []Benchmark { return bench.Suite }

// ClusterResult describes a linear-chain clustering transform.
type ClusterResult = opt.ClusterResult

// ClusterChains merges maximal producer-consumer chains (bounded by
// maxExec time units per cluster; 0 = unbounded), eliminating their
// intermediate results entirely — a pre-scheduling optimization that
// complements the cache allocation.
func ClusterChains(g *Graph, maxExec int) (*ClusterResult, error) {
	return opt.ClusterLinearChains(g, maxExec)
}

// AlexNet builds the classic AlexNet layer model.
func AlexNet() (*Network, error) { return cnn.AlexNet() }

// VGG16 builds the VGG-16 (configuration D) layer model.
func VGG16() (*Network, error) { return cnn.VGG16() }

// DynamicStats reports a self-timed dataflow execution (see
// SimulateDynamic).
type DynamicStats = sim.DynamicStats

// SimulateDynamic executes the application under self-timed dataflow
// dispatch (no static schedule, no retiming) with the given IPR
// placement and pipelining window — the throughput upper bound a
// dynamic runtime could reach with the same placement.
func SimulateDynamic(g *Graph, cfg Config, assignment []Placement, iterations, window int) (DynamicStats, error) {
	return sim.Dynamic(g, cfg, assignment, iterations, window)
}

// BaselineNaive builds the round-robin, cache-oblivious reference
// plan — the design-space floor below SPARTA.
func BaselineNaive(g *Graph, cfg Config) (*ExecutionPlan, error) {
	return sched.NaiveCtx(context.Background(), g, cfg)
}

// QueueStats reports an arrival-driven execution (see SimulateQueue).
type QueueStats = sim.QueueStats

// SimulateQueue executes requests arriving every `interval` time
// units under self-timed dispatch and reports latency statistics
// (mean, p95, max) — the serving-latency view of the system.
func SimulateQueue(g *Graph, cfg Config, assignment []Placement, interval, iterations, window int) (QueueStats, error) {
	return sim.Queueing(g, cfg, assignment, interval, iterations, window)
}

// MetricsRegistry is the module's concurrency-safe metrics registry:
// counters, gauges and fixed-bucket histograms with Prometheus-text
// and JSON exporters.
type MetricsRegistry = obs.Registry

// Metrics returns the shared default registry every instrumented
// subsystem (plan cache, scheduler, simulators, benchmark runner)
// writes to.  Serve it with paraconv's or benchtab's -http flag, or
// export it directly via WritePrometheus / WriteJSON.
func Metrics() *MetricsRegistry { return obs.Default() }

// SetMetricsEnabled turns instrument writes on or off globally.
// Instrumentation is on by default; disabling reduces every record
// site to a single atomic load.
func SetMetricsEnabled(on bool) { obs.SetEnabled(on) }

// TraceReport is the trace-derived analytics of one simulation run:
// per-PE utilization timelines and the idle-time breakdown into
// pipeline-fill prologue, waiting-on-transfer and no-ready-task.
type TraceReport = tracestat.Report

// AnalyzeTrace post-processes a traced simulation run (SimulateTrace)
// into a TraceReport.  plan and stats must come from the same run as
// the trace.
func AnalyzeTrace(tr *SimTrace, plan *ExecutionPlan, stats SimStats) (*TraceReport, error) {
	return tracestat.Analyze(tr, plan, stats)
}
