package bench

import (
	"context"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/run"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Runner executes the experiment suite over a shared run.Session: one
// context governs cancellation for every solve, one plan cache is
// shared by every cell, and a bounded worker pool fans the independent
// cells out.  Results are always written into index-addressed slots,
// so the output of a parallel run is byte-identical to a serial one.
type Runner struct {
	// Session supplies the context and the plan cache.  Must be
	// non-nil; use NewRunner.
	Session *run.Session
	// Parallel is the worker count for the job pool; values <= 1 run
	// every job serially on the calling goroutine.
	Parallel int
}

// NewRunner returns a Runner over the given session.  A nil session
// gets a fresh background session with the default cache bound.
func NewRunner(s *run.Session, parallel int) *Runner {
	if s == nil {
		s = run.New(context.Background())
	}
	return &Runner{Session: s, Parallel: parallel}
}

// runJobs executes jobs 0..n-1 on the runner's worker pool.  Jobs must
// write their results into index-addressed slots (never append) so
// completion order cannot influence output.  With one worker the jobs
// run in order on the calling goroutine and the first error aborts the
// loop immediately; with more workers, dispatch stops at the first
// failure, in-flight jobs drain, and the lowest-index error is
// returned — the same error a serial run would have surfaced.
func (r *Runner) runJobs(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.Parallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			obs.RunnerJobsStarted.Inc()
			if err := job(i); err != nil {
				obs.RunnerJobsFailed.Inc()
				obs.Log().Warn("benchmark job failed", "job", i, "err", err)
				return err
			}
			obs.RunnerJobsFinished.Inc()
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed bool
	)
	errs := make([]error, n)
	type dispatch struct {
		i  int
		at time.Time
	}
	idx := make(chan dispatch)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			mu.Lock()
			stop := failed
			mu.Unlock()
			if stop {
				return
			}
			idx <- dispatch{i: i, at: time.Now()}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range idx {
				// Queue wait: how long the dispatch sat in the
				// unbuffered channel before a worker freed up.
				obs.RunnerQueueWait.Observe(time.Since(d.at))
				obs.RunnerJobsStarted.Inc()
				if err := job(d.i); err != nil {
					obs.RunnerJobsFailed.Inc()
					obs.Log().Warn("benchmark job failed", "job", d.i, "err", err)
					mu.Lock()
					errs[d.i] = err
					failed = true
					mu.Unlock()
				} else {
					obs.RunnerJobsFinished.Inc()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// planKind selects which planner evaluates an experiment cell: one of
// run.Session's variant names.
type planKind string

const (
	planSPARTA     planKind = "sparta"
	planParaCONV   planKind = "para-conv"
	planParaSingle planKind = "para-conv-single"
)

// planCell solves one (graph, architecture, planner) cell through the
// session's plan cache — the shared evaluation step behind every
// Table-1-shaped experiment (Table 1, movement, energy, latency,
// scalability, sensitivity and the real-graph table).
func (r *Runner) planCell(g *dag.Graph, cfg pim.Config, kind planKind) (*sched.Plan, error) {
	return r.Session.PlanVariant(string(kind), g, cfg)
}

// simCell plans one cell and runs the closed-form simulator on it.
func (r *Runner) simCell(g *dag.Graph, cfg pim.Config, kind planKind, iterations int) (*sched.Plan, sim.Stats, error) {
	plan, err := r.planCell(g, cfg, kind)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	stats, err := r.Session.Simulate(plan, cfg, iterations)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return plan, stats, nil
}

// pairRatio is the headline metric of the reproduction for one cell:
// Para-CONV's total time over SPARTA's on the same graph and
// architecture.
func (r *Runner) pairRatio(g *dag.Graph, cfg pim.Config) (float64, error) {
	pc, err := r.planCell(g, cfg, planParaCONV)
	if err != nil {
		return 0, err
	}
	sp, err := r.planCell(g, cfg, planSPARTA)
	if err != nil {
		return 0, err
	}
	return float64(pc.TotalTime(Iterations)) / float64(sp.TotalTime(Iterations)), nil
}
