package sched

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/pim"
)

// Candidate is one architecture's evaluation in a selection sweep.
type Candidate struct {
	Config pim.Config
	Plan   *Plan
	// TotalTime is the end-to-end time for the sweep's iteration
	// count, the selection objective.
	TotalTime int
}

// SelectConfigCtx plans the application on every candidate architecture
// and returns the one with the best total execution time over the
// given iteration count, along with the full ranking (best first) —
// the "general model adaptively applied to different system
// architectures" of the paper's future work.  Architectures the
// planner rejects (e.g. transfer times incompatible with the model)
// are skipped; an error is returned only if none survive.  The sweep
// checks ctx before each candidate and aborts with the context's
// error, so a long architecture search cancels between (and inside)
// solves.
func SelectConfigCtx(ctx context.Context, g *dag.Graph, candidates []pim.Config, iterations int) (Candidate, []Candidate, error) {
	if len(candidates) == 0 {
		return Candidate{}, nil, fmt.Errorf("sched: SelectConfig with no candidates")
	}
	if iterations < 1 {
		return Candidate{}, nil, fmt.Errorf("sched: SelectConfig with %d iterations; want >= 1", iterations)
	}
	ranked := make([]Candidate, 0, len(candidates))
	var firstErr error
	for _, cfg := range candidates {
		if err := ctx.Err(); err != nil {
			return Candidate{}, nil, fmt.Errorf("sched: SelectConfig cancelled: %w", err)
		}
		plan, err := ParaCONVCtx(ctx, g, cfg)
		if err != nil {
			if ctx.Err() != nil {
				return Candidate{}, nil, err
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("sched: candidate %s: %w", cfg.Name, err)
			}
			continue
		}
		ranked = append(ranked, Candidate{
			Config:    cfg,
			Plan:      plan,
			TotalTime: plan.TotalTime(iterations),
		})
	}
	if len(ranked) == 0 {
		return Candidate{}, nil, fmt.Errorf("sched: no candidate architecture could plan %q: %w", g.Name(), firstErr)
	}
	// Stable selection: best total time, ties by candidate order.
	best := 0
	for i := 1; i < len(ranked); i++ {
		if ranked[i].TotalTime < ranked[best].TotalTime {
			best = i
		}
	}
	// Move best to front, preserving relative order of the rest.
	chosen := ranked[best]
	rest := append(append([]Candidate{}, ranked[:best]...), ranked[best+1:]...)
	ordered := append([]Candidate{chosen}, rest...)
	return chosen, ordered, nil
}
