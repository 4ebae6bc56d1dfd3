package run

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/sched"
)

// graphFPs memoizes graph fingerprints by pointer.  Graphs are treated
// as immutable once built (every mutation path in the module — synth
// generation, Clone, Perturb — produces a fresh *Graph), so a pointer
// identifies its content for the life of the process.  The memo is
// bounded: once it holds maxGraphFPs entries it is cleared wholesale,
// so a long-lived server churning through graphs does not pin every
// one of them (the map key keeps the *Graph alive) — eviction only
// costs a re-hash on the next lookup.
var (
	graphFPMu sync.Mutex
	graphFPs  = make(map[*dag.Graph]string, 64)
)

const maxGraphFPs = 4096

// fpBufPool recycles the binary-encoding scratch GraphFingerprint
// serializes graphs into before hashing.
var fpBufPool = sync.Pool{New: func() any { return new([]byte) }}

// GraphFingerprint returns a content hash of the graph: sha256 over
// the dag binary codec, which covers the name, every node (kind, exec)
// and every edge (endpoints, size, transfer times) — exactly the
// inputs the planners read.  The result is memoized per *Graph.
func GraphFingerprint(g *dag.Graph) string {
	if g == nil {
		return "graph:nil"
	}
	graphFPMu.Lock()
	fp, ok := graphFPs[g]
	graphFPMu.Unlock()
	if ok {
		return fp
	}
	bp := fpBufPool.Get().(*[]byte)
	frame := dag.AppendBinary((*bp)[:0], g)
	sum := sha256.Sum256(frame)
	*bp = frame[:0]
	fpBufPool.Put(bp)
	fp = "graph:" + hex.EncodeToString(sum[:])
	graphFPMu.Lock()
	if len(graphFPs) >= maxGraphFPs {
		clear(graphFPs)
	}
	graphFPs[g] = fp
	graphFPMu.Unlock()
	return fp
}

// PlanFingerprint is the module's content fingerprint for a complete
// planning problem: hex sha256 over the '|'-joined variant, graph
// fingerprint, config fingerprint and extra.  This one string keys
// every tier — the memory LRU, the flight map, the durable store's
// files AND the {fp} the consistent-hash ring routes and GET
// /v1/plans/{fp} serves — and sharing the keyspace is what lets an
// owner answer a peer's lookup straight from the store's payload
// bytes.  The empty variant normalizes to the default full Para-CONV
// planner exactly as PlanVariant's dispatch does, so clients and
// servers fingerprint identically.
func PlanFingerprint(variant, extra string, g *dag.Graph, cfg pim.Config) string {
	h := sha256.New()
	io.WriteString(h, canonicalVariant(variant))
	io.WriteString(h, "|")
	io.WriteString(h, GraphFingerprint(g))
	io.WriteString(h, "|")
	io.WriteString(h, ConfigFingerprint(cfg))
	io.WriteString(h, "|")
	io.WriteString(h, extra)
	return hex.EncodeToString(h.Sum(nil))
}

// ConfigFingerprint returns a content key for a PIM configuration.
// Config is a flat struct of scalars and a name, so the Go-syntax
// representation is a complete, deterministic encoding.
func ConfigFingerprint(cfg pim.Config) string {
	return fmt.Sprintf("cfg:%#v", cfg)
}

// ScheduleFingerprint returns a content hash of a fixed iteration
// schedule, for keying the given-schedule planner variant: the PE
// count, period, every task placement and every IPR assignment, plus
// the underlying graph's fingerprint.
func ScheduleFingerprint(iter sched.IterationSchedule) string {
	h := sha256.New()
	fmt.Fprintf(h, "pes %d period %d\n", iter.PEs, iter.Period)
	for i := range iter.Tasks {
		t := &iter.Tasks[i]
		fmt.Fprintf(h, "t %d %d %d %d\n", t.Node, t.PE, t.Start, t.Finish)
	}
	for _, a := range iter.Assignment {
		fmt.Fprintf(h, "a %d\n", a)
	}
	io.WriteString(h, GraphFingerprint(iter.Graph))
	return "iter:" + hex.EncodeToString(h.Sum(nil))
}
