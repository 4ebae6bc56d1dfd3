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

// fpBufPool recycles the binary-encoding scratch GraphFingerprint
// serializes graphs into before hashing.
var fpBufPool = sync.Pool{New: func() any { return new([]byte) }}

// nilGraphFP is GraphFingerprint's value for no graph at all; no frame
// hashes to it.
const nilGraphFP = "graph:nil"

// GraphFingerprint returns a content hash of the graph: sha256 over
// the dag binary codec, which covers the name, every node (kind, exec)
// and every edge (endpoints, size, transfer times) — exactly the
// inputs the planners read.  A caller that already holds the graph's
// binary frame hashes that instead (FrameFingerprint) and never builds
// the graph at all.
func GraphFingerprint(g *dag.Graph) string {
	if g == nil {
		return nilGraphFP
	}
	bp := fpBufPool.Get().(*[]byte)
	frame := dag.AppendBinary((*bp)[:0], g)
	fp := FrameFingerprint(frame)
	*bp = frame[:0]
	fpBufPool.Put(bp)
	return fp
}

// FrameFingerprint is GraphFingerprint for a graph still in its dag
// binary frame — the trailing frame of a binary request or a peer-fill
// frame (wire.SplitRequest, wire.SplitPeerFill).  dag.DecodeBinary
// accepts only the canonical encoding of a graph, so for every frame
// it accepts, FrameFingerprint(frame) == GraphFingerprint(decoded); a
// frame it would reject hashes to a key no plan is ever stored under.
func FrameFingerprint(frame []byte) string {
	const prefix = "graph:"
	sum := sha256.Sum256(frame)
	var fp [len(prefix) + 2*sha256.Size]byte
	copy(fp[:], prefix)
	hex.Encode(fp[len(prefix):], sum[:])
	return string(fp[:])
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
	return PlanFingerprintHashed(variant, extra, GraphFingerprint(g), cfg)
}

// PlanFingerprintHashed is PlanFingerprint for a graph known only by
// its fingerprint (GraphFingerprint or FrameFingerprint).
func PlanFingerprintHashed(variant, extra, graphFP string, cfg pim.Config) string {
	// Every served request passes here, so the key is assembled in one
	// stack buffer rather than streamed through a heap-allocated hash.
	key := make([]byte, 0, 512)
	key = append(key, canonicalVariant(variant)...)
	key = append(key, '|')
	key = append(key, graphFP...)
	key = append(key, '|')
	key = appendConfigFingerprint(key, cfg)
	key = append(key, '|')
	key = append(key, extra...)
	sum := sha256.Sum256(key)
	var fp [2 * sha256.Size]byte
	hex.Encode(fp[:], sum[:])
	return string(fp[:])
}

// appendConfigFingerprint appends a content key for a PIM
// configuration.  Config is a flat struct of scalars and a name, so
// the Go-syntax representation is a complete, deterministic encoding.
func appendConfigFingerprint(dst []byte, cfg pim.Config) []byte {
	return fmt.Appendf(dst, "cfg:%#v", cfg)
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
