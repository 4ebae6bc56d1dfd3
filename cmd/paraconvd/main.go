// Command paraconvd is the Para-CONV planning daemon: a long-running
// HTTP service that turns task graphs into retimed, cache-allocated
// execution plans for concurrent accelerator clients.
//
// Usage:
//
//	paraconvd [-addr HOST:PORT] [-workers N] [-queue N]
//	          [-drain-timeout D] [-request-timeout D] [-max-body N]
//	          [-max-nodes N] [-max-edges N] [-cache-bound N]
//	          [-data-dir DIR] [-store-max-bytes N]
//	          [-peers H1:P1,H2:P2,...] [-node-id HOST:PORT]
//	          [-trace-sample N] [-trace-slow D] [-slo-interval D]
//	          [-loglevel LEVEL] [-metrics]
//
// Endpoints: POST /v1/plan, POST /v1/simulate, POST /v1/selectarch
// (JSON by default; each also accepts a binary wire-format request,
// Content-Type application/x-paraconv-bin, and /v1/plan answers in
// binary when Accept asks for it or the request was binary — the
// other two answer JSON, and errors are always JSON; see DESIGN.md
// "Wire format"), GET /v1/plans/{fp} (the cluster fill protocol,
// answered with the plan's at-rest frame), GET /healthz, GET /readyz,
// and the obs debug endpoints /metrics, /metrics.json, /debug/pprof/,
// /debug/traces and /debug/slo on the same listener.
//
// -data-dir enables the durable content-addressed plan store: solved
// plans are appended to segment files under DIR, and a restarted
// daemon pointed at the same DIR serves previously solved graphs
// without re-running the solver (see DESIGN.md "Durable store").  The
// write is group-committed behind the response, at most one pending
// per run slot (-workers, 0 = GOMAXPROCS: every goroutine that can
// write), and a drain lands every accepted write before the process
// exits.  -store-max-bytes bounds the directory; the oldest segment is
// evicted past it.
//
// -peers runs the daemon as one member of a sharded planning cluster:
// a comma-separated static member list (host:port each, the same list
// on every node) consistent-hashed onto a ring that assigns every plan
// fingerprint an owning node.  A non-owner's cache miss fetches the
// owner's plan over GET /v1/plans/{fp} — shipping the full problem so
// the owner can solve it — before ever solving locally, so each
// distinct problem solves exactly once fleet-wide.  -node-id names
// this node's own entry in the list (default: the bound -addr).  Peer
// failure degrades to a local solve; a consecutive-failure breaker
// with /healthz probes flips dead peers out of the ring and back in
// (see DESIGN.md "Cluster").
//
// -trace-sample N traces one request in N (1 = every request; 0, the
// default, disables tracing).  Traced requests echo their id in the
// X-Paraconv-Trace response header; completed traces land in a fixed
// ring served at /debug/traces (JSON) and /debug/traces/{id}/chrome
// (Chrome trace-event export).  -trace-slow additionally keeps every
// request at least that slow, whatever the sampling counter says.
// /debug/slo reports the burn-rate status of the standard SLOs
// (sampled every -slo-interval).
//
// An -addr without a host (":8080") binds loopback; serving beyond
// the machine requires an explicit interface ("0.0.0.0:8080").
// SIGTERM or SIGINT starts a graceful drain: /readyz flips to 503,
// intake stops, queued work finishes and the plan store's accepted
// writes land (bounded by -drain-timeout), and the process exits 0 on
// a clean drain, 1 if the timeout cut work off.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// heapFloorBytes is the heap size below which the daemon does not
// bother collecting.  Its live heap is the plan cache — tens of MB —
// while every request that misses memory allocates about a megabyte of
// short-lived decode and plan garbage; at the runtime's default pacing
// (collect when the heap doubles) that is a GC cycle every handful of
// requests, and on a small machine the collector's background workers
// then compete with the requests for the same few cores (measured on 2
// CPUs: store-hit and peer-fill medians ≈ 25 % lower with the floor, at
// ≈ 100 MB resident instead of ≈ 30 MB).  Go has no minimum-heap
// setting, so the floor is a ballast: one never-touched allocation that
// costs address space, not resident memory, but counts as live heap
// when the pacer sets its goal.  GOGC and GOMEMLIMIT apply on top.
const heapFloorBytes = 64 << 20

func main() {
	ballast := make([]byte, heapFloorBytes)
	defer runtime.KeepAlive(ballast)

	log.SetFlags(0)
	log.SetPrefix("paraconvd: ")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (empty host binds loopback; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "requests solving concurrently (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission-queue depth; requests beyond it are shed with 429")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM drain waits for queued work before cutting it off")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "default per-request solve deadline (clients may lower it via timeout_ms)")
	maxBody := flag.Int64("max-body", wire.MaxBodyBytes, "maximum request body bytes")
	maxNodes := flag.Int("max-nodes", 20000, "maximum graph vertices accepted from the network")
	maxEdges := flag.Int("max-edges", 200000, "maximum graph edges accepted from the network")
	cacheBound := flag.Int("cache-bound", 0, "plan-cache entry bound (0 = default)")
	dataDir := flag.String("data-dir", "", "durable plan-store directory (empty = no durable store)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "plan-store byte bound, oldest segment evicted past it (0 = unbounded)")
	peers := flag.String("peers", "", "comma-separated cluster member list, host:port each, identical on every node (empty = single node)")
	nodeID := flag.String("node-id", "", "this node's entry in -peers (default: the bound -addr)")
	traceSample := flag.Int("trace-sample", 0, "trace one request in N (1 = all, 0 = tracing off)")
	traceSlow := flag.Duration("trace-slow", 0, "also keep a trace of any request at least this slow (0 = off)")
	sloInterval := flag.Duration("slo-interval", 0, "burn-rate evaluator sampling cadence (0 = default 5s)")
	logLevel := flag.String("loglevel", "info", "structured-log level: debug, info, warn, error")
	metrics := flag.Bool("metrics", true, "record runtime metrics (disable to measure the uninstrumented path)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	obs.SetLogger(obs.SetupLogging(os.Stderr, lvl, false))
	obs.SetEnabled(*metrics)

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *requestTimeout,
		MaxGraphNodes:  *maxNodes,
		MaxGraphEdges:  *maxEdges,
		CacheBound:     *cacheBound,
		TraceSample:    *traceSample,
		TraceSlow:      *traceSlow,
		SLOInterval:    *sloInterval,
	}
	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{MaxBytes: *storeMaxBytes, CommitSlots: cfg.StoreWriters()})
		if err != nil {
			log.Fatalf("opening plan store: %v", err)
		}
		if err := st.Probe(); err != nil {
			// Fail fast: a store that cannot commit now would fail every
			// write-through and lose the warm-restart cache silently.
			log.Fatalf("plan store failed write probe: %v", err)
		}
		stats := st.Stats()
		log.Printf("plan store %s (%d entries, %d segment bytes)", st.Dir(), stats.Entries, stats.Bytes)
		cfg.Store = st
	}
	s := server.New(cfg)
	running, err := s.Start(*addr)
	if err != nil {
		log.Fatal(err)
	}
	var cl *cluster.Cluster
	if *peers != "" {
		self := *nodeID
		if self == "" {
			self = running.Addr()
		}
		cl, err = cluster.New(cluster.Config{
			Self:  self,
			Peers: strings.Split(*peers, ","),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		s.AttachCluster(cl)
		live, total := cl.Health()
		log.Printf("cluster member %s (%d/%d live of %v)", cl.Self(), live, total, *peers)
	}
	log.Printf("listening on %s (workers %d, queue %d)", running.Addr(), cfg.StoreWriters(), *queue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills the process the default way

	log.Printf("signal received; draining (timeout %s)", *drainTimeout)
	if err := running.Drain(*drainTimeout); err != nil {
		st := s.CacheStats()
		log.Printf("drain cut off in-flight work: %v (cache: %d hits, %d misses, %d dedup)",
			err, st.Hits, st.Misses, st.DedupHits)
		os.Exit(1)
	}
	st := s.CacheStats()
	log.Printf("drained cleanly (cache: %d hits, %d misses, %d dedup, %d entries)",
		st.Hits, st.Misses, st.DedupHits, st.Size)
}
