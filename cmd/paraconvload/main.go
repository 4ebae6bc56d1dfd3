// Command paraconvload is a closed-loop load generator for paraconvd:
// N workers each keep exactly one request in flight against a mixed
// population of synthetic graphs, so measured throughput and latency
// reflect the service under steady concurrency rather than an open
// firehose.
//
// Usage:
//
//	paraconvload [-addr HOST:PORT] [-cluster H1:P1,H2:P2,...]
//	             [-workers N] [-duration D] [-n N]
//	             [-endpoint plan|simulate|selectarch] [-variant V]
//	             [-codec json|binary|mixed]
//	             [-pes N] [-iters N] [-timeout-ms N] [-seed N] [-slo]
//
// With -cluster, the generator drives a sharded planning fleet the way
// a routing client should: it builds the same consistent-hash ring the
// daemons build from the same member list, computes each prepared
// request's plan fingerprint, and sends every request directly to its
// owning node — so no request ever needs a peer fill.  The report adds
// per-node request counts, req/s and p99, and closes with a
// cluster-wide fill-vs-solve accounting line summed from every node's
// /metrics: distinct problems should equal solves, with fills covering
// any requests that reached a non-owner.  (-addr is ignored for
// routing but still names the node -slo interrogates.)
//
// With -slo, the run ends by fetching the daemon's /debug/slo report
// and printing each objective's burn-rate status; the process exits 1
// if any objective is breached (or the report cannot be fetched),
// making a load run a CI-gateable SLO check.
//
// The graph mix comes from internal/synth: three deterministic size
// classes (small/medium/large layered DAGs, three seeds each), chosen
// per request by each worker's seeded generator.  -codec selects the
// wire codec: json sends JSON envelopes with text graphs, binary sends
// application/x-paraconv-bin frames (and asks for binary responses,
// which only -endpoint plan returns: simulate and selectarch answer
// JSON), and mixed alternates per request.  Every request is accounted
// for exactly once — by HTTP status (including 415s from a server that
// does not speak the requested codec) or as a transport error — and
// the report shows throughput, per-codec byte rates (MB/s in + out),
// p50/p90/p99/max latency and the shed (429) rate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/obs/slo"
	"repro/internal/pim"
	"repro/internal/run"
	"repro/internal/synth"
	"repro/internal/wire"
)

// codecJSON/codecBinary index the per-codec tallies.
const (
	codecJSON = iota
	codecBinary
	numCodecs
)

var codecNames = [numCodecs]string{"json", "binary"}

// prepared is one pre-serialized request body with its codec and the
// plan fingerprint the sharded fleet routes it by.
type prepared struct {
	body  []byte
	codec int
	fp    string
}

// sizeClass is one entry of the graph mix.
type sizeClass struct {
	name     string
	vertices int
	edges    int
}

var sizeClasses = []sizeClass{
	{"small", 20, 40},
	{"medium", 60, 150},
	{"large", 120, 320},
}

// codecTally is one codec's byte and request accounting.
type codecTally struct {
	requests int
	bytesOut int64 // request bodies sent
	bytesIn  int64 // response bodies received
}

// nodeTally is one cluster member's slice of a worker's exchanges.
type nodeTally struct {
	latencies []time.Duration
	transport int
}

// workerResult is one worker's private tally, merged after the run.
type workerResult struct {
	latencies []time.Duration       // one entry per completed HTTP exchange
	status    map[int]int           // responses by status code
	transport int                   // requests that died before a status
	codec     [numCodecs]codecTally // per-codec bytes for completed exchanges
	nodes     map[string]*nodeTally // per-member accounting in -cluster mode
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paraconvload: ")
	addr := flag.String("addr", "127.0.0.1:8080", "paraconvd address")
	clusterList := flag.String("cluster", "", "comma-separated cluster member list; route each request to its fingerprint's owner")
	workers := flag.Int("workers", 8, "concurrent closed-loop workers")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive load (ignored when -n > 0)")
	total := flag.Int("n", 0, "total request budget (0 = run for -duration)")
	endpoint := flag.String("endpoint", "plan", "endpoint to drive: plan, simulate or selectarch")
	variant := flag.String("variant", "", "planner variant to request (empty = server default)")
	codec := flag.String("codec", "json", "request/response codec: json, binary or mixed")
	pes := flag.Int("pes", 16, "processing engines per request")
	iters := flag.Int("iters", 100, "iterations per request")
	timeoutMS := flag.Int("timeout-ms", 0, "per-request solve deadline to send (0 = server default)")
	seed := flag.Int64("seed", 1, "base seed for the graph mix and per-worker choice")
	sloGate := flag.Bool("slo", false, "after the run, fetch /debug/slo and exit 1 if any objective is breached")
	flag.Parse()

	switch *endpoint {
	case "plan", "simulate", "selectarch":
	default:
		log.Fatalf("unknown endpoint %q (want plan, simulate or selectarch)", *endpoint)
	}
	switch *codec {
	case "json", "binary", "mixed":
	default:
		log.Fatalf("unknown codec %q (want json, binary or mixed)", *codec)
	}
	if *workers < 1 {
		log.Fatal("-workers must be >= 1")
	}

	reqs, names, err := buildBodies(*seed, *pes, *iters, *variant, *timeoutMS, *codec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mix: %s (codec %s)\n", strings.Join(names, ", "), *codec)

	// In cluster mode every request routes to its fingerprint's owner
	// on the same ring the daemons build from the same member list —
	// the cheapest possible client-side sharding, no extra round trip.
	var ring *cluster.Ring
	var members []string
	if *clusterList != "" {
		ring = cluster.NewRing(strings.Split(*clusterList, ","), 0)
		members = ring.Members()
		if len(members) == 0 {
			log.Fatal("-cluster has no members")
		}
		fmt.Printf("cluster: routing over %s\n", strings.Join(members, ", "))
	}
	path := "/v1/" + *endpoint
	urls := map[string]string{*addr: "http://" + *addr + path}
	for _, m := range members {
		urls[m] = "http://" + m + path
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *workers * 2,
			MaxIdleConnsPerHost: *workers * 2,
		},
		Timeout: 5 * time.Minute,
	}

	results := make([]*workerResult, *workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(*duration)
	// With -n, each worker takes an equal share (the first workers
	// absorb the remainder) so the budget is exact.
	for i := 0; i < *workers; i++ {
		share := 0
		if *total > 0 {
			share = *total / *workers
			if i < *total%*workers {
				share++
			}
		}
		res := &workerResult{status: make(map[int]int)}
		results[i] = res
		wg.Add(1)
		go func(workerSeed int64, budget int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed))
			for n := 0; ; n++ {
				if budget > 0 {
					if n >= budget {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				pr := reqs[rng.Intn(len(reqs))]
				node := *addr
				if ring != nil {
					if o := ring.Owner(pr.fp); o != "" {
						node = o
					}
				}
				httpReq, err := http.NewRequest("POST", urls[node], bytes.NewReader(pr.body))
				if err != nil {
					res.transport++
					if ring != nil {
						res.nodeFor(node).transport++
					}
					continue
				}
				if pr.codec == codecBinary {
					httpReq.Header.Set("Content-Type", wire.ContentTypeBinary)
					httpReq.Header.Set("Accept", wire.ContentTypeBinary)
				} else {
					httpReq.Header.Set("Content-Type", wire.ContentTypeJSON)
				}
				t0 := time.Now()
				resp, err := client.Do(httpReq)
				if err != nil {
					res.transport++
					if ring != nil {
						res.nodeFor(node).transport++
					}
					continue
				}
				read, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				res.latencies = append(res.latencies, time.Since(t0))
				if ring != nil {
					nt := res.nodeFor(node)
					nt.latencies = append(nt.latencies, time.Since(t0))
				}
				res.status[resp.StatusCode]++
				tally := &res.codec[pr.codec]
				tally.requests++
				tally.bytesOut += int64(len(pr.body))
				tally.bytesIn += read
			}
		}(*seed+int64(i)*7919, share)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(os.Stdout, results, elapsed)
	if ring != nil {
		clusterAccounting(os.Stdout, client, members)
	}

	if *sloGate {
		if !checkSLO(os.Stdout, client, *addr) {
			os.Exit(1)
		}
	}
}

// nodeFor returns (allocating on first use) the tally for one cluster
// member; callers only consult it in -cluster mode.
func (r *workerResult) nodeFor(node string) *nodeTally {
	if r.nodes == nil {
		r.nodes = make(map[string]*nodeTally)
	}
	nt := r.nodes[node]
	if nt == nil {
		nt = &nodeTally{}
		r.nodes[node] = nt
	}
	return nt
}

// clusterAccounting fetches every member's /metrics and prints the
// fleet-wide fill-vs-solve identity: each request was either served
// from a cache tier, filled from a peer, solved by an owner (possibly
// on a peer's behalf at /v1/plans), or fell back to a degraded local
// solve — and the distinct-problem count should match solves, with
// fills strictly bounded by forwards.
func clusterAccounting(w io.Writer, client *http.Client, members []string) {
	var solves, fills, fallbacks, forwards int64
	fmt.Fprintf(w, "\ncluster accounting (%d nodes):\n", len(members))
	for _, m := range members {
		sums, err := scrapeMetrics(client, m)
		if err != nil {
			fmt.Fprintf(w, "  %s: scraping /metrics: %v\n", m, err)
			continue
		}
		fmt.Fprintf(w, "  %s: %d solves, %d peer fills, %d fallback solves, %d fill requests served\n",
			m, sums["paraconv_plan_solve_seconds_count"], sums["paraconv_cluster_peer_fills_total"],
			sums["paraconv_cluster_fallback_solves_total"], sums["paraconv_cluster_forwards_total"])
		solves += sums["paraconv_plan_solve_seconds_count"]
		fills += sums["paraconv_cluster_peer_fills_total"]
		fallbacks += sums["paraconv_cluster_fallback_solves_total"]
		forwards += sums["paraconv_cluster_forwards_total"]
	}
	fmt.Fprintf(w, "  fleet: %d solves + %d peer fills (%d degraded local solves, %d fill requests served)\n",
		solves, fills, fallbacks, forwards)
}

// scrapeMetrics sums a node's /metrics text by family name: label sets
// collapse (the solve timer is labeled per variant), so the caller
// reads whole-family totals.
func scrapeMetrics(client *http.Client, addr string) (map[string]int64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		sums[name] += int64(v)
	}
	return sums, nil
}

// checkSLO fetches the daemon's /debug/slo report, prints each
// objective's worst-window burn, and reports whether every objective
// held.  A report that cannot be fetched or parsed fails the gate: a
// daemon that cannot account for its SLOs does not get a pass.
func checkSLO(w io.Writer, client *http.Client, addr string) bool {
	url := fmt.Sprintf("http://%s/debug/slo", addr)
	resp, err := client.Get(url)
	if err != nil {
		fmt.Fprintf(w, "\nslo: fetching %s: %v\n", url, err)
		return false
	}
	defer resp.Body.Close()
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		fmt.Fprintf(w, "\nslo: decoding report: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "\nslo report (%d objectives):\n", len(rep.Objectives))
	for _, o := range rep.Objectives {
		verdict := "ok"
		if o.Breached {
			verdict = "BREACHED"
		}
		worst := 0.0
		for _, ws := range o.Windows {
			if ws.Burn > worst {
				worst = ws.Burn
			}
		}
		fmt.Fprintf(w, "  %-22s %-8s budget %.3g, worst-window burn %.2fx\n",
			o.Name, verdict, o.Budget, worst)
	}
	if !rep.Healthy {
		fmt.Fprintln(w, "slo: BREACH — error budget burning too fast")
		return false
	}
	fmt.Fprintln(w, "slo: all objectives ok")
	return true
}

// buildBodies pre-serializes one request body per (size class, seed,
// codec) cell so the hot loop never touches the generator or either
// encoder.  With -codec mixed, each graph appears once per codec and
// the worker's uniform pick over the pool alternates codecs.
func buildBodies(seed int64, pes, iters int, variant string, timeoutMS int, codec string) ([]prepared, []string, error) {
	var reqs []prepared
	var names []string
	for _, sc := range sizeClasses {
		for s := int64(0); s < 3; s++ {
			g, err := synth.Generate(synth.Params{
				Name:     fmt.Sprintf("load-%s-%d", sc.name, s),
				Vertices: sc.vertices,
				Edges:    sc.edges,
				Seed:     seed + s,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("generating %s graph: %w", sc.name, err)
			}
			// The routing fingerprint must be computed exactly as the
			// servers compute it: same graph, same resolved config
			// (bodies always request the neurocube arch), same variant
			// normalization.
			fp := run.PlanFingerprint(variant, "", g, pim.Neurocube(pes))
			if codec == "json" || codec == "mixed" {
				var text bytes.Buffer
				if err := dag.WriteText(&text, g); err != nil {
					return nil, nil, err
				}
				body, err := json.Marshal(wire.Request{
					Graph:      text.String(),
					Arch:       "neurocube",
					PEs:        pes,
					Iterations: iters,
					Variant:    variant,
					TimeoutMS:  timeoutMS,
				})
				if err != nil {
					return nil, nil, err
				}
				reqs = append(reqs, prepared{body: body, codec: codecJSON, fp: fp})
			}
			if codec == "binary" || codec == "mixed" {
				body := wire.AppendRequest(nil, &wire.Request{
					Arch:       "neurocube",
					PEs:        pes,
					Iterations: iters,
					Variant:    variant,
					TimeoutMS:  timeoutMS,
				}, g)
				reqs = append(reqs, prepared{body: body, codec: codecBinary, fp: fp})
			}
			names = append(names, fmt.Sprintf("%s(%dv/%de)", sc.name, sc.vertices, sc.edges))
		}
	}
	return reqs, names, nil
}

// report merges the per-worker tallies and prints the run summary.
// The accounting identity — every started request appears in exactly
// one bucket — is printed so dropped-but-unreported requests are
// impossible to miss.
func report(w io.Writer, results []*workerResult, elapsed time.Duration) {
	var latencies []time.Duration
	status := make(map[int]int)
	transport := 0
	var codec [numCodecs]codecTally
	nodes := make(map[string]*nodeTally)
	for _, r := range results {
		latencies = append(latencies, r.latencies...)
		for node, nt := range r.nodes {
			merged := nodes[node]
			if merged == nil {
				merged = &nodeTally{}
				nodes[node] = merged
			}
			merged.latencies = append(merged.latencies, nt.latencies...)
			merged.transport += nt.transport
		}
		for code, n := range r.status {
			status[code] += n
		}
		transport += r.transport
		for c := range r.codec {
			codec[c].requests += r.codec[c].requests
			codec[c].bytesOut += r.codec[c].bytesOut
			codec[c].bytesIn += r.codec[c].bytesIn
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })

	completed := len(latencies)
	byStatus := 0
	for _, n := range status {
		byStatus += n
	}
	started := byStatus + transport
	fmt.Fprintf(w, "\n%d requests in %s (%.1f req/s completed)\n",
		started, elapsed.Round(time.Millisecond), float64(completed)/elapsed.Seconds())

	codes := make([]int, 0, len(status))
	for code := range status {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(w, "  status %d: %d\n", code, status[code])
	}
	if transport > 0 {
		fmt.Fprintf(w, "  transport errors: %d\n", transport)
	}
	fmt.Fprintf(w, "  accounted: %d by status + %d transport = %d started\n",
		byStatus, transport, started)
	if len(nodes) > 0 {
		names := make([]string, 0, len(nodes))
		for node := range nodes {
			names = append(names, node)
		}
		sort.Strings(names)
		for _, node := range names {
			nt := nodes[node]
			sort.Slice(nt.latencies, func(i, j int) bool { return nt.latencies[i] < nt.latencies[j] })
			n := len(nt.latencies)
			line := fmt.Sprintf("  node %s: %d requests (%.1f req/s)", node, n+nt.transport,
				float64(n)/elapsed.Seconds())
			if n > 0 {
				line += fmt.Sprintf(", p99 %s", nt.latencies[int(0.99*float64(n-1))].Round(10*time.Microsecond))
			}
			if nt.transport > 0 {
				line += fmt.Sprintf(", %d transport errors", nt.transport)
			}
			fmt.Fprintln(w, line)
		}
	}
	mbps := func(b int64) float64 { return float64(b) / (1 << 20) / elapsed.Seconds() }
	for c, t := range codec {
		if t.requests == 0 {
			continue
		}
		fmt.Fprintf(w, "  codec %s: %d requests, %.2f MB/s out, %.2f MB/s in\n",
			codecNames[c], t.requests, mbps(t.bytesOut), mbps(t.bytesIn))
	}
	if shed := status[http.StatusTooManyRequests]; started > 0 {
		fmt.Fprintf(w, "  shed rate: %.2f%%\n", 100*float64(shed)/float64(started))
	}
	if completed > 0 {
		pct := func(p float64) time.Duration {
			i := int(p * float64(completed-1))
			return latencies[i]
		}
		fmt.Fprintf(w, "  latency p50 %s  p90 %s  p99 %s  max %s\n",
			pct(0.50).Round(10*time.Microsecond), pct(0.90).Round(10*time.Microsecond),
			pct(0.99).Round(10*time.Microsecond), latencies[completed-1].Round(10*time.Microsecond))
	}
}
