package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sorted []int64
		p      float64
		want   int64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []int64{7}, 0.99, 7},
		{"median of five", []int64{1, 2, 3, 4, 5}, 0.5, 3},
		{"median of four is the lower middle", []int64{1, 2, 3, 4}, 0.5, 2},
		{"p50 of 1..100", hundred, 0.50, 50},
		{"p99 of 1..100", hundred, 0.99, 99},
		{"p999 of 1..100 is the maximum", hundred, 0.999, 100},
		{"p100", hundred, 1, 100},
		{"p99 of ten is the maximum", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(p=%v) = %d; want %d", tc.name, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v; want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v; want 2.5", got)
	}
}

const cannedBefore = `# HELP paraconv_plancache_hits_total plan-cache lookups served from the cache
# TYPE paraconv_plancache_hits_total counter
paraconv_plancache_hits_total 2000
# TYPE paraconv_server_requests_total counter
paraconv_server_requests_total{endpoint="plan",code="2xx"} 2000
paraconv_server_requests_total{endpoint="plans",code="2xx"} 7
paraconv_server_requests_total{endpoint="plan",code="4xx"} 1
# TYPE paraconv_plan_solve_seconds histogram
paraconv_plan_solve_seconds_bucket{variant="para-conv",le="0.001"} 40
paraconv_plan_solve_seconds_bucket{variant="para-conv",le="+Inf"} 48
paraconv_plan_solve_seconds_sum{variant="para-conv"} 0.04321
paraconv_plan_solve_seconds_count{variant="para-conv"} 48
paraconv_server_shed_total 0
`

const cannedAfter = `paraconv_plancache_hits_total 12000
paraconv_server_requests_total{endpoint="plan",code="2xx"} 12000
paraconv_server_requests_total{endpoint="plans",code="2xx"} 9
paraconv_server_requests_total{endpoint="plan",code="4xx"} 1
paraconv_plan_solve_seconds_sum{variant="para-conv"} 0.04321
paraconv_plan_solve_seconds_count{variant="para-conv"} 48
paraconv_plan_solve_seconds_count{variant="sparta"} 3
paraconv_server_shed_total 0
`

func TestScrapeAndPathChecks(t *testing.T) {
	before, err := parseExposition(strings.NewReader(cannedBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(cannedAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("paraconv_server_requests_total"); got != 2008 {
		t.Errorf("unfiltered sum = %d; want 2008", got)
	}
	if got := before.sum("paraconv_server_requests_total", `endpoint="plan"`, `code="2xx"`); got != 2000 {
		t.Errorf("label-filtered sum = %d; want 2000 (the plans endpoint must not match)", got)
	}
	if got := before.sum("paraconv_plan_solve_seconds_count"); got != 48 {
		t.Errorf("histogram count = %d; want 48", got)
	}
	if got := before.sum("paraconv_plan_solve_seconds_sum"); got != 0 {
		t.Errorf("fractional series were kept: sum = %d", got)
	}
	if got := before.sum("paraconv_never_touched_total"); got != 0 {
		t.Errorf("absent metric = %d; want 0", got)
	}

	pc := windowCounts([]counters{before}, []counters{after})
	if pc.requests != 10000 || pc.memHits != 10000 || pc.solves != 3 || pc.shed != 0 {
		t.Fatalf("window deltas = %+v", pc)
	}
	// Three sparta solves crept in: mem_hit is off its path, and the
	// report must name the counter.
	bad := failedChecks(pathChecks("mem_hit", 10000, pc))
	if !strings.Contains(bad, "paraconv_plan_solve_seconds_count moved by 3") || strings.Count(bad, "\n") != 1 {
		t.Errorf("failed checks = %q; want exactly the solve counter", bad)
	}
	pc.solves = 0
	if bad := failedChecks(pathChecks("mem_hit", 10000, pc)); bad != "" {
		t.Errorf("clean window reported %q", bad)
	}
	if bad := failedChecks(pathChecks("mem_hit", 10001, pc)); !strings.Contains(bad, "requests_total") || !strings.Contains(bad, "hits_total") {
		t.Errorf("a lost request went unreported: %q", bad)
	}

	for _, malformed := range []string{"no_value_here\n", "metric{unterminated 1\n", "metric nan-ish\n"} {
		if _, err := parseExposition(strings.NewReader(malformed)); err == nil {
			t.Errorf("parseExposition(%q) accepted malformed input", malformed)
		}
	}
}

func TestParseStatTicks(t *testing.T) {
	// A command name with spaces and a closing parenthesis in it.
	line := "4242 (para) convd x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 766 0 0 20 0 9 0 100 1 2 3\n"
	got, err := parseStatTicks(line)
	if err != nil || got != 2000 {
		t.Errorf("parseStatTicks = %d, %v; want 2000 (utime 1234 + stime 766)", got, err)
	}
	if _, err := parseStatTicks("4242 (short) S 1 2 3"); err == nil {
		t.Error("a truncated stat line parsed")
	}
}

func TestHalvesAreDisjointAndCover(t *testing.T) {
	shares := halves(populationSize, clients)
	seen := map[int]int{}
	for c, s := range shares {
		if len(s) != populationSize/clients {
			t.Errorf("client %d cycles %d graphs; want %d", c, len(s), populationSize/clients)
		}
		for _, k := range s {
			seen[k]++
		}
	}
	for k := 0; k < populationSize; k++ {
		if seen[k] != 1 {
			t.Errorf("graph %d is in %d shares; want exactly 1", k, seen[k])
		}
	}
}

// The population of a pinned workload must be exactly the graphs the
// real ring assigns to the owner, whatever the member names are, and
// the same seed must select the same graphs.
func TestOwnershipSelector(t *testing.T) {
	ctx := context.Background()
	for _, members := range [][]string{
		{"127.0.0.1:27400", "127.0.0.1:27401"},
		{"127.0.0.1:41873", "127.0.0.1:39002"},
	} {
		owner := members[1]
		pop, err := buildPopulation(ctx, 3, 6, ownedBy(members, owner))
		if err != nil {
			t.Fatal(err)
		}
		ring := cluster.NewRing(members, 0)
		for k, p := range pop {
			if got := ring.Owner(p.fp); got != owner {
				t.Errorf("members %v: graph %d (%s) is owned by %s; want %s", members, k, p.fp[:8], got, owner)
			}
		}
		again, err := buildPopulation(ctx, 3, 6, ownedBy(members, owner))
		if err != nil {
			t.Fatal(err)
		}
		for k := range pop {
			if pop[k].fp != again[k].fp {
				t.Errorf("members %v: seed 3 selected %s then %s at position %d", members, pop[k].fp[:8], again[k].fp[:8], k)
			}
		}
	}
	// Unpinned workloads take the first graphs drawn, so a pinned
	// population is a different selection from the same stream.
	all, err := buildPopulation(ctx, 3, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	none, err := buildPopulation(ctx, 3, 1, func(string) bool { return false })
	if err == nil {
		t.Errorf("a filter admitting nothing produced %d graphs", len(none))
	}
	if len(all) != 6 {
		t.Fatalf("unfiltered population has %d graphs; want 6", len(all))
	}
}

func TestAnswersRejectTampering(t *testing.T) {
	pop, err := buildPopulation(context.Background(), 5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := wire.AppendPlanResponse(nil, &pop[0].want)

	// A wrong first response is caught field by field.
	wrong := pop[0].want
	wrong.Period++
	if err := newAnswers(pop).check(0, wire.AppendPlanResponse(nil, &wrong)); err == nil {
		t.Error("a first response with the wrong period was accepted")
	}
	if err := newAnswers(pop).check(0, good[:len(good)-1]); err == nil {
		t.Error("a truncated first response was accepted")
	}
	if err := newAnswers(pop).check(1, good); err == nil {
		t.Error("graph 0's plan was accepted as graph 1's answer")
	}

	// After a verified first response, every later one must be the
	// same bytes.
	ans := newAnswers(pop)
	if err := ans.check(0, good); err != nil {
		t.Fatalf("the reference response was rejected: %v", err)
	}
	if err := ans.check(0, append([]byte(nil), good...)); err != nil {
		t.Errorf("an identical later response was rejected: %v", err)
	}
	tampered := append([]byte(nil), good...)
	tampered[len(tampered)/2] ^= 1
	if err := ans.check(0, tampered); err == nil {
		t.Error("a later response with one flipped bit was accepted")
	}
	if err := ans.check(0, good[:len(good)-1]); err == nil {
		t.Error("a truncated later response was accepted")
	}
}

// The ledger must add up to the round trip by construction, a self
// time must subtract exactly the nested calls of the same request, and
// a call the path never makes has no time.
func TestReduceSpansLedgerSumsToRoundtrip(t *testing.T) {
	var spans []span
	add := func(req int, name string, parent int32, durNS int64) int32 {
		id := int32(len(spans) + 1)
		spans = append(spans, span{ID: id, Request: int32(req), Name: name, Parent: parent, StartNS: 1000, EndNS: 1000 + durNS})
		return id
	}
	for r := 0; r < traceRequests; r++ {
		if root := add(r, "server.roundtrip", 0, 400_000); root != rootOf(r) {
			t.Fatalf("request %d: root span id %d; rootOf says %d", r, root, rootOf(r))
		}
	}
	for r := 0; r < traceRequests; r++ {
		root := rootOf(r)
		dec := add(r, "wire.decode_request", root, 110_000)
		add(r, "dag.decode_binary", dec, 100_000)
		hit := add(r, "run.plan_hit", root, 40_000)
		fp := add(r, "run.graph_fingerprint", hit, 25_000)
		add(r, "dag.append_binary", fp, 15_000)
		add(r, "wire.append_plan_response", root, 5_000)
	}
	res := &traceResult{layer: map[string]float64{}}
	reduceSpans(spans, "mem_hit", res)

	want := map[string]float64{
		"wire.decode_request": 10, "dag.decode_binary": 100, "run.plan_hit": 15,
		"run.graph_fingerprint": 10, "dag.append_binary": 15, "wire.append_plan_response": 5,
	}
	sum := 0.0
	for _, row := range res.ledger {
		if w, ok := want[row.name]; !ok || math.Abs(row.selfUS-w) > 1e-9 {
			t.Errorf("ledger row %s = %v us; want %v", row.name, row.selfUS, w)
		}
		sum += row.selfUS
	}
	if len(res.ledger) != len(want) {
		t.Errorf("ledger has %d rows; want %d", len(res.ledger), len(want))
	}
	if got := sum + res.layer["server.overhead_us"]; math.Abs(got-res.layer["server.roundtrip_us"]) > 1e-9 {
		t.Errorf("ledger + overhead = %v us; the round trip is %v us", got, res.layer["server.roundtrip_us"])
	}
	if got := res.layer["server.overhead_us"]; math.Abs(got-245) > 1e-9 {
		t.Errorf("server.overhead_us = %v; want 245", got)
	}
	// Metrics: decode_request and plan_hit are self times, the
	// fingerprint is the whole call, and the solver is off this path.
	for name, w := range map[string]float64{
		"wire.decode_request_us": 10, "run.plan_hit_us": 15, "run.graph_fingerprint_us": 25, "sched.paraconv_us": 0, "sched.self_us": 0,
	} {
		if got := res.layer[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v; want %v", name, got, w)
		}
	}
}

// Every span the tracer records carries its request and the span that
// caused it; only a request's exchange has the load generator (0) for
// a parent.
func TestTracerParentsEverySpan(t *testing.T) {
	tr := newTracer()
	rp := &replayer{calls: map[string]func(*problem) error{}}
	for _, name := range pathSpans("cold_solve") {
		rp.calls[name] = func(*problem) error { return nil }
	}
	for r := 0; r < 2; r++ {
		if _, err := tr.do(r, "server.roundtrip", 0, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 2; r++ {
		for _, name := range paths["cold_solve"] {
			if err := rp.call(tr, r, nil, name, rootOf(r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := 2 * (1 + len(pathSpans("cold_solve"))); len(tr.spans) != want {
		t.Fatalf("recorded %d spans; want %d", len(tr.spans), want)
	}
	for i, s := range tr.spans {
		if s.ID != int32(i+1) || s.EndNS < s.StartNS {
			t.Errorf("span %+v: bad id or interval", s)
		}
		if s.Name == "server.roundtrip" {
			if s.Parent != 0 || s.ID != rootOf(int(s.Request)) {
				t.Errorf("root span %+v: want parent 0 and id %d", s, rootOf(int(s.Request)))
			}
			continue
		}
		parent := tr.spans[s.Parent-1]
		if s.Parent < 1 || parent.Request != s.Request {
			t.Errorf("span %+v: parent %+v is not a span of the same request", s, parent)
		}
		if parent.Name != "server.roundtrip" && !slices.Contains(nested[parent.Name], s.Name) {
			t.Errorf("span %s is recorded under %s, which does not call it", s.Name, parent.Name)
		}
	}
	// With recording off the same calls run and nothing is kept.
	var off *tracer
	if err := rp.call(off, 0, nil, "sched.paraconv", 0); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this
// package reports, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != windowSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d; the harness's fixed window is %d s", spec.RunSeconds, windowSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads; the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v; the harness has %q (%s)", i, spec.Workloads[i], w.name, w.why)
		}
		if _, ok := paths[w.name]; !ok {
			t.Errorf("workload %s has no traced path", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics; the harness reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v; the harness has %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound):
				t.Errorf("%s %s: bounds disagree (harness %v)", kind, m.Name, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a layer metric carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	for name := range exactLayer {
		found := false
		for _, m := range perLayer {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("exact-count metric %s is not a per-layer metric", name)
		}
	}
	for _, lt := range layerTimes {
		found := false
		for _, m := range perLayer {
			found = found || m.Name == lt.metric
		}
		if !found {
			t.Errorf("timing metric %s is not a per-layer metric", lt.metric)
		}
	}
}
