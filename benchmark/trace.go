package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/run"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/wire"
)

// The traced pass.  After a workload's window — end-to-end numbers
// already taken with no tracing anywhere — the harness replays
// traceRequests requests from the same population one at a time: one
// real exchange with the front daemon per request, then, in its own
// process, the public functions the daemon's path calls, in the order
// it calls them, each under an in-memory span.  Spans inside paraconvd
// are a later issue; these are recorded around the calls into each
// layer, from outside.
const traceRequests = 500

// span is one timed call.  A request's root is its real exchange,
// server.roundtrip, whose parent 0 stands for the load generator; every
// other span names the span that caused it.  The replayed calls cannot
// be observed inside the daemon's exchange (nor dag.DecodeBinary inside
// wire.DecodeRequest) from outside the package, so a child is timed on
// identical input after its parent and its interval lies outside the
// parent's; a span's self time is its duration minus its children's
// durations either way.
type span struct {
	ID      int32  `json:"id"`
	Request int32  `json:"request"`
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory.  A nil tracer runs the calls
// untimed: the same replay with recording off is what
// loadgen.trace_overhead_share compares against.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, traceRequests*16)}
}

// rootOf is the id of request req's server.roundtrip span: the
// exchange phase records those first, one per request, in order.
func rootOf(req int) int32 { return int32(req + 1) }

// do runs fn as a span of request req under parent and returns the
// span's id.
func (t *tracer) do(req int, name string, parent int32, fn func() error) (int32, error) {
	if t == nil {
		return 0, fn()
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Request: int32(req), Name: name, Parent: parent, StartNS: time.Since(t.origin).Nanoseconds()})
	err := fn()
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
	return id, err
}

// Each workload's path: the layer calls the front daemon makes for one
// request, outermost calls only, in order.  Only these calls and the
// calls nested in them are replayed and timed on the workload; a layer
// that is not on the path has no time there.
var paths = map[string][]string{
	"mem_hit":    {"wire.decode_request", "run.plan_hit", "wire.append_plan_response"},
	"cold_solve": {"wire.decode_request", "run.graph_fingerprint", "store.get_miss", "sched.paraconv", "wire.append_plan", "store.put", "wire.append_plan_response"},
	"store_hit":  {"wire.decode_request", "run.graph_fingerprint", "store.get", "wire.decode_plan", "sched.validate", "wire.append_plan_response"},
	"peer_fill":  {"wire.decode_request", "run.graph_fingerprint", "cluster.fill", "wire.decode_fill_plan", "sched.validate", "wire.append_plan_response"},
}

// nested lists the calls a span makes into other layers.
var nested = map[string][]string{
	"wire.decode_request":   {"dag.decode_binary"},
	"run.plan_hit":          {"run.graph_fingerprint"},
	"run.graph_fingerprint": {"dag.append_binary"},
	"sched.paraconv":        {"sched.objective", "retime.classify", "core.build_items", "core.knapsack", "retime.apply"},
	"cluster.fill":          {"cluster.ring_owner"},
}

// pathSpans is every call on the workload's path, outermost calls in
// path order, each followed by the calls nested in it.
func pathSpans(workload string) []string {
	var names []string
	var visit func(name string)
	visit = func(name string) {
		names = append(names, name)
		for _, child := range nested[name] {
			visit(child)
		}
	}
	for _, name := range paths[workload] {
		visit(name)
	}
	return names
}

// layerTimes maps each timing metric to the span it is the p50 of;
// self subtracts the span's nested calls.  A metric whose span is not
// on the workload's path is not reported there (0 in the result line).
var layerTimes = []struct {
	metric, span string
	self         bool
}{
	{"dag.decode_binary_us", "dag.decode_binary", false},
	{"dag.append_binary_us", "dag.append_binary", false},
	{"wire.decode_request_us", "wire.decode_request", true},
	{"wire.append_plan_response_us", "wire.append_plan_response", false},
	{"wire.append_plan_us", "wire.append_plan", false},
	{"wire.decode_plan_us", "wire.decode_plan", false},
	{"wire.decode_fill_plan_us", "wire.decode_fill_plan", false},
	{"run.graph_fingerprint_us", "run.graph_fingerprint", false},
	{"run.plan_hit_us", "run.plan_hit", true},
	{"sched.paraconv_us", "sched.paraconv", false},
	{"sched.objective_us", "sched.objective", false},
	{"sched.validate_us", "sched.validate", false},
	{"sched.self_us", "sched.paraconv", true},
	{"retime.classify_us", "retime.classify", false},
	{"retime.apply_us", "retime.apply", false},
	{"core.build_items_us", "core.build_items", false},
	{"core.knapsack_us", "core.knapsack", false},
	{"store.put_us", "store.put", false},
	{"store.get_us", "store.get", false},
	{"cluster.fill_us", "cluster.fill", false},
	{"cluster.ring_owner_us", "cluster.ring_owner", false},
	{"server.roundtrip_us", "server.roundtrip", false},
}

// replayer is the harness-side replica of the workload's serving path.
// It owns only what that path touches.
type replayer struct {
	path  []string
	pop   []*problem
	cfg   pim.Config
	front *client
	ans   *answers

	sess  *run.Session     // mem_hit: warmed, so Plan is a memory hit
	store *store.Store     // cold_solve: at its byte budget, every Put evicts; store_hit: holds the population
	fills *cluster.Cluster // peer_fill: the edge's view, filling from the live owner
	ring  *cluster.Ring

	calls map[string]func(p *problem) error

	// Per-request state handed from one call to the next.
	fresh   [2]*dag.Graph // decoded this request, not yet fingerprinted
	hashed  *dag.Graph    // the graph run.graph_fingerprint just hashed
	payload []byte        // what the fill returned
	decoded *sched.Plan   // the plan decoded from a frame
	buf     []byte
	scratch solveScratch
}

// solveScratch holds the caller-side buffers of the solver's Into
// calls, reused across requests as the scheduler's pool reuses its.
type solveScratch struct {
	classes []retime.EdgeClass
	items   []core.Item
	chosen  []bool
	res     retime.Result
}

// newReplayer builds what the workload's path needs: a warmed session,
// a harness-owned store under dir, or the edge's cluster view over the
// workload's own member list.
func newReplayer(ctx context.Context, r *runner, front *client, dir string) (*replayer, error) {
	rp := &replayer{path: paths[r.w.name], pop: r.pop, cfg: pim.Neurocube(requestPEs), front: front, ans: r.ans}
	on := func(name string) bool { return slices.Contains(rp.path, name) }
	if on("run.plan_hit") {
		rp.sess = run.New(ctx)
		for _, p := range r.pop {
			if _, err := rp.sess.Plan(p.g, rp.cfg); err != nil {
				return nil, err
			}
		}
	}
	if on("store.put") || on("store.get") {
		var opts store.Options
		if on("store.put") {
			opts.MaxBytes = r.storeBudget()
		}
		var err error
		if rp.store, err = store.Open(dir, opts); err != nil {
			return nil, err
		}
		for _, p := range r.pop {
			if err := rp.store.Put(p.fp, p.planFrame); err != nil {
				return nil, err
			}
		}
	}
	if on("cluster.fill") {
		var err error
		if rp.fills, err = cluster.New(cluster.Config{Self: r.addrs[0], Peers: r.addrs}); err != nil {
			return nil, err
		}
		rp.ring = cluster.NewRing(r.addrs, 0)
	}
	rp.calls = rp.callTable(ctx)
	return rp, nil
}

func (rp *replayer) close() {
	if rp.fills != nil {
		rp.fills.Close()
	}
}

// takeFresh hands out a graph decoded during this request that no one
// has fingerprinted yet: run.GraphFingerprint memoises per pointer, and
// the server always fingerprints a graph it has just decoded.
func (rp *replayer) takeFresh() (*dag.Graph, error) {
	for i, g := range rp.fresh {
		if g != nil {
			rp.fresh[i] = nil
			return g, nil
		}
	}
	return nil, errors.New("no freshly decoded graph left for this request")
}

// callTable binds every span name to the public function it times.
func (rp *replayer) callTable(ctx context.Context) map[string]func(p *problem) error {
	sc := &rp.scratch
	return map[string]func(p *problem) error{
		"wire.decode_request": func(p *problem) (err error) {
			var req wire.Request
			rp.fresh[0], err = wire.DecodeRequest(p.body, &req, graphLimits)
			return err
		},
		"dag.decode_binary": func(p *problem) (err error) {
			rp.fresh[1], err = dag.DecodeBinary(p.graphFrame, graphLimits)
			return err
		},
		"run.graph_fingerprint": func(p *problem) error {
			g, err := rp.takeFresh()
			if err == nil {
				run.GraphFingerprint(g)
				rp.hashed = g
			}
			return err
		},
		"dag.append_binary": func(p *problem) error {
			rp.buf = dag.AppendBinary(rp.buf[:0], rp.hashed)
			return nil
		},
		"run.plan_hit": func(p *problem) error {
			g, err := rp.takeFresh()
			if err != nil {
				return err
			}
			_, err = rp.sess.Plan(g, rp.cfg)
			return err
		},
		"store.get_miss": func(p *problem) error {
			// The store keeps about storeBudgetFrames entries, so the
			// graph's last write was evicted long before its turn comes
			// round: the lookup a cold solve pays before it solves.
			if _, ok := rp.store.Get(p.fp); ok {
				return errors.New("the store at its byte budget still held the plan")
			}
			return nil
		},
		"sched.paraconv": func(p *problem) error {
			_, err := sched.ParaCONVCtx(ctx, p.g, rp.cfg)
			return err
		},
		"sched.objective": func(p *problem) error {
			_, err := sched.Objective(p.g, p.groupPEs)
			return err
		},
		"retime.classify": func(p *problem) (err error) {
			sc.classes, err = retime.ClassifyInto(sc.classes, p.g, p.tm)
			return err
		},
		"core.build_items": func(p *problem) (err error) {
			sc.items, err = core.BuildItemsInto(sc.items, p.g, p.classes, p.tm)
			return err
		},
		"core.knapsack": func(p *problem) error {
			if cap(sc.chosen) < len(p.items) {
				sc.chosen = make([]bool, len(p.items))
			}
			_, err := core.KnapsackInto(ctx, sc.chosen[:len(p.items)], p.items, p.capacity)
			return err
		},
		"retime.apply": func(p *problem) error {
			return retime.ApplyInto(&sc.res, p.g, p.classes, p.assign, p.tm.Period, p.order)
		},
		"wire.append_plan": func(p *problem) error {
			rp.buf = wire.AppendPlan(rp.buf[:0], p.plan)
			return nil
		},
		"store.put": func(p *problem) error {
			return rp.store.Put(p.fp, p.planFrame)
		},
		"store.get": func(p *problem) error {
			if _, ok := rp.store.Get(p.fp); !ok {
				return errors.New("harness store lost an entry")
			}
			return nil
		},
		"wire.decode_plan": func(p *problem) (err error) {
			rp.decoded, err = wire.DecodePlan(p.planFrame, graphLimits)
			return err
		},
		"cluster.fill": func(p *problem) error {
			payload, ok := rp.fills.Fill(ctx, p.fp, func() []byte {
				return wire.AppendPeerFill(nil, wire.SchemeParaCONV, rp.cfg, p.g)
			})
			if !ok {
				return errors.New("fill from the live owner failed")
			}
			rp.payload = payload
			return nil
		},
		"cluster.ring_owner": func(p *problem) error {
			rp.ring.Owner(p.fp)
			return nil
		},
		"wire.decode_fill_plan": func(p *problem) (err error) {
			rp.decoded, err = wire.DecodeFillPlan(rp.payload, p.g, graphLimits)
			return err
		},
		"sched.validate": func(p *problem) error {
			return rp.decoded.Iter.Validate()
		},
		"wire.append_plan_response": func(p *problem) error {
			rp.buf = wire.AppendPlanResponse(rp.buf[:0], &p.want)
			return nil
		},
	}
}

// exchange plans graph k on the front daemon and checks the answer.
func (rp *replayer) exchange(k int) error {
	status, body, err := rp.front.exchange(rp.pop[k].raw)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("graph %d: status %d: %s", k, status, body)
	}
	return rp.ans.check(k, body)
}

// settle sends the population's last few graphs, so that the small
// memory LRU and the budgeted store of a miss workload hold exactly
// those when the exchange phase starts at graph 0.  Wherever the window
// happened to stop, the phase then takes the workload's path on every
// request, and the daemons' counters move by the same amounts each run.
func (rp *replayer) settle() error {
	for k := len(rp.pop) - smallCacheBound; k < len(rp.pop); k++ {
		if err := rp.exchange(k); err != nil {
			return fmt.Errorf("settling exchange for graph %d: %w", k, err)
		}
	}
	return nil
}

// exchanges runs the real 1-client exchanges, one per request: the
// root span of each request.
func (rp *replayer) exchanges(t *tracer) error {
	for r := 0; r < traceRequests; r++ {
		k := r % len(rp.pop)
		if _, err := t.do(r, "server.roundtrip", 0, func() error { return rp.exchange(k) }); err != nil {
			return fmt.Errorf("traced exchange %d: %w", r, err)
		}
	}
	return nil
}

// ledger replays the serving path of every request in-process, as
// children of the request's exchange.
func (rp *replayer) ledger(t *tracer) error {
	for r := 0; r < traceRequests; r++ {
		p := rp.pop[r%len(rp.pop)]
		rp.fresh = [2]*dag.Graph{}
		for _, name := range rp.path {
			if err := rp.call(t, r, p, name, rootOf(r)); err != nil {
				return fmt.Errorf("traced request %d: %w", r, err)
			}
		}
	}
	// Only the warming pass may have missed: a miss here means
	// run.plan_hit timed a solve.
	if rp.sess != nil {
		if st := rp.sess.CacheStats(); st.Misses != uint64(len(rp.pop)) {
			return fmt.Errorf("warmed session missed its plan cache %d times", st.Misses-uint64(len(rp.pop)))
		}
	}
	return nil
}

// call runs one named call and then the calls nested in it.
func (rp *replayer) call(t *tracer, r int, p *problem, name string, parent int32) error {
	id, err := t.do(r, name, parent, func() error { return rp.calls[name](p) })
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, child := range nested[name] {
		if err := rp.call(t, r, p, child, id); err != nil {
			return err
		}
	}
	return nil
}

// ledgerRow is one line of a workload's latency ledger.
type ledgerRow struct {
	name   string
	selfUS float64
}

// traceResult is what the traced pass adds to a workload's report.
type traceResult struct {
	layer    map[string]float64 // timing metrics by name
	ledger   []ledgerRow        // on-path self times, in path order
	dpRows   int64              // daemons' DP rows over the traced exchanges
	solves   int64              // daemons' solves over the traced exchanges
	spanFile string
	spans    int
}

// tracedPass runs the replay twice — spans on, then off — and reduces
// the spans to the layer metrics and the workload's ledger.
func tracedPass(ctx context.Context, r *runner, f *fleet, outDir string) (*traceResult, error) {
	front, err := dial(f.daemons[0].addr)
	if err != nil {
		return nil, err
	}
	defer front.close()
	dir := filepath.Join(outDir, "data", r.w.name+"-ledger")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rp, err := newReplayer(ctx, r, front, dir)
	if err != nil {
		return nil, err
	}
	defer rp.close()

	res := &traceResult{layer: map[string]float64{}}
	t := newTracer()

	// The exchange phase is a fixed request sequence, so the daemons'
	// counter deltas across it repeat exactly for a seed: that is where
	// core.dp_rows_per_solve comes from.
	if err := rp.settle(); err != nil {
		return nil, err
	}
	before, _, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := rp.exchanges(t); err != nil {
		return nil, err
	}
	traced := time.Since(start)
	after, _, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	counts := windowCounts(before, after)
	res.dpRows, res.solves = counts.dpRows, counts.solves

	start = time.Now()
	if err := rp.ledger(t); err != nil {
		return nil, err
	}
	traced += time.Since(start)

	if err := rp.settle(); err != nil {
		return nil, err
	}
	start = time.Now()
	if err := rp.exchanges(nil); err != nil {
		return nil, err
	}
	if err := rp.ledger(nil); err != nil {
		return nil, err
	}
	untraced := time.Since(start)
	res.layer["loadgen.trace_overhead_share"] = (traced - untraced).Seconds() / untraced.Seconds()

	if slices.Contains(rp.path, "store.get") {
		// The restart re-opens a dir holding the whole population.
		var opens []int64
		for i := 0; i < 21; i++ {
			start := time.Now()
			if _, err := store.Open(rp.store.Dir(), store.Options{}); err != nil {
				return nil, err
			}
			opens = append(opens, time.Since(start).Nanoseconds())
		}
		slices.Sort(opens)
		res.layer["store.open_s"] = float64(percentile(opens, 0.5)) / 1e9
	}

	reduceSpans(t.spans, r.w.name, res)
	res.spans = len(t.spans)
	res.spanFile = filepath.Join(outDir, "trace_"+r.w.name+".jsonl")
	return res, writeSpans(res.spanFile, t.spans)
}

// reduceSpans turns one traced pass into the timing metrics and the
// ledger of the named workload.  A span name occurs once per request,
// so durations are tabulated by (name, request); a self time subtracts
// the same request's nested calls.
func reduceSpans(spans []span, workload string, res *traceResult) {
	durs := map[string][]int64{} // name -> duration per request
	for _, s := range spans {
		if durs[s.Name] == nil {
			durs[s.Name] = make([]int64, traceRequests)
		}
		durs[s.Name][s.Request] = s.EndNS - s.StartNS
	}
	p50 := func(name string, self bool) float64 {
		vals := slices.Clone(durs[name])
		if self {
			for _, child := range nested[name] {
				for r, d := range durs[child] {
					vals[r] -= d
				}
			}
		}
		slices.Sort(vals)
		return micros(percentile(vals, 0.5))
	}
	for _, lt := range layerTimes {
		if durs[lt.span] != nil {
			res.layer[lt.metric] = p50(lt.span, lt.self)
		}
	}

	// The ledger: p50 self time of every call on the path.  What the
	// real exchange took beyond their sum is the server layer's own:
	// HTTP parse, admission-pool hand-off, response write, loopback.
	var sum float64
	for _, name := range pathSpans(workload) {
		row := ledgerRow{name: name, selfUS: p50(name, true)}
		res.ledger = append(res.ledger, row)
		sum += row.selfUS
	}
	roundtrip := res.layer["server.roundtrip_us"]
	res.layer["server.overhead_us"] = roundtrip - sum
	res.layer["server.overhead_share"] = (roundtrip - sum) / roundtrip
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
