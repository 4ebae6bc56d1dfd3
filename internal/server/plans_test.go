package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/pim"
	"repro/internal/run"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/wire"
)

// plansGraph generates a graph for the content-addressed endpoint
// tests (synth output, so each seed is a distinct fingerprint).
func plansGraph(t *testing.T, seed int64) *dag.Graph {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: "plans", Vertices: 24, Edges: 50, Seed: seed})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return g
}

// getPlans issues GET /v1/plans/{fp}, optionally with a fill body.
func getPlans(t *testing.T, baseURL, fp string, fill []byte) (*http.Response, []byte) {
	t.Helper()
	var body io.Reader
	if fill != nil {
		body = bytes.NewReader(fill)
	}
	req, err := http.NewRequest(http.MethodGet, baseURL+"/v1/plans/"+fp, body)
	if err != nil {
		t.Fatal(err)
	}
	if fill != nil {
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestPlansBadFingerprint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, fp := range []string{
		"short",
		strings.Repeat("g", 64), // not hex
		strings.Repeat("A", 64), // uppercase is not canonical
	} {
		resp, data := getPlans(t, ts.URL, fp, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("fp %q: status %d, want 400", fp, resp.StatusCode)
			continue
		}
		if e := decodeError(t, data); e.Kind != "bad_fingerprint" {
			t.Errorf("fp %q: kind %q, want bad_fingerprint", fp, e.Kind)
		}
	}
}

func TestPlansMissWithoutBodyIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := getPlans(t, ts.URL, strings.Repeat("ab", 32), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404; body %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "not_found" {
		t.Errorf("kind %q, want not_found", e.Kind)
	}
}

// TestPlansLookupAfterSolve: a plan solved through /v1/plan is
// retrievable by its content fingerprint as its at-rest frame.
func TestPlansLookupAfterSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/plan", map[string]any{
		"graph": testGraphText, "arch": "neurocube", "pes": 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed solve failed: %d %s", resp.StatusCode, data)
	}

	g, err := dag.ReadTextLimits(strings.NewReader(testGraphText), dag.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	fp := run.PlanFingerprint("", "", g, pim.Neurocube(4))
	resp, data = getPlans(t, ts.URL, fp, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup status %d, body %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Errorf("Content-Type %q, want %s", ct, wire.ContentTypeBinary)
	}
	p, err := wire.DecodeFillPlan(data, g, dag.Limits{})
	if err != nil {
		t.Fatalf("payload failed to decode as a plan frame: %v", err)
	}
	if err := p.Iter.Validate(); err != nil {
		t.Fatalf("served plan invalid: %v", err)
	}
}

// TestPlansFillSolvesOnBehalf: a miss with a fill body makes this node
// solve the carried problem; the result is then cached for bodiless
// lookups.
func TestPlansFillSolvesOnBehalf(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := plansGraph(t, 71)
	cfg := pim.Neurocube(16)
	fp := run.PlanFingerprint("", "", g, cfg)

	resp, data := getPlans(t, ts.URL, fp, wire.AppendPeerFill(nil, "para-conv", cfg, g))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fill status %d, body %s", resp.StatusCode, data)
	}
	p, err := wire.DecodeFillPlan(data, g, dag.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Iter.Validate(); err != nil {
		t.Fatalf("fill-solved plan invalid: %v", err)
	}

	// The fill's solve went through the shared session: a bodiless
	// lookup now hits.
	resp, _ = getPlans(t, ts.URL, fp, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fill lookup status %d, want 200", resp.StatusCode)
	}
	if cs := s.CacheStats(); cs.Misses != 1 {
		t.Errorf("Misses = %d after one fill solve, want 1", cs.Misses)
	}
}

// TestPlansFingerprintMismatch: a fill frame that does not hash to the
// requested fingerprint must be rejected, not solved — it would poison
// the content keyspace.
func TestPlansFingerprintMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cfg := pim.Neurocube(16)
	fpA := run.PlanFingerprint("", "", plansGraph(t, 72), cfg)
	fillB := wire.AppendPeerFill(nil, "para-conv", cfg, plansGraph(t, 73))

	resp, data := getPlans(t, ts.URL, fpA, fillB)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Kind != "fingerprint_mismatch" {
		t.Errorf("kind %q, want fingerprint_mismatch", e.Kind)
	}
}

func TestPlansBadFillFrame(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := getPlans(t, ts.URL, strings.Repeat("cd", 32), []byte("junk frame"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, data)
	}
}

// probeFailStore is a BlobStore whose readiness probe fails, modelling
// a daemon whose data dir went read-only after boot.
type probeFailStore struct{ err error }

func (p *probeFailStore) Get(string) ([]byte, bool) { return nil, false }
func (p *probeFailStore) Put(string, []byte) error  { return nil }
func (p *probeFailStore) Probe() error              { return p.err }

// TestReadyzProbesStore: /readyz must exercise the durable store's
// write path, not just report process liveness — and /healthz must
// stay 200 so cluster peers keep probing the degraded node.
func TestReadyzProbesStore(t *testing.T) {
	st := &probeFailStore{}
	_, ts := newTestServer(t, Config{Store: st})

	resp, data := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(data, "ready") {
		t.Fatalf("healthy store: /readyz = %d %q, want 200 ready", resp.StatusCode, data)
	}

	st.err = errors.New("read-only filesystem")
	resp, data = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing store: /readyz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(data, "read-only filesystem") {
		t.Errorf("/readyz body %q does not surface the probe error", data)
	}
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d with a failing store, want 200 (health != readiness)", resp.StatusCode)
	}
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// TestTwoNodeClusterFill is the tentpole in miniature: two servers,
// one ring, the same problem posted to both — exactly one local solve
// cluster-wide, with the non-owner served by a peer fill.
func TestTwoNodeClusterFill(t *testing.T) {
	sA, tsA := newTestServer(t, Config{})
	sB, tsB := newTestServer(t, Config{})
	addrA := tsA.Listener.Addr().String()
	addrB := tsB.Listener.Addr().String()
	members := []string{addrA, addrB}

	clA, err := cluster.New(cluster.Config{Self: addrA, Peers: members, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	clB, err := cluster.New(cluster.Config{Self: addrB, Peers: members, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	sA.AttachCluster(clA)
	sB.AttachCluster(clB)

	g, err := dag.ReadTextLimits(strings.NewReader(testGraphText), dag.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	fp := run.PlanFingerprint("", "", g, pim.Neurocube(4))

	// Both rings are built from the same member list, so they agree on
	// the owner; sort out which server plays which role.
	owner, nonOwner := sA, sB
	ownerTS, nonOwnerTS := tsA, tsB
	ownerAddr := addrA
	if clA.Owner(fp) == addrB {
		owner, nonOwner = sB, sA
		ownerTS, nonOwnerTS = tsB, tsA
		ownerAddr = addrB
	}

	body := map[string]any{"graph": testGraphText, "arch": "neurocube", "pes": 4}
	resp, data := post(t, nonOwnerTS, "/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner solve: %d %s", resp.StatusCode, data)
	}
	if node := resp.Header.Get("X-Paraconv-Node"); node == ownerAddr {
		t.Errorf("non-owner's response claims the owner node %s answered", node)
	}
	resp, data = post(t, ownerTS, "/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner solve: %d %s", resp.StatusCode, data)
	}

	ocs, ncs := owner.CacheStats(), nonOwner.CacheStats()
	if ncs.PeerFills != 1 || ncs.PeerFallbacks != 0 {
		t.Errorf("non-owner counters = %d fills / %d fallbacks, want 1 / 0", ncs.PeerFills, ncs.PeerFallbacks)
	}
	// The owner solved once — for the fill — and served its own POST
	// from that cached plan.  The non-owner's miss was filled, never
	// solved: one solve cluster-wide.
	if ocs.Misses != 1 || ocs.Hits != 1 {
		t.Errorf("owner counters = %d misses / %d hits, want 1 / 1", ocs.Misses, ocs.Hits)
	}
	if ocs.PeerFills != 0 {
		t.Errorf("owner issued %d peer fills for its own key, want 0", ocs.PeerFills)
	}
}

// TestPlansLeanServing: a para-conv plan solved for a fill is
// answered with its kernel-free lean frame, and a later bodiless
// lookup gets the memory entry's same at-rest bytes.
func TestPlansLeanServing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := plansGraph(t, 81)
	cfg := pim.Neurocube(16)
	fp := run.PlanFingerprint("", "", g, cfg)

	resp, data := getPlans(t, ts.URL, fp, wire.AppendPeerFill(nil, "para-conv", cfg, g))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fill status %d, body %s", resp.StatusCode, data)
	}
	p, err := wire.DecodeLeanPlan(data, g)
	if err != nil {
		t.Fatalf("fill answer is not a lean frame: %v", err)
	}
	if err := p.Iter.Validate(); err != nil {
		t.Fatalf("lean fill-solved plan invalid: %v", err)
	}
	if want := wire.AppendAtRest(nil, p); !bytes.Equal(data, want) {
		t.Fatal("fill answer is not the plan's at-rest frame")
	}

	resp, warm := getPlans(t, ts.URL, fp, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(warm, data) {
		t.Fatalf("warm lookup = status %d; want 200 with the fill's lean bytes", resp.StatusCode)
	}
}

// TestPlansStoreOnlyEntry: a restarted owner holds its plans only in
// its store.  A bodiless lookup gets the stored at-rest bytes
// verbatim — the lean frame of a para-conv plan, the self-contained
// frame of a baseline.
func TestPlansStoreOnlyEntry(t *testing.T) {
	dir := t.TempDir()
	g := plansGraph(t, 91)
	cfg := pim.Neurocube(16)

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: st1})
	kinds := map[string]byte{"para-conv": 'l', "sparta": 'L'}
	fps := map[string]string{}
	for variant := range kinds {
		fps[variant] = run.PlanFingerprint(variant, "", g, cfg)
		if resp, data := getPlans(t, ts1.URL, fps[variant], wire.AppendPeerFill(nil, variant, cfg, g)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding %s solve: %d %s", variant, resp.StatusCode, data)
		}
	}

	// A restart finds what the first boot's drain flushed.
	if err := st1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Store: st2})
	for variant, kind := range kinds {
		resp, data := getPlans(t, ts2.URL, fps[variant], nil)
		stored, _ := st2.Get(fps[variant])
		if resp.StatusCode != http.StatusOK || !bytes.Equal(data, stored) {
			t.Fatalf("%s lookup = %d %s; want 200 with the stored bytes", variant, resp.StatusCode, data)
		}
		if data[2] != kind {
			t.Errorf("%s lookup answered a %q frame, want %q", variant, data[2], kind)
		}
		p, err := wire.DecodeFillPlan(data, g, dag.Limits{})
		if err != nil {
			t.Fatalf("%s lookup payload: %v", variant, err)
		}
		if p.Scheme != variant {
			t.Errorf("%s lookup decoded scheme %q", variant, p.Scheme)
		}
	}
}

// TestDrainLandsAcceptedStoreWrites: the store commits behind the
// response, so a drain is what makes an answered solve durable — after
// a clean Drain every write the store accepted is a file in its dir,
// with no Flush from the caller.  The store fsyncs, so commits are
// still in flight when the drain starts.
func TestDrainLandsAcceptedStoreWrites(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st})
	running, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const graphs = 8
	for seed := int64(0); seed < graphs; seed++ {
		var text bytes.Buffer
		if err := dag.WriteText(&text, plansGraph(t, 500+seed)); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"graph": text.String(), "pes": 8})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+running.Addr()+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %d: status %d", seed, resp.StatusCode)
		}
	}
	if err := running.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// A reopen of the dir sees what a restarted daemon would.
	reopened, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats, n := st.Stats(), reopened.Stats().Entries; stats.Writes != graphs || stats.WriteErrors != 0 || n != graphs {
		t.Fatalf("after Drain: the reopened store holds %d entries, store stats %+v; want %d writes, all on disk", n, stats, graphs)
	}
}
