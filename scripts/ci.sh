#!/usr/bin/env bash
# ci.sh — the full local gate, identical to what CI runs.
#
# Order is cheap-to-expensive: formatting and static analysis fail in
# seconds, the race detector and fuzz smoke run last.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
# Includes copylocks: by-value copies of lock-bearing types are go
# vet's rule here, not paraconv-vet's (see locksafe).
go vet ./...

echo "== paraconv-vet"
go run ./cmd/paraconv-vet ./...

echo "== paraconv-vet -escapes"
# The hot-path escape gate: //paraconv:hotpath functions must not have
# grown heap allocations beyond the committed .paraconv-escapes
# baseline (regenerate intentional changes with -escapes-update).
go run ./cmd/paraconv-vet -escapes ./...

echo "== one program under test and in the daemon"
# No production code branches on test mode: the plan check
# (sched.CheckPlan) is always on, and internal/check is a reference
# verifier that tests call directly, never a gate inside the program.
if hits=$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=testdata \
    'testing\.Testing\(|check\.Enabled' .); then
    echo "non-test Go outside benchmark/ branches on test mode:" >&2
    echo "$hits" >&2
    exit 1
fi

echo "== the stored-plan frame stays with the benchmarks"
# Every plan rests in the lean frame (wire.AppendLeanPlan and
# DecodeLeanPlan).  The self-contained 'L' frame is written and read
# only by benchmark/ and internal/bench until they retire it.
if hits=$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=bench --exclude-dir=testdata \
    'wire\.(AppendPlan|DecodePlan|DecodeFillPlan)\b' .); then
    echo "non-test Go outside benchmark/ and internal/bench names the stored-plan frame:" >&2
    echo "$hits" >&2
    exit 1
fi

echo "== build"
go build ./...

echo "== test"
go test ./...

echo "== test -race"
go test -race ./...

echo "== fuzz smoke"
go test -run='^$' -fuzz='^FuzzDAGCodecRoundTrip$' -fuzztime=10s ./internal/dag/
go test -run='^$' -fuzz='^FuzzBinaryCodecRoundTrip$' -fuzztime=10s ./internal/dag/
go test -run='^$' -fuzz='^FuzzRequestFrameSplit$' -fuzztime=10s ./internal/wire/
go test -run='^$' -fuzz='^FuzzPlanFrames$' -fuzztime=10s ./internal/wire/
go test -run='^$' -fuzz='^FuzzSplitPeerFill$' -fuzztime=10s ./internal/wire/
go test -run='^$' -fuzz='^FuzzStoreFrame$' -fuzztime=10s ./internal/store/
go test -run='^$' -fuzz='^FuzzStoreSegment$' -fuzztime=10s ./internal/store/
go test -run='^$' -fuzz='^FuzzPeerResponse$' -fuzztime=10s ./internal/cluster/
go test -run='^$' -fuzz='^FuzzSynthGenerate$' -fuzztime=10s ./internal/synth/
go test -run='^$' -fuzz='^FuzzKnapsackEquivalence$' -fuzztime=10s ./internal/core/

echo "== bench under race"
# One short pass of the hot-loop benchmarks with the race detector on:
# the pooled DP scratch and trace buffers must be race-free under
# concurrent reuse.
go test -race -run='^$' -bench='BenchmarkKnapsack' -benchtime=3x ./internal/core/
go test -race -run='^$' -bench='BenchmarkSimRun|BenchmarkTraceRun' -benchtime=3x ./internal/sim/

echo "== bench smoke"
# Short windows, no new baseline file, no gate: this validates the
# harness end to end (and prints the comparison against the committed
# BENCH_*.json chain) without letting CI noise fail the build.  Run
# scripts/bench.sh with full windows to extend the baseline chain.
scripts/bench.sh --short --compare-only --no-gate
# The chain holds in-process kernels only; anything that boots a daemon
# is measured by `go run ./benchmark`.  Keep the paper-experiment tool
# from linking the serving stack again.
if daemon_deps=$(go list -deps ./internal/bench ./cmd/benchtab | grep -E '/internal/(server|cluster|store)$'); then
    echo "internal/bench or cmd/benchtab links the serving stack:" >&2
    echo "$daemon_deps" >&2
    exit 1
fi

echo "== benchtab parallel determinism smoke"
# A parallel benchtab run must be byte-identical to a serial one.
tmpdir=$(mktemp -d)
trap 'for p in "${http_pid:-}" "${pd_pid:-}" "${slo_pid:-}" "${wr_pid:-}" "${cl1_pid:-}" "${cl2_pid:-}" "${cl3_pid:-}"; do [[ -n "$p" ]] && kill "$p" 2>/dev/null || true; done; rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/benchtab" ./cmd/benchtab
"$tmpdir/benchtab" -exp table1 > "$tmpdir/serial.out"
"$tmpdir/benchtab" -exp table1 -parallel 4 > "$tmpdir/par4.out"
if ! cmp -s "$tmpdir/serial.out" "$tmpdir/par4.out"; then
    echo "benchtab -parallel 4 output differs from serial:" >&2
    diff "$tmpdir/serial.out" "$tmpdir/par4.out" >&2 || true
    exit 1
fi

# boot <pidvar> <label> <errlog> <ready> <cmd...>: start cmd in THIS
# shell (so the caller can wait on it) with its stderr in errlog, store
# its pid in pidvar (where the EXIT trap finds it), and poll the log for
# up to 10 s until it shows the ready line and a "listening on" address,
# which lands in boot_addr.  Fails with the log if the process exits
# first or never gets there.
boot() {
    local pidvar=$1 label=$2 errlog=$3 ready=$4
    shift 4
    "$@" 2> "$errlog" &
    local pid=$!
    printf -v "$pidvar" '%s' "$pid"
    for _ in $(seq 1 100); do
        if grep -q "$ready" "$errlog"; then
            boot_addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$errlog" | head -n1)
            [[ -n "$boot_addr" ]] && return
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "$label exited early:" >&2
            cat "$errlog" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "$label never reported its address:" >&2
    cat "$errlog" >&2
    exit 1
}

echo "== debug endpoint smoke"
# The -http debug server must come up on a free port and expose the
# core metric families after a run.  -http-hold keeps it alive until
# we have curled it; the port is read from the startup log line.
boot http_pid "benchtab -http" "$tmpdir/http.err" "holding debug server" \
    "$tmpdir/benchtab" -exp latency -http 127.0.0.1:0 -http-hold 60s > "$tmpdir/http.out"
addr=$boot_addr
curl -fsS "http://$addr/metrics" > "$tmpdir/metrics.txt"
for family in \
    paraconv_plancache_hits_total \
    paraconv_sched_dp_rows_total \
    paraconv_sim_runs_total \
    paraconv_runner_jobs_finished_total; do
    if ! grep -q "^$family" "$tmpdir/metrics.txt"; then
        echo "/metrics is missing family $family:" >&2
        head -n 40 "$tmpdir/metrics.txt" >&2
        exit 1
    fi
done
curl -fsS "http://$addr/metrics.json" | python3 -c 'import json,sys; json.load(sys.stdin)' \
    || { echo "/metrics.json is not valid JSON" >&2; exit 1; }
kill "$http_pid"
wait "$http_pid" 2>/dev/null || true
http_pid=""

echo "== paraconvd smoke"
# The planning daemon must come up on a free port, answer /v1/plan with
# a valid JSON plan, and drain cleanly on SIGTERM (exit 0).
go build -o "$tmpdir/paraconvd" ./cmd/paraconvd
boot pd_pid "paraconvd" "$tmpdir/pd.err" "listening on" "$tmpdir/paraconvd" -addr 127.0.0.1:0
pd_addr=$boot_addr
python3 - > "$tmpdir/plan_body.json" <<'PYEOF'
import json
graph = "graph smoke\n"
graph += "".join(f"node {i} conv {1 + i % 3} l{i}\n" for i in range(6))
graph += "edge 0 1 1 0 3\nedge 0 2 1 0 3\nedge 1 3 1 0 3\n"
graph += "edge 2 3 1 0 2\nedge 3 4 1 0 3\nedge 3 5 1 0 2\n"
print(json.dumps({"graph": graph, "pes": 8, "iterations": 50}))
PYEOF
curl -fsS -X POST -H 'Content-Type: application/json' \
    --data-binary "@$tmpdir/plan_body.json" \
    "http://$pd_addr/v1/plan" > "$tmpdir/plan_resp.json"
python3 - "$tmpdir/plan_resp.json" <<'PYEOF'
import json, sys
plan = json.load(open(sys.argv[1]))
assert plan["scheme"] == "para-conv", plan.get("scheme")
assert plan["period"] > 0 and plan["total_time"] > 0, plan
PYEOF
# The same graph as a binary request (wire kind 'Q' + trailing dag
# frame, spelt out here independently of the Go encoder), posted twice:
# the second is a plan-cache hit answered from the entry's cached frame
# and must match the first byte for byte.
python3 - > "$tmpdir/plan_body.bin" <<'PYEOF'
import sys
def uvarint(v):
    out = bytearray()
    while v >= 0x80:
        out.append(v & 0x7f | 0x80)
        v >>= 7
    out.append(v)
    return bytes(out)
def varint(v): return uvarint(v << 1 if v >= 0 else (-v << 1) - 1)
def string(s): return uvarint(len(s)) + s.encode()
edges = [(0, 1, 1, 0, 3), (0, 2, 1, 0, 3), (1, 3, 1, 0, 3), (2, 3, 1, 0, 2), (3, 4, 1, 0, 3), (3, 5, 1, 0, 2)]
req = b"PCQ\x01" + string("") + uvarint(0) + varint(8) + varint(50) + string("") + varint(0)
req += b"PCG\x01" + string("smoke") + uvarint(6) + uvarint(len(edges))
for i in range(6):
    req += bytes([0]) + varint(1 + i % 3) + string(f"l{i}")
for frm, to, size, cache, edram in edges:
    req += uvarint(frm) + uvarint(to) + varint(size) + varint(cache) + varint(edram)
sys.stdout.buffer.write(req)
PYEOF
plancache_hits() {
    curl -fsS "http://$pd_addr/metrics" | sed -n 's/^paraconv_plancache_hits_total //p'
}
curl -fsS -X POST -H 'Content-Type: application/x-paraconv-bin' \
    --data-binary "@$tmpdir/plan_body.bin" \
    "http://$pd_addr/v1/plan" > "$tmpdir/plan_resp1.bin"
hits_before=$(plancache_hits)
curl -fsS -X POST -H 'Content-Type: application/x-paraconv-bin' \
    --data-binary "@$tmpdir/plan_body.bin" \
    "http://$pd_addr/v1/plan" > "$tmpdir/plan_resp2.bin"
hits_after=$(plancache_hits)
if ! cmp -s "$tmpdir/plan_resp1.bin" "$tmpdir/plan_resp2.bin" || [[ ! -s "$tmpdir/plan_resp2.bin" ]]; then
    echo "the second binary /v1/plan answer differs from the first" >&2
    exit 1
fi
if (( hits_after != hits_before + 1 )); then
    echo "paraconv_plancache_hits_total went $hits_before -> $hits_after over one repeated binary request; want +1" >&2
    exit 1
fi
curl -fsS "http://$pd_addr/metrics" > "$tmpdir/pd_metrics.txt"
# Besides the gate's own gauges, every family benchmark/scrape.go
# reads: all are registered at boot (or by the one plan request above),
# so a rename fails here in seconds, not in a 20 s benchmark window.
for family in \
    paraconv_server_requests_total \
    paraconv_server_queue_capacity \
    paraconv_server_queue_depth \
    paraconv_server_inflight \
    paraconv_server_shed_total \
    paraconv_plancache_hits_total \
    paraconv_plancache_misses_total \
    paraconv_plancache_dedup_hits_total \
    paraconv_plan_solve_seconds_count \
    paraconv_sched_dp_rows_total \
    paraconv_store_hits_total \
    paraconv_store_writes_total \
    paraconv_store_evictions_total \
    paraconv_cluster_peer_fills_total \
    paraconv_cluster_peer_fill_failures_total \
    paraconv_cluster_fallback_solves_total; do
    if ! grep -q "^$family" "$tmpdir/pd_metrics.txt"; then
        echo "paraconvd /metrics is missing family $family:" >&2
        head -n 40 "$tmpdir/pd_metrics.txt" >&2
        exit 1
    fi
done
kill -TERM "$pd_pid"
if ! wait "$pd_pid"; then
    echo "paraconvd did not drain cleanly on SIGTERM:" >&2
    cat "$tmpdir/pd.err" >&2
    exit 1
fi
pd_pid=""
if ! grep -q "drained cleanly" "$tmpdir/pd.err"; then
    echo "paraconvd drain log line missing:" >&2
    cat "$tmpdir/pd.err" >&2
    exit 1
fi

echo "== trace + SLO smoke"
# A tracing daemon (-trace-sample 1) must hand every request a trace id,
# serve the full span tree for a cache-miss simulate request (all six
# pipeline stages), export it as a Chrome trace-event document, and
# hold the standard SLOs under a short paraconvload run gated by -slo.
boot slo_pid "tracing paraconvd" "$tmpdir/slo.err" "listening on" \
    "$tmpdir/paraconvd" -addr 127.0.0.1:0 -trace-sample 1
slo_addr=$boot_addr
# The FIRST simulate request is the trace fixture: a cache miss runs
# every stage (plan requests never run sim; cache hits skip the solver).
curl -fsS -D "$tmpdir/trace_hdrs.txt" -X POST -H 'Content-Type: application/json' \
    --data-binary "@$tmpdir/plan_body.json" \
    "http://$slo_addr/v1/simulate" > /dev/null
trace_id=$(tr -d '\r' < "$tmpdir/trace_hdrs.txt" | sed -n 's/^[Xx]-[Pp]araconv-[Tt]race: *//p' | head -n1)
if [[ ! "$trace_id" =~ ^[0-9a-f]{32}$ ]]; then
    echo "simulate response carried no X-Paraconv-Trace id (got '$trace_id'):" >&2
    cat "$tmpdir/trace_hdrs.txt" >&2
    exit 1
fi
curl -fsS "http://$slo_addr/debug/traces/$trace_id" > "$tmpdir/trace.json"
python3 - "$tmpdir/trace.json" <<'PYEOF'
import json, sys
detail = json.load(open(sys.argv[1]))
names = "\n".join(s["name"] for s in detail["spans"])
for stage in ("server", "cache", "singleflight", "retime", "knapsack", "sim"):
    assert stage in names, f"trace is missing a {stage} span:\n{names}"
assert len(detail["spans"]) >= 6, names
PYEOF
curl -fsS "http://$slo_addr/debug/traces/$trace_id/chrome" > "$tmpdir/trace_chrome.json"
python3 - "$tmpdir/trace_chrome.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert len(events) >= 6, events
assert all(e["ph"] == "X" and e["dur"] >= 1 for e in events), events
PYEOF
go build -o "$tmpdir/paraconvload" ./cmd/paraconvload
if ! "$tmpdir/paraconvload" -addr "$slo_addr" -workers 4 -duration 2s -slo \
    > "$tmpdir/slo_load.out"; then
    echo "paraconvload -slo reported an SLO breach:" >&2
    cat "$tmpdir/slo_load.out" >&2
    exit 1
fi
grep -q "slo: all objectives ok" "$tmpdir/slo_load.out" || {
    echo "paraconvload -slo did not print the all-ok verdict:" >&2
    cat "$tmpdir/slo_load.out" >&2
    exit 1
}
# /debug/slo answers 200 only while healthy (503 on breach), so -f is
# the whole gate.
curl -fsS "http://$slo_addr/debug/slo" | python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["healthy"], r'
kill -TERM "$slo_pid"
wait "$slo_pid" || { echo "tracing paraconvd did not drain cleanly" >&2; exit 1; }
slo_pid=""

echo "== warm-restart smoke"
# The durable plan store must survive a restart: boot a daemon on a
# data dir, populate it with a /v1/plan burst, drain, boot a fresh
# daemon on the SAME dir, replay the identical burst (same seed, same
# graph mix) and require zero solver work the second time around.
wr_dir="$tmpdir/wr-data"
start_wr_daemon() {
    boot wr_pid "warm-restart paraconvd" "$1" "listening on" \
        "$tmpdir/paraconvd" -addr 127.0.0.1:0 -data-dir "$wr_dir" -slo-interval 200ms
    wr_addr=$boot_addr
}
# check_burst <load-output> <label>: every request of a paraconvload
# run was answered 200, none died in transport.
check_burst() {
    if ! grep -q '^  status 200: ' "$1" \
        || grep '^  status ' "$1" | grep -v '^  status 200: ' > /dev/null \
        || ! grep -qE '^  accounted: [0-9]+ by status \+ 0 transport = ' "$1"; then
        echo "$2 burst had non-200 or lost requests:" >&2
        cat "$1" >&2
        exit 1
    fi
}
# sum_solves <metrics-file>: total uncached solves across variants
# (family absent = 0).
sum_solves() {
    awk '/^paraconv_plan_solve_seconds_count/ { s += $2 } END { printf "%d\n", s }' "$1"
}

start_wr_daemon "$tmpdir/wr1.err"
"$tmpdir/paraconvload" -addr "$wr_addr" -workers 4 -duration 2s \
    > "$tmpdir/wr_load1.out"
check_burst "$tmpdir/wr_load1.out" "first-boot"
curl -fsS "http://$wr_addr/metrics" > "$tmpdir/wr1_metrics.txt"
solves_a=$(sum_solves "$tmpdir/wr1_metrics.txt")
if [[ "$solves_a" -lt 1 ]]; then
    echo "first boot recorded no solves (got $solves_a); burst never reached the solver" >&2
    exit 1
fi
# The store commits behind the response; the drain must land every
# write it accepted.  The burst is over, so these counters are final.
store_writes=$(awk '/^paraconv_store_writes_total/ { print $2; exit }' "$tmpdir/wr1_metrics.txt")
store_errors=$(awk '/^paraconv_store_write_errors_total/ { print $2; exit }' "$tmpdir/wr1_metrics.txt")
if [[ -z "$store_writes" || "$store_writes" -lt 1 ]]; then
    echo "first boot accepted no store writes (got '$store_writes')" >&2
    exit 1
fi
kill -TERM "$wr_pid"
wait "$wr_pid" || { echo "warm-restart daemon (boot 1) did not drain cleanly" >&2; exit 1; }
wr_pid=""

start_wr_daemon "$tmpdir/wr2.err"
# Boot 2's Open scanned the segments boot 1's drain landed: before any
# request, it must index every write boot 1 accepted and did not fail.
curl -fsS "http://$wr_addr/metrics" > "$tmpdir/wr2_boot_metrics.txt"
boot_entries=$(awk '/^paraconv_store_entries / { print $2; exit }' "$tmpdir/wr2_boot_metrics.txt")
if [[ "$boot_entries" != "$(( store_writes - ${store_errors:-0} ))" ]]; then
    echo "restarted daemon indexed '$boot_entries' store entries; boot 1 accepted $store_writes writes with ${store_errors:-0} errors" >&2
    ls -la "$wr_dir" >&2 || true
    exit 1
fi
"$tmpdir/paraconvload" -addr "$wr_addr" -workers 4 -duration 2s \
    > "$tmpdir/wr_load2.out"
check_burst "$tmpdir/wr_load2.out" "post-restart"
curl -fsS "http://$wr_addr/metrics" > "$tmpdir/wr2_metrics.txt"
solves_b=$(sum_solves "$tmpdir/wr2_metrics.txt")
if [[ "$solves_b" -ne 0 ]]; then
    echo "restarted daemon ran $solves_b solves; the durable store should have served them all" >&2
    grep "^paraconv_store_" "$tmpdir/wr2_metrics.txt" >&2 || true
    exit 1
fi
store_hits=$(awk '/^paraconv_store_hits_total/ { print $2; exit }' "$tmpdir/wr2_metrics.txt")
if [[ -z "$store_hits" || "$store_hits" -lt 1 ]]; then
    echo "restarted daemon recorded no store hits (got '$store_hits')" >&2
    grep "^paraconv_store_" "$tmpdir/wr2_metrics.txt" >&2 || true
    exit 1
fi
curl -fsS "http://$wr_addr/debug/slo" \
    | python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["healthy"], r' \
    || { echo "warm-restarted daemon is burning SLO budget" >&2; exit 1; }
kill -TERM "$wr_pid"
wait "$wr_pid" || { echo "warm-restart daemon (boot 2) did not drain cleanly" >&2; exit 1; }
wr_pid=""

echo "== 3-node cluster smoke"
# A sharded fleet must act as one cache: identical plan requests at all
# three members may cost exactly ONE solve cluster-wide (the owner's),
# with the other two members peer-filling over the ring.  Then losing a
# member mid-burst must cost zero client-visible failures — every fill
# that can't reach its owner degrades to a local solve.
read -r cp1 cp2 cp3 < <(python3 - <<'PYEOF'
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
PYEOF
)
peerlist="127.0.0.1:$cp1,127.0.0.1:$cp2,127.0.0.1:$cp3"
for i in 1 2 3; do
    port_var="cp$i"
    boot "cl${i}_pid" "cluster member :${!port_var}" "$tmpdir/cl$i.err" "listening on" \
        "$tmpdir/paraconvd" -addr "127.0.0.1:${!port_var}" -peers "$peerlist"
done
for port in "$cp1" "$cp2" "$cp3"; do
    curl -fsS "http://127.0.0.1:$port/readyz" > "$tmpdir/cl_ready.txt"
    grep -q "^cluster: 3/3 members live$" "$tmpdir/cl_ready.txt" || {
        echo "member :$port /readyz does not report the full ring:" >&2
        cat "$tmpdir/cl_ready.txt" >&2
        exit 1
    }
done
# The same plan request at every member, twice around: one member owns
# the fingerprint and solves, the others fill from it, repeats are
# local cache hits everywhere.
for _ in 1 2; do
    for port in "$cp1" "$cp2" "$cp3"; do
        curl -fsS -X POST -H 'Content-Type: application/json' \
            --data-binary "@$tmpdir/plan_body.json" \
            "http://127.0.0.1:$port/v1/plan" > /dev/null
    done
done
cl_solves=0
cl_fills=0
for i in 1 2 3; do
    port_var="cp$i"
    curl -fsS "http://127.0.0.1:${!port_var}/metrics" > "$tmpdir/cl$i.metrics"
    cl_solves=$((cl_solves + $(sum_solves "$tmpdir/cl$i.metrics")))
    cl_fills=$((cl_fills + $(awk '/^paraconv_cluster_peer_fills_total/ { s += $2 } END { printf "%d\n", s }' "$tmpdir/cl$i.metrics")))
done
if [[ "$cl_solves" -ne 1 ]]; then
    echo "6 identical requests across 3 members cost $cl_solves solves; the cluster cache should have held it to 1" >&2
    grep -h "^paraconv_plan_solve_seconds_count\|^paraconv_cluster_" "$tmpdir"/cl?.metrics >&2 || true
    exit 1
fi
if [[ "$cl_fills" -ne 2 ]]; then
    echo "expected exactly 2 peer fills (one per non-owner); got $cl_fills" >&2
    grep -h "^paraconv_cluster_" "$tmpdir"/cl?.metrics >&2 || true
    exit 1
fi
# Degradation: hard-kill member 3 one second into a burst against the
# survivors.  Their breakers open on the corpse and every request still
# answers 200 — no transport errors, no non-200 statuses.
"$tmpdir/paraconvload" -addr "127.0.0.1:$cp1" \
    -cluster "127.0.0.1:$cp1,127.0.0.1:$cp2" \
    -workers 4 -duration 4s -seed 42 > "$tmpdir/cl_kill.out" &
cl_load_pid=$!
sleep 1
kill -KILL "$cl3_pid" 2>/dev/null || true
wait "$cl3_pid" 2>/dev/null || true
cl3_pid=""
wait "$cl_load_pid" || {
    echo "cluster burst load generator failed:" >&2
    cat "$tmpdir/cl_kill.out" >&2
    exit 1
}
if grep -q "transport errors" "$tmpdir/cl_kill.out"; then
    echo "killing one member surfaced transport errors to clients:" >&2
    cat "$tmpdir/cl_kill.out" >&2
    exit 1
fi
if grep -E '^  status ' "$tmpdir/cl_kill.out" | grep -qv 'status 200'; then
    echo "killing one member surfaced non-200 responses:" >&2
    cat "$tmpdir/cl_kill.out" >&2
    exit 1
fi
kill -TERM "$cl1_pid" "$cl2_pid"
wait "$cl1_pid" || { echo "cluster member 1 did not drain cleanly" >&2; exit 1; }
wait "$cl2_pid" || { echo "cluster member 2 did not drain cleanly" >&2; exit 1; }
cl1_pid=""
cl2_pid=""

echo "CI gate passed."
