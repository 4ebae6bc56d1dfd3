package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series is one integer-valued line of a Prometheus text exposition.
type series struct {
	name   string // metric name, without labels
	labels string // the text between the braces, "" when unlabelled
	value  int64
}

// counters is one scrape of a daemon's /metrics, reduced to the
// integer series (counters, gauges, histogram counts); fractional
// values such as histogram sums are not needed and are dropped.
type counters []series

// parseExposition reads the Prometheus 0.0.4 text format.
func parseExposition(r io.Reader) (counters, error) {
	var out counters
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			if _, ferr := strconv.ParseFloat(line[sp+1:], 64); ferr != nil {
				return nil, fmt.Errorf("metrics: bad value in line %q", line)
			}
			continue
		}
		s := series{name: strings.TrimSpace(line[:sp]), value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics: unterminated labels in line %q", line)
			}
			s.name, s.labels = s.name[:open], s.name[open+1:len(s.name)-1]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds up every series of the named metric whose label text
// contains all of labelParts (`endpoint="plan"`).  A metric that was
// never touched is absent from the exposition and sums to 0.
func (c counters) sum(name string, labelParts ...string) int64 {
	var total int64
next:
	for _, s := range c {
		if s.name != name {
			continue
		}
		for _, part := range labelParts {
			if !strings.Contains(s.labels, part) {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// pathCounts are the counter deltas over one measured window that say
// which path the requests took, summed over the workload's daemons
// (requests counts the front daemon only: the one the clients talk
// to).
type pathCounts struct {
	requests       int64 // front daemon's 2xx answers on /v1/plan
	memHits        int64
	solves         int64
	dedup          int64
	storeHits      int64
	storeWrites    int64
	storeEvictions int64
	peerFills      int64
	fillFailures   int64
	fallbacks      int64
	shed           int64
	dpRows         int64
}

// windowCounts turns before/after scrapes (one pair per daemon, the
// front daemon first) into the window's deltas.
func windowCounts(before, after []counters) pathCounts {
	d := func(name string, labelParts ...string) int64 {
		var total int64
		for i := range after {
			total += after[i].sum(name, labelParts...) - before[i].sum(name, labelParts...)
		}
		return total
	}
	plan2xx := []string{`endpoint="plan"`, `code="2xx"`}
	return pathCounts{
		requests:       after[0].sum("paraconv_server_requests_total", plan2xx...) - before[0].sum("paraconv_server_requests_total", plan2xx...),
		memHits:        d("paraconv_plancache_hits_total"),
		solves:         d("paraconv_plan_solve_seconds_count"),
		dedup:          d("paraconv_plancache_dedup_hits_total"),
		storeHits:      d("paraconv_store_hits_total"),
		storeWrites:    d("paraconv_store_writes_total"),
		storeEvictions: d("paraconv_store_evictions_total"),
		peerFills:      d("paraconv_cluster_peer_fills_total"),
		fillFailures:   d("paraconv_cluster_peer_fill_failures_total"),
		fallbacks:      d("paraconv_cluster_fallback_solves_total"),
		shed:           d("paraconv_server_shed_total"),
		dpRows:         d("paraconv_sched_dp_rows_total"),
	}
}

// pathCheck is one exact-count assertion about a workload's path.
type pathCheck struct {
	counter   string
	got, want int64
}

// pathChecks lists what must hold exactly for the named workload when
// the clients completed n requests in the window.  A workload that is
// not on its path measured something else, so any violation fails the
// run.
func pathChecks(workload string, n int64, pc pathCounts) []pathCheck {
	checks := []pathCheck{
		{"paraconv_server_requests_total{plan,2xx}", pc.requests, n},
		{"paraconv_server_shed_total", pc.shed, 0},
	}
	switch workload {
	case "mem_hit":
		checks = append(checks,
			pathCheck{"paraconv_plancache_hits_total", pc.memHits, n},
			pathCheck{"paraconv_plan_solve_seconds_count", pc.solves, 0})
	case "cold_solve":
		checks = append(checks,
			pathCheck{"paraconv_plan_solve_seconds_count", pc.solves, n},
			pathCheck{"paraconv_store_writes_total", pc.storeWrites, n},
			pathCheck{"paraconv_store_hits_total", pc.storeHits, 0},
			pathCheck{"paraconv_plancache_dedup_hits_total", pc.dedup, 0})
	case "store_hit":
		checks = append(checks,
			pathCheck{"paraconv_store_hits_total", pc.storeHits, n},
			pathCheck{"paraconv_plan_solve_seconds_count", pc.solves, 0},
			pathCheck{"paraconv_store_writes_total", pc.storeWrites, 0})
	case "peer_fill":
		// solves sums the edge and the owner: neither may solve.
		checks = append(checks,
			pathCheck{"paraconv_cluster_peer_fills_total", pc.peerFills, n},
			pathCheck{"paraconv_plan_solve_seconds_count", pc.solves, 0},
			pathCheck{"paraconv_cluster_fallback_solves_total", pc.fallbacks, 0},
			pathCheck{"paraconv_cluster_peer_fill_failures_total", pc.fillFailures, 0})
	}
	return checks
}

// failedChecks formats the violated assertions, one per line, or ""
// when the workload stayed on its path.
func failedChecks(checks []pathCheck) string {
	var b strings.Builder
	for _, c := range checks {
		if c.got != c.want {
			fmt.Fprintf(&b, "  %s moved by %d in the window; want %d\n", c.counter, c.got, c.want)
		}
	}
	return b.String()
}

// share is num/den for two window counts, 0 when nothing was counted.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
