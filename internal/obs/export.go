package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// escapeLabelValue escapes a label value for the Prometheus text
// format (backslash, double quote, newline).
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// escapeHelp escapes a HELP string (backslash, newline).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// series renders `name{labels}` or `name{labels,extra}` for one line.
func series(name, labelKey, extra string) string {
	switch {
	case labelKey == "" && extra == "":
		return name
	case labelKey == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labelKey + "}"
	default:
		return name + "{" + labelKey + "," + extra + "}"
	}
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation).
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one `# HELP` / `# TYPE` header per family,
// then one line per series, with histogram families expanded into
// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevFamily := ""
	for _, in := range r.instruments() {
		if in.name != prevFamily {
			fmt.Fprintf(bw, "# HELP %s %s\n", in.name, escapeHelp(in.help))
			fmt.Fprintf(bw, "# TYPE %s %s\n", in.name, in.kind)
			prevFamily = in.name
		}
		switch in.kind {
		case KindCounter:
			fmt.Fprintf(bw, "%s %d\n", series(in.name, in.labelKey, ""), in.counter.Value())
		case KindGauge:
			fmt.Fprintf(bw, "%s %d\n", series(in.name, in.labelKey, ""), in.gauge.Value())
		case KindHistogram:
			st := in.hist.State()
			cum := uint64(0)
			for i, bound := range st.Bounds {
				cum += st.BucketCounts[i]
				fmt.Fprintf(bw, "%s %d\n",
					series(in.name+"_bucket", in.labelKey, `le="`+formatFloat(bound)+`"`), cum)
			}
			fmt.Fprintf(bw, "%s %d\n", series(in.name+"_bucket", in.labelKey, `le="+Inf"`), st.Count)
			fmt.Fprintf(bw, "%s %s\n", series(in.name+"_sum", in.labelKey, ""), formatFloat(st.Sum))
			fmt.Fprintf(bw, "%s %d\n", series(in.name+"_count", in.labelKey, ""), st.Count)
		}
	}
	return bw.Flush()
}

// ScalarSnapshot is one counter or gauge in a Snapshot.
type ScalarSnapshot struct {
	Name   string            `json:"name"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// BucketSnapshot is one finite histogram bucket: the cumulative count
// of samples at or below the upper bound.  Samples above every bound
// are Count minus the last bucket's cumulative count (the +Inf bucket
// is implicit, keeping the JSON free of non-finite numbers).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnapshot is one histogram in a Snapshot.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Help    string            `json:"help,omitempty"`
	Labels  map[string]string `json:"labels,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets"`
	Sum     float64           `json:"sum"`
	Count   uint64            `json:"count"`
}

// CountAtOrBelow returns the number of samples at or below bound.
// bound should be one of the histogram's bucket bounds; otherwise the
// count is taken at the largest bucket bound not exceeding it (the
// conservative reading: anything between two bounds is assumed above).
func (h HistogramSnapshot) CountAtOrBelow(bound float64) uint64 {
	var at uint64
	for _, b := range h.Buckets {
		if b.UpperBound > bound {
			break
		}
		at = b.Count // buckets are cumulative
	}
	return at
}

// CountAbove returns the number of samples strictly above the largest
// bucket bound not exceeding bound — the "bad events" reading an SLO
// like "p99 below 5ms" needs when 0.005 is a bucket bound.
func (h HistogramSnapshot) CountAbove(bound float64) uint64 {
	return h.Count - h.CountAtOrBelow(bound)
}

// Snapshot is a point-in-time copy of a registry, shaped for
// encoding/json round-trips (no channels, no non-finite floats).
type Snapshot struct {
	Counters   []ScalarSnapshot    `json:"counters"`
	Gauges     []ScalarSnapshot    `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot captures every registered instrument.  Instruments appear
// sorted by name then label set, matching the Prometheus export order.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   []ScalarSnapshot{},
		Gauges:     []ScalarSnapshot{},
		Histograms: []HistogramSnapshot{},
	}
	for _, in := range r.instruments() {
		switch in.kind {
		case KindCounter:
			snap.Counters = append(snap.Counters, ScalarSnapshot{
				Name: in.name, Help: in.help, Labels: labelMap(in.labels), Value: in.counter.Value(),
			})
		case KindGauge:
			snap.Gauges = append(snap.Gauges, ScalarSnapshot{
				Name: in.name, Help: in.help, Labels: labelMap(in.labels), Value: in.gauge.Value(),
			})
		case KindHistogram:
			st := in.hist.State()
			hs := HistogramSnapshot{
				Name: in.name, Help: in.help, Labels: labelMap(in.labels),
				Buckets: make([]BucketSnapshot, len(st.Bounds)),
				Sum:     st.Sum, Count: st.Count,
			}
			cum := uint64(0)
			for i, bound := range st.Bounds {
				cum += st.BucketCounts[i]
				hs.Buckets[i] = BucketSnapshot{UpperBound: bound, Count: cum}
			}
			snap.Histograms = append(snap.Histograms, hs)
		}
	}
	return snap
}

// WriteJSON writes the registry's Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
