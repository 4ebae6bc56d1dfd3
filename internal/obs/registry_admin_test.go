package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestResetZeroesValuesKeepsRegistrations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_c_total", "c")
	g := r.Gauge("test_g", "g")
	h := r.Histogram("test_h_seconds", "h", DurationBuckets)
	c.Add(5)
	g.Set(-2)
	h.Observe(0.3)
	h.Observe(0.7)

	r.Reset()

	snap := r.Snapshot()
	if len(snap.Counters) != 1 || len(snap.Gauges) != 1 || len(snap.Histograms) != 1 {
		t.Fatalf("Reset dropped registrations: %+v", snap)
	}
	if snap.Counters[0].Value != 0 || snap.Gauges[0].Value != 0 {
		t.Errorf("scalars not zeroed: %d / %d", snap.Counters[0].Value, snap.Gauges[0].Value)
	}
	hs := snap.Histograms[0]
	if hs.Count != 0 || hs.Sum != 0 {
		t.Errorf("histogram not zeroed: count %d sum %v", hs.Count, hs.Sum)
	}
	for _, b := range hs.Buckets {
		if b.Count != 0 {
			t.Errorf("bucket le=%v not zeroed: %d", b.UpperBound, b.Count)
		}
	}
	if len(hs.Buckets) != len(DurationBuckets) {
		t.Errorf("bucket layout lost: %d bounds, want %d", len(hs.Buckets), len(DurationBuckets))
	}
	// The instruments still record after Reset.
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("counter after Reset = %d, want 1", c.Value())
	}
}

func TestHistogramSnapshotCountHelpers(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "lat", DurationBuckets)
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 8; i++ {
		h.Observe(0.004) // lands in the 0.005 bucket
	}
	h.Observe(0.02)
	h.Observe(100) // above every bound
	hs := r.Snapshot().Histograms[0]

	if got := hs.CountAtOrBelow(0.005); got != 98 {
		t.Errorf("CountAtOrBelow(0.005) = %d, want 98", got)
	}
	if got := hs.CountAbove(0.005); got != 2 {
		t.Errorf("CountAbove(0.005) = %d, want 2", got)
	}
	// A bound above every finite bucket counts everything below +Inf.
	if got := hs.CountAbove(10); got != 1 {
		t.Errorf("CountAbove(10) = %d, want 1 (the overflow sample)", got)
	}
	// A non-bound falls back to the next lower bound (conservative).
	if got := hs.CountAbove(0.006); got != 2 {
		t.Errorf("CountAbove(0.006) = %d, want 2", got)
	}
}

func TestHistogramSumRoundTrips(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_sum_seconds", "sum", DurationBuckets)
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(1.25)

	// State carries the sum...
	if st := h.State(); math.Abs(st.Sum-2.0) > 1e-9 {
		t.Errorf("State().Sum = %v, want 2.0", st.Sum)
	}
	// ...the Prometheus export emits it...
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test_sum_seconds_sum 2\n") {
		t.Errorf("prometheus export missing _sum line:\n%s", buf.String())
	}
	// ...and the JSON snapshot round-trips it.
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Histograms) != 1 || math.Abs(snap.Histograms[0].Sum-2.0) > 1e-9 {
		t.Fatalf("JSON round-trip Sum = %+v, want 2.0", snap.Histograms)
	}
	if snap.Histograms[0].Count != 3 {
		t.Errorf("JSON round-trip Count = %d, want 3", snap.Histograms[0].Count)
	}
}
