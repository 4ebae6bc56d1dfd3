package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
)

// A run that fails the gate must not leave its report where the next
// scripts/bench.sh would pick it up as the newest baseline.
func TestRecordPerfWritesOnlyPastTheGate(t *testing.T) {
	dir := t.TempDir()
	base := &bench.PerfReport{Schema: bench.PerfSchema, Records: []bench.PerfRecord{
		{Name: "core/k", NsPerOp: 1000, AllocsPerOp: 4, OpsPerSec: 1e6, Ops: 1000},
	}}
	basePath := filepath.Join(dir, "BENCH_0.json")
	if code := recordPerf(base, basePath, "", false); code != 0 {
		t.Fatalf("recording the first baseline: exit %d", code)
	}

	slow := &bench.PerfReport{Schema: bench.PerfSchema, Records: []bench.PerfRecord{
		{Name: "core/k", NsPerOp: 1500, AllocsPerOp: 4, OpsPerSec: 6.6e5, Ops: 660},
	}}
	out := filepath.Join(dir, "BENCH_1.json")
	if code := recordPerf(slow, out, basePath, true); code == 0 {
		t.Error("gated regression: exit 0, want non-zero")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("gated regression left %s behind (stat err = %v)", out, err)
	}

	// The same regression with the gate off is a deliberate recording.
	if code := recordPerf(slow, out, basePath, false); code != 0 {
		t.Errorf("ungated regression: exit %d, want 0", code)
	}
	if got, err := bench.ReadPerfFile(out); err != nil || !reflect.DeepEqual(got, slow) {
		t.Errorf("ungated run wrote %+v, %v; want %+v", got, err, slow)
	}
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}

	same := &bench.PerfReport{Schema: bench.PerfSchema, Short: true, Records: []bench.PerfRecord{
		{Name: "core/k", NsPerOp: 1050, AllocsPerOp: 4, OpsPerSec: 9.5e5, Ops: 950},
	}}
	if code := recordPerf(same, out, basePath, true); code != 0 {
		t.Errorf("gated pass: exit %d, want 0", code)
	}
	if got, err := bench.ReadPerfFile(out); err != nil || !reflect.DeepEqual(got, same) {
		t.Errorf("gated pass wrote %+v, %v; want %+v", got, err, same)
	}

	// An unreadable baseline is a failure too, and writes nothing.
	missing := filepath.Join(dir, "BENCH_9.json")
	if code := recordPerf(same, missing, filepath.Join(dir, "absent.json"), false); code == 0 {
		t.Error("missing baseline: exit 0, want non-zero")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("missing baseline left %s behind", missing)
	}
}
