package bench

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func perfReport(recs ...PerfRecord) *PerfReport {
	return &PerfReport{Schema: PerfSchema, Records: recs}
}

func TestComparePerfGate(t *testing.T) {
	cases := []struct {
		name      string
		prev, cur PerfRecord
		regressed []string // the metrics GatePerf must name; none = pass
	}{
		{
			name: "ns/op at +10% passes",
			prev: PerfRecord{Name: "k", NsPerOp: 1000},
			cur:  PerfRecord{Name: "k", NsPerOp: 1100},
		},
		{
			name:      "ns/op at +10.1% fails",
			prev:      PerfRecord{Name: "k", NsPerOp: 1000},
			cur:       PerfRecord{Name: "k", NsPerOp: 1101},
			regressed: []string{"ns/op"},
		},
		{
			name: "faster and leaner passes",
			prev: PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: 40},
			cur:  PerfRecord{Name: "k", NsPerOp: 500, AllocsPerOp: 10},
		},
		{
			name: "allocs/op from zero within allocSlack passes",
			prev: PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: 0.0003},
			cur:  PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: allocSlack},
		},
		{
			name:      "allocs/op from zero past allocSlack fails",
			prev:      PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: 0},
			cur:       PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: allocSlack + 0.5},
			regressed: []string{"allocs/op"},
		},
		{
			name: "allocs/op at +10% plus allocSlack passes",
			prev: PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: 100},
			cur:  PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: 110 + allocSlack},
		},
		{
			name:      "allocs/op past +10% plus allocSlack fails",
			prev:      PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: 100},
			cur:       PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: 113},
			regressed: []string{"allocs/op"},
		},
		{
			name:      "both metrics fail together",
			prev:      PerfRecord{Name: "k", NsPerOp: 1000, AllocsPerOp: 10},
			cur:       PerfRecord{Name: "k", NsPerOp: 2000, AllocsPerOp: 20},
			regressed: []string{"ns/op", "allocs/op"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmp := ComparePerf(perfReport(tc.prev), perfReport(tc.cur))
			if len(cmp.Deltas) != 2 || len(cmp.OnlyBaseline) != 0 || len(cmp.New) != 0 {
				t.Fatalf("comparison = %+v, want the two metrics of one joined row", cmp)
			}
			err := GatePerf(cmp.Deltas)
			if len(tc.regressed) == 0 {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("gate passed, want a regression")
			}
			for _, metric := range tc.regressed {
				if !strings.Contains(err.Error(), "k "+metric) {
					t.Errorf("gate error %q does not name %s", err, metric)
				}
			}
			if n := strings.Count(err.Error(), "\n"); n != len(tc.regressed) {
				t.Errorf("gate error names %d metrics, want %d:\n%v", n, len(tc.regressed), err)
			}
		})
	}
}

// A row only one side has is skipped by the gate but must be listed:
// that line is how a renamed or retired row stays visible.
func TestComparePerfListsOneSidedRows(t *testing.T) {
	prev := perfReport(
		PerfRecord{Name: "server/plan_req", NsPerOp: 1}, // would regress by any measure if joined
		PerfRecord{Name: "core/a", NsPerOp: 100},
		PerfRecord{Name: "core/b", NsPerOp: 100},
		PerfRecord{Name: "jobs/submit_wait", NsPerOp: 1},
	)
	cur := perfReport(
		PerfRecord{Name: "core/b", NsPerOp: 150},
		PerfRecord{Name: "wire/new", NsPerOp: 1e9},
		PerfRecord{Name: "core/a", NsPerOp: 100},
	)
	cmp := ComparePerf(prev, cur)
	if want := []string{"server/plan_req", "jobs/submit_wait"}; !reflect.DeepEqual(cmp.OnlyBaseline, want) {
		t.Errorf("OnlyBaseline = %v, want %v", cmp.OnlyBaseline, want)
	}
	if want := []string{"wire/new"}; !reflect.DeepEqual(cmp.New, want) {
		t.Errorf("New = %v, want %v", cmp.New, want)
	}
	if len(cmp.Deltas) != 4 {
		t.Fatalf("%d deltas, want 2 joined rows x 2 metrics: %+v", len(cmp.Deltas), cmp.Deltas)
	}
	if d := cmp.Deltas[0]; d.Name != "core/b" || d.Metric != "ns/op" || !d.Regressed {
		t.Errorf("first delta = %+v, want the regressed core/b ns/op", d)
	}
	err := GatePerf(cmp.Deltas)
	if err == nil || !strings.Contains(err.Error(), "1 metrics regressed") {
		t.Errorf("gate = %v, want exactly core/b ns/op", err)
	}
	text := FormatPerfCompare(cmp)
	for _, want := range []string{
		"only in baseline: server/plan_req, jobs/submit_wait\n",
		"new: wire/new\n",
		"REGRESSED",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatPerfCompare lacks %q:\n%s", want, text)
		}
	}

	disjoint := FormatPerfCompare(ComparePerf(perfReport(PerfRecord{Name: "x"}), perfReport(PerfRecord{Name: "y"})))
	if want := "no common workloads to compare\nonly in baseline: x\nnew: y\n"; disjoint != want {
		t.Errorf("disjoint comparison = %q, want %q", disjoint, want)
	}
}

func TestReadPerfFileRejectsStaleSchema(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *PerfReport) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WritePerfJSON(f, rep); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	want := perfReport(PerfRecord{Name: "k", NsPerOp: 12.5, BytesPerOp: 3, AllocsPerOp: 0.25, OpsPerSec: 8e7, Ops: 9})
	got, err := ReadPerfFile(write("ok.json", want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	stale := perfReport(PerfRecord{Name: "k"})
	stale.Schema = "paraconv-bench/v0"
	if _, err := ReadPerfFile(write("stale.json", stale)); err == nil || !strings.Contains(err.Error(), "paraconv-bench/v0") {
		t.Errorf("stale schema: err = %v, want a rejection naming it", err)
	}
}

// The chain holds kernels only; a row that boots a server belongs in
// benchmark/, and a renamed row would stop joining BENCH_0…n.
func TestRunPerfRows(t *testing.T) {
	rep, err := RunPerf(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"core/knapsack_bitset_1200",
		"core/knapsack_fulltable_1200",
		"core/knapsack_profit_1200",
		"dag/readtext_1200",
		"dag/readbinary_1200",
		"sched/paraconv_plan_200",
		"sim/run_1200x100",
		"store/plan_encode_200",
	}
	var got []string
	for _, r := range rep.Records {
		got = append(got, r.Name)
		if r.Ops <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: ops=%d ns/op=%v, want a measured row", r.Name, r.Ops, r.NsPerOp)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v\nwant   %v", got, want)
	}
	if rep.Schema != PerfSchema || !rep.Short {
		t.Errorf("report header = %q short=%v", rep.Schema, rep.Short)
	}
}
