package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/synth"
)

func tracedPlan(t *testing.T) (*sched.Plan, *sim.Trace) {
	t.Helper()
	g, err := synth.Generate(synth.Params{Name: "tr", Vertices: 20, Edges: 45, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pim.Neurocube(8)
	plan, err := sched.ParaCONVCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := sim.TraceRunCtx(context.Background(), plan, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	return plan, tr
}

func TestWriteJSONL(t *testing.T) {
	_, tr := tracedPlan(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines+1, err)
		}
		if _, ok := rec["time"]; !ok {
			t.Fatalf("line %d missing time: %v", lines+1, rec)
		}
		if _, ok := rec["kind"]; !ok {
			t.Fatalf("line %d missing kind: %v", lines+1, rec)
		}
		lines++
	}
	if lines != len(tr.Events) {
		t.Errorf("wrote %d lines for %d events", lines, len(tr.Events))
	}
}

func TestWriteCSV(t *testing.T) {
	_, tr := tracedPlan(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != len(tr.Events)+1 {
		t.Errorf("csv has %d lines for %d events", lines, len(tr.Events))
	}
	if !strings.HasPrefix(buf.String(), "time,kind,iter,pe,node,edge,place") {
		t.Errorf("csv header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestWriteChrome(t *testing.T) {
	plan, tr := tracedPlan(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr, plan.Iter.Graph); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int    `json:"ts"`
			Dur  int    `json:"dur"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	tasks, xfers, milestones := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Dur <= 0 {
			t.Errorf("event %q has non-positive duration %d", ev.Name, ev.Dur)
		}
		switch {
		case ev.Cat == "task":
			tasks++
		case strings.HasPrefix(ev.Cat, "transfer:"):
			xfers++
		case ev.Cat == "milestone":
			milestones++
		}
	}
	if tasks == 0 || xfers == 0 || milestones == 0 {
		t.Errorf("census: %d tasks, %d transfers, %d milestones", tasks, xfers, milestones)
	}
}

func TestWriteChromeNilGraph(t *testing.T) {
	_, tr := tracedPlan(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr, nil); err != nil {
		t.Fatalf("WriteChrome without graph: %v", err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("missing traceEvents key")
	}
}

func TestWriteChromeSPARTATrace(t *testing.T) {
	g, err := synth.Generate(synth.Params{Name: "sp", Vertices: 15, Edges: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pim.Neurocube(8)
	plan, err := sched.SPARTACtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := sim.TraceRunCtx(context.Background(), plan, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr, plan.Iter.Graph); err != nil {
		t.Fatal(err)
	}
}
