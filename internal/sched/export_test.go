package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pim"
)

func TestWriteScheduleCSV(t *testing.T) {
	g := synthGraph(t, 25, 60, 6)
	plan, err := ParaCONVCtx(context.Background(), g, pim.Neurocube(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteScheduleCSV(&buf, &plan.Iter); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	want := 1 + plan.Iter.Graph.NumNodes() + plan.Iter.Graph.NumEdges()
	if lines != want {
		t.Errorf("csv has %d lines, want %d", lines, want)
	}
	if !strings.HasPrefix(out, "kind,id,name,pe,start,finish,placement") {
		t.Errorf("header = %q", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "cache") && !strings.Contains(out, "edram") {
		t.Error("no placements in output")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	g := synthGraph(t, 25, 60, 6)
	plan, err := ParaCONVCtx(context.Background(), g, pim.Neurocube(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlanJSON(&buf, plan); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["scheme"] != "para-conv" {
		t.Errorf("scheme = %v", doc["scheme"])
	}
	if int(doc["period"].(float64)) != plan.Iter.Period {
		t.Errorf("period = %v, want %d", doc["period"], plan.Iter.Period)
	}
	if int(doc["r_max"].(float64)) != plan.RMax {
		t.Errorf("r_max = %v", doc["r_max"])
	}
	cached, ok := doc["cached_edges"].([]any)
	if plan.CachedIPRs > 0 && (!ok || len(cached) == 0) {
		t.Error("cached_edges missing")
	}
}

func TestPlanJSONSPARTA(t *testing.T) {
	g := synthGraph(t, 25, 60, 6)
	plan, err := SPARTACtx(context.Background(), g, pim.Neurocube(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlanJSON(&buf, plan); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["scheme"] != "sparta" {
		t.Errorf("scheme = %v", doc["scheme"])
	}
	if _, has := doc["vertex_retiming"]; has {
		t.Error("SPARTA plan should have no retiming field")
	}
}
