package sched_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dag"
	"repro/internal/sched"
)

// The objective schedules are pinned by a golden, so a change that
// claims to move no packing proves it by passing.  Regenerate an
// intended change with
// `go test ./internal/sched -run TestObjectiveGolden -update`.
var update = flag.Bool("update", false, "rewrite testdata/objective.golden from this build")

// TestObjectiveGolden builds Objective and every ObjectiveWithPolicy
// packing for each paper benchmark at three PE counts, and prints each
// schedule's period with a hash of its task list.
func TestObjectiveGolden(t *testing.T) {
	builders := []struct {
		name  string
		build func(g *dag.Graph, pes int) (sched.IterationSchedule, error)
	}{
		{"objective", sched.Objective},
		{"topo", policy(sched.PackTopo)},
		{"lpt", policy(sched.PackLPT)},
		{"level", policy(sched.PackLevel)},
	}
	var out strings.Builder
	for _, b := range bench.Suite {
		g, err := b.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range []int{4, 16, 64} {
			for _, bl := range builders {
				iter, err := bl.build(g, pes)
				if err != nil {
					t.Fatalf("%s %s on %d PEs: %v", b.Name, bl.name, pes, err)
				}
				fmt.Fprintf(&out, "%s pes=%d %s period=%d tasks=%x\n", b.Name, pes, bl.name, iter.Period,
					sha256.Sum256([]byte(fmt.Sprint(iter.Tasks))))
			}
		}
	}

	path := filepath.Join("testdata", "objective.golden")
	got := []byte(out.String())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this build (rerun with -update if the change is intended):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func policy(p sched.PackPolicy) func(*dag.Graph, int) (sched.IterationSchedule, error) {
	return func(g *dag.Graph, pes int) (sched.IterationSchedule, error) {
		return sched.ObjectiveWithPolicy(g, pes, p)
	}
}
