package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/pim"
	"repro/internal/retime"
	"repro/internal/sim"
)

// The self-timed executor's output is pinned by a golden, so a change
// that claims to move no dynamic or queueing figure proves it by
// passing.  Regenerate an intended change with
// `go test ./internal/sim -run TestSelfTimedGolden -update`.
var update = flag.Bool("update", false, "rewrite testdata/selftimed.golden from this build")

// TestSelfTimedGolden runs every paper benchmark on 16 PEs through
// Dynamic under all-eDRAM and all-cache placements, and through
// Queueing with all-eDRAM placement at two arrival intervals either
// side of the resource-bound service time, printing each result as
// %+v.
func TestSelfTimedGolden(t *testing.T) {
	const iterations, window = 24, 4
	cfg := pim.Neurocube(16)
	var out strings.Builder
	for _, b := range bench.Suite {
		g, err := b.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, place := range []struct {
			name string
			a    retime.Assignment
		}{
			{"edram", retime.AllEDRAM(g.NumEdges())},
			{"cache", retime.AllCache(g.NumEdges())},
		} {
			d, err := sim.Dynamic(g, cfg, place.a, iterations, window)
			if err != nil {
				t.Fatalf("%s dynamic %s: %v", b.Name, place.name, err)
			}
			fmt.Fprintf(&out, "%s dynamic %s %+v\n", b.Name, place.name, d)
		}
		service := (g.TotalExec() + cfg.NumPEs - 1) / cfg.NumPEs
		for _, interval := range []int{service / 2, 2 * service} {
			q, err := sim.Queueing(g, cfg, retime.AllEDRAM(g.NumEdges()), interval, iterations, window)
			if err != nil {
				t.Fatalf("%s queueing at %d: %v", b.Name, interval, err)
			}
			fmt.Fprintf(&out, "%s queueing %+v\n", b.Name, q)
		}
	}

	path := filepath.Join("testdata", "selftimed.golden")
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
