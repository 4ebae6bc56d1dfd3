package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The trace exports are pinned by a golden of hashes, so a simulator
// change that claims to move no event proves it by passing.
// Regenerate an intended change with `go test ./cmd/paraconv -update`.
var update = flag.Bool("update", false, "rewrite testdata/trace_hashes.golden from this build")

// asCLI makes the test binary run main() instead of the tests, so the
// exports come from the real flag set and write path.
const asCLI = "PARACONV_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asCLI) == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	os.Exit(m.Run())
}

// paraconv runs this binary as the paraconv command with args.
func paraconv(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "paraconv"
	cmd.Env = append(os.Environ(), asCLI+"=1")
	return cmd.CombinedOutput()
}

// TestTraceExportGolden hashes the chrome, jsonl and csv exports of
// three plans: cat on 16 PEs (16 groups of one PE), flower on 16 PEs
// (4 groups, R_max 5) and cat on one PE (a single group).
func TestTraceExportGolden(t *testing.T) {
	var out strings.Builder
	for _, c := range []struct{ bench, pes string }{{"cat", "16"}, {"flower", "16"}, {"cat", "1"}} {
		for _, format := range []string{"chrome", "jsonl", "csv"} {
			path := filepath.Join(t.TempDir(), "trace")
			stdout, err := paraconv(t, "-bench", c.bench, "-pes", c.pes, "-trace", path, "-traceformat", format)
			if err != nil {
				t.Fatalf("paraconv -bench %s -pes %s -traceformat %s: %v\n%s", c.bench, c.pes, format, err, stdout)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s pes=%s format=%s bytes=%d sha256=%x\n", c.bench, c.pes, format, len(data), sha256.Sum256(data))
		}
	}

	path := filepath.Join("testdata", "trace_hashes.golden")
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
		t.Errorf("%s differs from this build's exports (rerun with -update if the change is intended):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestUnknownTraceFormatKeepsFile: a bad -traceformat is rejected
// before anything is simulated or written, so an existing -trace file
// keeps its bytes.
func TestUnknownTraceFormatKeepsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	want := []byte("an earlier trace\n")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, err := paraconv(t, "-bench", "cat", "-pes", "16", "-trace", path, "-traceformat", "bogus")
	if err == nil {
		t.Fatalf("paraconv accepted -traceformat bogus:\n%s", stdout)
	}
	if !strings.Contains(string(stdout), `unknown trace format "bogus"`) {
		t.Errorf("output does not name the bad format:\n%s", stdout)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-trace file was rewritten to %q; want its original %q", got, want)
	}
}
