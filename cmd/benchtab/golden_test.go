package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The paper's tables are pinned by a golden of `benchtab -exp all`, so
// a change that claims to move no table proves it by passing; the flag
// surface is pinned by a golden of `benchtab -h`.  Regenerate an
// intended change with `go test ./cmd/benchtab -update`.
var update = flag.Bool("update", false, "rewrite the testdata goldens from this build")

// asBenchtab makes the test binary run main() instead of the tests, so
// the goldens come from the real flag set and output path.
const asBenchtab = "BENCHTAB_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asBenchtab) == "1" {
		// The testing package registered its flags on the default set;
		// benchtab must parse, and print, only its own.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	os.Exit(m.Run())
}

// benchtab returns a command running this binary as benchtab with args.
func benchtab(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "benchtab"
	cmd.Env = append(os.Environ(), asBenchtab+"=1")
	return cmd
}

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
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
		t.Errorf("%s differs from this build's output (rerun with -update if the change is intended):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func TestExpAllGolden(t *testing.T) {
	cmd := benchtab(t, "-exp", "all")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchtab -exp all: %v\n%s", err, stderr.Bytes())
	}
	checkGolden(t, "exp_all.golden", got)
}

func TestUsageGolden(t *testing.T) {
	out, err := benchtab(t, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("benchtab -h: %v\n%s", err, out)
	}
	checkGolden(t, "usage.golden", out)
}
