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
// a change that claims to move no table proves it by passing.
// Regenerate an intended change with `go test ./cmd/benchtab -update`.
var update = flag.Bool("update", false, "rewrite testdata/exp_all.golden from this build")

// asBenchtab makes the test binary run main() instead of the tests, so
// the golden comes from the real flag set and output path.
const asBenchtab = "BENCHTAB_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asBenchtab) == "1" {
		// The testing package registered its flags on the default set;
		// benchtab must parse only its own.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	os.Exit(m.Run())
}

func TestExpAllGolden(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-exp", "all")
	cmd.Args[0] = "benchtab"
	cmd.Env = append(os.Environ(), asBenchtab+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchtab -exp all: %v\n%s", err, stderr.Bytes())
	}
	path := filepath.Join("testdata", "exp_all.golden")
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
