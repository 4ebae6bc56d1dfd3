package main

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The daemon's outward surface — its flags and its metric families —
// is pinned by goldens under testdata, so a change that claims to move
// neither proves it by passing.  Regenerate intentional changes with
// `go test ./cmd/paraconvd -update`.
var update = flag.Bool("update", false, "rewrite the testdata goldens from this build")

// asDaemon makes the test binary run main() instead of the tests, so
// the goldens come from the real flag set and boot sequence.
const asDaemon = "PARACONVD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asDaemon) == "1" {
		// The testing package registered its flags on the default set;
		// the daemon must parse, and print, only its own.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	os.Exit(m.Run())
}

// daemon returns a command running this binary as paraconvd with args.
func daemon(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "paraconvd"
	cmd.Env = append(os.Environ(), asDaemon+"=1")
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

func TestUsageGolden(t *testing.T) {
	out, err := daemon(t, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("paraconvd -h: %v\n%s", err, out)
	}
	checkGolden(t, "usage.golden", out)
}

func TestMetricFamiliesGolden(t *testing.T) {
	cmd := daemon(t, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	listening := regexp.MustCompile(`listening on (\S+)`)
	lines := bufio.NewScanner(stderr)
	addr := ""
	for addr == "" && lines.Scan() {
		if m := listening.FindStringSubmatch(lines.Text()); m != nil {
			addr = m[1]
		}
	}
	if addr == "" {
		t.Fatal("paraconvd exited without reporting its address")
	}
	go io.Copy(io.Discard, stderr)

	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line+"\n")
		}
	}
	slices.Sort(types)
	checkGolden(t, "metric_families.golden", []byte(strings.Join(types, "")))
}
