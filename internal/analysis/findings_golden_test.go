package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The findings every pass draws are pinned by goldens, so a change to
// a pass that claims to move no finding proves it by passing.
// Regenerate an intended change with
// `go test ./internal/analysis -run TestFindingsGolden -update`.
var update = flag.Bool("update", false, "rewrite the testdata findings goldens from this build")

// TestFindingsGolden renders, one Diagnostic.String() a line, the
// findings of every pass over the annotated fake module and over this
// module itself after its .paraconv-vet-ignore allowlist — what
// paraconv-vet prints.  The second golden is empty while the tree is
// clean.
func TestFindingsGolden(t *testing.T) {
	checkFindings(t, "findings_mod.golden", RunPasses(loadTestdata(t), AllPasses()))

	m, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(m.Root, ".paraconv-vet-ignore"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := ParseIgnore(f)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := FilterIgnored(RunPasses(m, AllPasses()), entries)
	checkFindings(t, "findings_tree.golden", kept)
}

// checkFindings compares diags, rendered one per line, with
// testdata/name, or rewrites it under -update.
func checkFindings(t *testing.T, name string, diags []Diagnostic) {
	t.Helper()
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := []byte(b.String())
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
		t.Errorf("%s differs from this build (rerun with -update if the change is intended):\n--- got\n%s--- want\n%s", path, got, want)
	}
}
