package analysis

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// loadTestdata loads the fake module under testdata/mod once per test.
func loadTestdata(t *testing.T) *Module {
	t.Helper()
	m, err := Load("testdata/mod")
	if err != nil {
		t.Fatalf("Load(testdata/mod): %v", err)
	}
	if m.Path != "vettest" {
		t.Fatalf("module path = %q, want vettest", m.Path)
	}
	return m
}

// wantRe matches expected-diagnostic annotations in testdata sources:
// a trailing comment of the form `// want pass1 pass2 ...`.
var wantRe = regexp.MustCompile(`// want ([a-z ]+)$`)

// expectation is one annotated (file, line, pass) triple.
type expectation struct {
	File string
	Line int
	Pass string
}

// wantedDiagnostics scans every comment in the loaded module for
// `// want <pass>` annotations.
func wantedDiagnostics(t *testing.T, m *Module) []expectation {
	t.Helper()
	var wants []expectation
	for _, p := range m.Packages {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					match := wantRe.FindStringSubmatch(c.Text)
					if match == nil {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					for _, pass := range strings.Fields(match[1]) {
						if _, ok := PassByName(pass); !ok {
							t.Fatalf("%s:%d: annotation names unknown pass %q", m.Rel(pos.Filename), pos.Line, pass)
						}
						wants = append(wants, expectation{File: m.Rel(pos.Filename), Line: pos.Line, Pass: pass})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("testdata module contains no // want annotations")
	}
	return wants
}

// TestPassesAgainstTestdata runs each pass over the annotated fake
// module and checks its findings against the // want annotations,
// pass by pass.
func TestPassesAgainstTestdata(t *testing.T) {
	m := loadTestdata(t)
	wants := wantedDiagnostics(t, m)

	for _, pass := range AllPasses() {
		t.Run(pass.Name, func(t *testing.T) {
			want := map[string]bool{}
			for _, w := range wants {
				if w.Pass == pass.Name {
					want[fmt.Sprintf("%s:%d", w.File, w.Line)] = true
				}
			}
			got := map[string]bool{}
			for _, d := range RunPasses(m, []Pass{pass}) {
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				if got[key] {
					t.Errorf("duplicate diagnostic at %s", key)
				}
				got[key] = true
			}
			for key := range want {
				if !got[key] {
					t.Errorf("missing diagnostic at %s [%s]", key, pass.Name)
				}
			}
			for key := range got {
				if !want[key] {
					t.Errorf("unexpected diagnostic at %s [%s]", key, pass.Name)
				}
			}
		})
	}
}

// TestRunPassesSorted checks the merged findings come out ordered by
// file, then line, then pass.
func TestRunPassesSorted(t *testing.T) {
	m := loadTestdata(t)
	diags := RunPasses(m, AllPasses())
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/core/core.go", Line: 12, Pass: "libpanic", Msg: "panic in library function Pick"}
	want := "internal/core/core.go:12: panic in library function Pick [libpanic]"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}

func TestParseIgnore(t *testing.T) {
	tests := []struct {
		name    string
		input   string
		want    []IgnoreEntry
		wantErr bool
	}{
		{"empty", "", nil, false},
		{"comment-only", "# a comment\n\n", nil, false},
		{"file-only", "internal/dag/dag.go\n", []IgnoreEntry{{File: "internal/dag/dag.go"}}, false},
		{"file-line", "internal/dag/dag.go:163\n", []IgnoreEntry{{File: "internal/dag/dag.go", Line: 163}}, false},
		{"file-line-pass", "internal/dag/dag.go:163 libpanic\n",
			[]IgnoreEntry{{File: "internal/dag/dag.go", Line: 163, Pass: "libpanic"}}, false},
		{"trailing-comment", "a.go:1 floateq # why\n", []IgnoreEntry{{File: "a.go", Line: 1, Pass: "floateq"}}, false},
		{"unknown-pass", "a.go:1 nosuchpass\n", nil, true},
		{"bad-line", "a.go:zero libpanic\n", nil, true},
		{"too-many-fields", "a.go 1 libpanic\n", nil, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseIgnore(strings.NewReader(tc.input))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseIgnore(%q) = %v, want error", tc.input, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseIgnore(%q): %v", tc.input, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("entries = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("entry %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestFilterIgnored(t *testing.T) {
	diags := []Diagnostic{
		{File: "a.go", Line: 1, Pass: "libpanic", Msg: "x"},
		{File: "a.go", Line: 2, Pass: "floateq", Msg: "y"},
		{File: "b.go", Line: 9, Pass: "maprange", Msg: "z"},
	}
	entries := []IgnoreEntry{
		{File: "a.go", Line: 1, Pass: "libpanic"}, // exact match
		{File: "b.go"},          // whole-file match
		{File: "c.go", Line: 3}, // stale
	}
	kept, unused := FilterIgnored(diags, entries)
	if len(kept) != 1 || kept[0].File != "a.go" || kept[0].Line != 2 {
		t.Errorf("kept = %v, want only a.go:2", kept)
	}
	if len(unused) != 1 || unused[0].File != "c.go" {
		t.Errorf("unused = %v, want only c.go:3", unused)
	}
}

// TestIgnoreSuppressesTestdataFindings round-trips the allowlist
// machinery against real findings from the fake module.
func TestIgnoreSuppressesTestdataFindings(t *testing.T) {
	m := loadTestdata(t)
	diags := RunPasses(m, AllPasses())
	if len(diags) == 0 {
		t.Fatal("no findings to suppress")
	}
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "%s:%d %s\n", d.File, d.Line, d.Pass)
	}
	entries, err := ParseIgnore(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	kept, unused := FilterIgnored(diags, entries)
	if len(kept) != 0 {
		t.Errorf("full allowlist left %d findings: %v", len(kept), kept)
	}
	if len(unused) != 0 {
		t.Errorf("full allowlist reported %d stale entries: %v", len(unused), unused)
	}
}

// TestCopyLocksCoveredByGoVet pins the hand-over of the by-value
// lock-copy rule to go vet: every fixture line marked "// copylocks"
// (once "// want locksafe") must draw a copylocks finding.  If a Go
// release stops flagging one, this fails instead of the rule silently
// vanishing.
func TestCopyLocksCoveredByGoVet(t *testing.T) {
	requireGoTool(t)
	cmd := exec.Command("go", "vet", "-copylocks", "./internal/locks")
	cmd.Dir = "testdata/mod"
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -copylocks found nothing in the locks fixture:\n%s", out)
	}
	src, err := os.ReadFile("testdata/mod/internal/locks/locks.go")
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for i, line := range strings.Split(string(src), "\n") {
		if !strings.HasSuffix(line, "// copylocks") {
			continue
		}
		marked++
		if at := fmt.Sprintf("internal/locks/locks.go:%d:", i+1); !strings.Contains(string(out), at) {
			t.Errorf("go vet -copylocks has no finding at %s\n%s", at, out)
		}
	}
	if marked != 4 {
		t.Errorf("fixture marks %d copylocks lines, want 4", marked)
	}
}

// docPassRows returns the pass names in the first column of the
// markdown table whose header row starts "| pass |".
func docPassRows(t *testing.T, doc string) []string {
	t.Helper()
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "\n| pass |")
	if !ok {
		t.Fatalf("%s: no table with a \"| pass |\" header", doc)
	}
	var names []string
	for _, row := range strings.Split(table, "\n")[2:] { // skip header rest and |---|
		if !strings.HasPrefix(row, "| `") {
			break
		}
		name, _, _ := strings.Cut(row[len("| `"):], "`")
		names = append(names, name)
	}
	return names
}

// TestDocsListEveryPass keeps the README and DESIGN pass tables equal
// to the registry (what -list prints): every pass and the escape gate
// has a row in both files, and no row names a pass that does not exist.
func TestDocsListEveryPass(t *testing.T) {
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		rows := map[string]bool{}
		for _, name := range docPassRows(t, doc) {
			rows[name] = true
			if !knownPassName(name) {
				t.Errorf("%s: table row names unknown pass %q", doc, name)
			}
		}
		want := []string{EscapeGatePass}
		for _, p := range AllPasses() {
			want = append(want, p.Name)
		}
		for _, name := range want {
			if !rows[name] {
				t.Errorf("%s: no table row for %q", doc, name)
			}
		}
	}
}
