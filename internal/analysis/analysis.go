// Package analysis implements paraconv-vet, the project's custom
// static-analysis tool, using only the standard library's go/ast,
// go/parser, go/token and go/types.
//
// The tool exists because the repository's correctness story leans on
// discipline a compiler does not enforce: all randomness must flow
// through injected, seeded *rand.Rand values (golden experiment
// numbers depend on it), report-emitting loops must not iterate maps
// in hash order, library code under internal/ must return errors
// rather than panic, the cost/energy model must not compare floats
// with == / !=, and cancellation must flow through ctx parameters (or
// the execution layer's Session) rather than contexts squirrelled away
// in struct fields.  Each rule is a Pass; cmd/paraconv-vet runs them all
// and exits nonzero on findings, with a .paraconv-vet-ignore allowlist
// for grandfathered sites.
//
// rules.go is the policy in one place: the pass registry with the
// package trees each pass runs in, and the table of symbols banned
// outside their sanctioned trees.  The other files are mechanism.
package analysis

import (
	"bufio"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one finding: a position, the pass that produced it,
// and a human-readable message.  The rendered form is
// "file:line: message [pass]" with file relative to the module root.
type Diagnostic struct {
	File string // module-root-relative, slash-separated
	Line int
	Pass string
	Msg  string
}

// String renders the diagnostic in the canonical form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s [%s]", d.File, d.Line, d.Msg, d.Pass)
}

// Pass is one analysis rule, run package by package.
type Pass struct {
	// Name is the short identifier shown in brackets after each
	// diagnostic and used in the ignore file.
	Name string
	// Doc is a one-line description for usage output.
	Doc string
	// Scope lists the package trees (relative to the module path, each
	// beginning with "/") the pass runs in; nil means every package.
	Scope []string
	// Run reports the pass's findings for one package in scope.
	Run func(m *Module, p *Package) []Diagnostic
}

// EscapeGatePass is the name of the escape-analysis gate, which runs
// the compiler rather than an AST pass (see escapes.go) but shares the
// diagnostic and ignore-file namespace with the AST passes.
const EscapeGatePass = "hotalloc"

// knownPassName reports whether name is a registered AST pass or the
// escape gate.
func knownPassName(name string) bool {
	if name == EscapeGatePass {
		return true
	}
	_, ok := PassByName(name)
	return ok
}

// PassByName returns the registered pass with the given name.
func PassByName(name string) (Pass, bool) {
	for _, p := range AllPasses() {
		if p.Name == name {
			return p, true
		}
	}
	return Pass{}, false
}

// RunPasses applies each pass to the packages in its scope and
// returns the merged findings sorted by file, line and pass name.
func RunPasses(m *Module, passes []Pass) []Diagnostic {
	var diags []Diagnostic
	for _, p := range m.Packages {
		for _, pass := range passes {
			if pass.Scope == nil || pathSuffixMatch(m, p, pass.Scope) {
				diags = append(diags, pass.Run(m, p)...)
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, pass and message —
// the byte-stable order every output mode uses.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
}

// diag builds a Diagnostic for a position inside the module.
func diag(m *Module, pass string, pos token.Pos, format string, args ...any) Diagnostic {
	p := m.Fset.Position(pos)
	return Diagnostic{
		File: m.Rel(p.Filename),
		Line: p.Line,
		Pass: pass,
		Msg:  fmt.Sprintf(format, args...),
	}
}

// pathSuffixMatch reports whether the package path is the module path
// joined with one of the given suffixes (each beginning with "/"), or
// a subpackage of one.
func pathSuffixMatch(m *Module, p *Package, suffixes []string) bool {
	for _, s := range suffixes {
		full := m.Path + s
		if p.Path == full || strings.HasPrefix(p.Path, full+"/") {
			return true
		}
	}
	return false
}

// IgnoreEntry is one allowlist line.
type IgnoreEntry struct {
	// File is the module-root-relative path the entry suppresses.
	File string
	// Line restricts the entry to one line; 0 matches any line.
	Line int
	// Pass restricts the entry to one pass; "" matches any pass.
	Pass string
}

func (e IgnoreEntry) String() string {
	s := e.File
	if e.Line > 0 {
		s += ":" + strconv.Itoa(e.Line)
	}
	if e.Pass != "" {
		s += " " + e.Pass
	}
	return s
}

func (e IgnoreEntry) matches(d Diagnostic) bool {
	if e.File != d.File {
		return false
	}
	if e.Line != 0 && e.Line != d.Line {
		return false
	}
	if e.Pass != "" && e.Pass != d.Pass {
		return false
	}
	return true
}

// ParseIgnore reads an allowlist.  Each non-blank, non-comment line is
//
//	<file>[:<line>] [<pass>]
//
// with <file> relative to the module root using forward slashes.
// Omitting the line suppresses the whole file; omitting the pass
// suppresses every pass.  '#' starts a comment.
func ParseIgnore(r io.Reader) ([]IgnoreEntry, error) {
	var entries []IgnoreEntry
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) > 2 {
			return nil, fmt.Errorf("analysis: ignore file line %d: want '<file>[:<line>] [pass]', got %q", lineNo, line)
		}
		entry := IgnoreEntry{File: fields[0]}
		if file, lineStr, ok := strings.Cut(fields[0], ":"); ok {
			n, err := strconv.Atoi(lineStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("analysis: ignore file line %d: bad line number %q", lineNo, lineStr)
			}
			entry.File, entry.Line = file, n
		}
		if len(fields) == 2 {
			if !knownPassName(fields[1]) {
				return nil, fmt.Errorf("analysis: ignore file line %d: unknown pass %q", lineNo, fields[1])
			}
			entry.Pass = fields[1]
		}
		entries = append(entries, entry)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// FilterIgnored drops diagnostics matched by the allowlist and reports
// the entries that matched nothing (stale grandfathering worth
// cleaning up).
func FilterIgnored(diags []Diagnostic, entries []IgnoreEntry) (kept []Diagnostic, unused []IgnoreEntry) {
	used := make([]bool, len(entries))
	for _, d := range diags {
		suppressed := false
		for i, e := range entries {
			if e.matches(d) {
				used[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for i, e := range entries {
		if !used[i] {
			unused = append(unused, e)
		}
	}
	return kept, unused
}
