// Command paraconv-vet runs the project's custom static-analysis
// passes (internal/analysis) over the module and reports findings as
//
//	file:line: message [pass]
//
// exiting nonzero if any finding is not suppressed by the allowlist.
// The passes enforce the repository's reproducibility, robustness and
// performance discipline: no global math/rand draws, no hash-ordered
// map iteration in report-producing packages, no panics in internal/
// library code, no exact float comparison in the cost/energy model,
// sync.Pool and lock hygiene, stoppable goroutines, and no
// per-iteration allocation patterns in hot-path loops.
//
// Usage:
//
//	go run ./cmd/paraconv-vet ./...
//	go run ./cmd/paraconv-vet -pass globalrand,libpanic ./...
//	go run ./cmd/paraconv-vet -escapes ./...
//	go run ./cmd/paraconv-vet -escapes -escapes-update ./...
//
// Package patterns are accepted for familiarity but the tool always
// analyzes the whole module containing the working directory.
//
// -escapes switches from the AST passes to the hotalloc escape gate:
// every //paraconv:hotpath function is compiled with -gcflags=-m and
// its heap allocations are diffed against the committed
// .paraconv-escapes baseline.  New allocations and stale baseline
// lines both fail; -escapes-update rewrites the baseline to match the
// current tree.
//
// Grandfathered findings live in .paraconv-vet-ignore at the module
// root (see -ignore).  An ignore entry that suppresses nothing is an
// error, not a warning: dead allowlist lines hide real findings the
// next time the code regresses at that site.
//
// Exit codes: 0 clean, 1 findings or stale allowlist/baseline entries,
// 2 operational failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var opts options
	flag.StringVar(&opts.ignorePath, "ignore", "", "allowlist file (default <module root>/.paraconv-vet-ignore if present)")
	flag.StringVar(&opts.passNames, "pass", "", "comma-separated subset of passes to run (default all)")
	flag.BoolVar(&opts.escapes, "escapes", false, "run the hotalloc escape gate instead of the AST passes")
	flag.StringVar(&opts.escapesBaseline, "escapes-baseline", "", "escape baseline file (default <module root>/.paraconv-escapes)")
	flag.BoolVar(&opts.escapesUpdate, "escapes-update", false, "with -escapes: rewrite the baseline to match the current tree")
	list := flag.Bool("list", false, "list available passes and exit")
	flag.Parse()

	if *list {
		for _, p := range analysis.AllPasses() {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		fmt.Printf("%-12s new heap allocations in //paraconv:hotpath functions (run with -escapes)\n", analysis.EscapeGatePass)
		return
	}

	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paraconv-vet:", err)
		os.Exit(2)
	}
}

type options struct {
	ignorePath      string
	passNames       string
	escapes         bool
	escapesBaseline string
	escapesUpdate   bool
}

func run(opts options) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	mod, err := analysis.Load(root)
	if err != nil {
		return err
	}

	var diags []analysis.Diagnostic
	enabled := map[string]bool{}
	allPasses := opts.passNames == ""
	if opts.escapes {
		diags, err = runEscapeGate(mod, root, opts)
		if err != nil {
			return err
		}
		if opts.escapesUpdate {
			return nil
		}
		enabled[analysis.EscapeGatePass] = true
		allPasses = false
	} else {
		passes := analysis.AllPasses()
		if !allPasses {
			passes = passes[:0]
			for _, name := range strings.Split(opts.passNames, ",") {
				p, ok := analysis.PassByName(strings.TrimSpace(name))
				if !ok {
					return fmt.Errorf("unknown pass %q (try -list)", name)
				}
				passes = append(passes, p)
			}
		}
		for _, p := range passes {
			enabled[p.Name] = true
		}
		diags = analysis.RunPasses(mod, passes)
	}

	entries, err := loadIgnore(root, opts.ignorePath)
	if err != nil {
		return err
	}
	kept, unused := analysis.FilterIgnored(diags, entries)

	// An entry for a pass that did not run this invocation is not
	// stale — it just had no chance to match.  Entries without a pass
	// are judged only when every pass ran.
	var stale []analysis.IgnoreEntry
	for _, e := range unused {
		if enabled[e.Pass] || (e.Pass == "" && allPasses) {
			stale = append(stale, e)
		}
	}

	for _, d := range kept {
		fmt.Println(d)
	}
	failed := false
	if len(stale) > 0 {
		for _, e := range stale {
			fmt.Fprintf(os.Stderr, "paraconv-vet: stale ignore entry %q suppresses nothing; delete it\n", e)
		}
		failed = true
	}
	if len(kept) > 0 {
		fmt.Fprintf(os.Stderr, "paraconv-vet: %d finding(s)\n", len(kept))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	return nil
}

// runEscapeGate collects the compiler's escape diagnostics for the
// hot-path functions and diffs them against the baseline.  With
// -escapes-update it rewrites the baseline instead of diffing.
func runEscapeGate(mod *analysis.Module, root string, opts options) ([]analysis.Diagnostic, error) {
	hot := analysis.HotpathFuncs(mod)
	got, err := analysis.CollectEscapes(mod, hot)
	if err != nil {
		return nil, err
	}
	baselinePath := opts.escapesBaseline
	if baselinePath == "" {
		baselinePath = filepath.Join(root, ".paraconv-escapes")
	}

	if opts.escapesUpdate {
		if err := os.WriteFile(baselinePath, analysis.FormatEscapeBaseline(got), 0o644); err != nil {
			return nil, err
		}
		n := 0
		for _, msgs := range got {
			n += len(msgs)
		}
		fmt.Fprintf(os.Stderr, "paraconv-vet: wrote %s: %d hot function(s), %d allowed allocation(s)\n",
			baselinePath, len(hot), n)
		return nil, nil
	}

	baseline := analysis.EscapeSet{}
	if data, err := os.ReadFile(baselinePath); err == nil {
		baseline, err = analysis.ParseEscapeBaseline(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	added, staleLines := analysis.DiffEscapes(mod, hot, got, baseline)
	for _, s := range staleLines {
		fmt.Fprintf(os.Stderr, "paraconv-vet: stale escape baseline entry: %s (regenerate with -escapes -escapes-update)\n", s)
	}
	if len(staleLines) > 0 && len(added) == 0 {
		// Stale-only baselines must still fail the gate; surface a
		// finding so the standard exit path reports it.
		added = append(added, analysis.Diagnostic{
			Pass: analysis.EscapeGatePass,
			File: mod.Rel(baselinePath),
			Msg:  fmt.Sprintf("%d stale baseline entr(ies); regenerate with -escapes -escapes-update", len(staleLines)),
		})
	}
	return added, nil
}

// loadIgnore reads the allowlist, defaulting to .paraconv-vet-ignore
// at the module root when present.
func loadIgnore(root, path string) ([]analysis.IgnoreEntry, error) {
	if path == "" {
		candidate := filepath.Join(root, ".paraconv-vet-ignore")
		if _, err := os.Stat(candidate); err == nil {
			path = candidate
		} else {
			return nil, nil
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return analysis.ParseIgnore(f)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
