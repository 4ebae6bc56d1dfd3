package analysis

import (
	"go/ast"
	"slices"
	"strconv"
	"strings"
)

// This file is the policy: which pass runs where (AllPasses) and which
// symbols are banned outside which trees (symbolRules).  Package trees
// are written relative to the module path, each beginning with "/".

// AllPasses returns the registered passes in stable order.
func AllPasses() []Pass {
	return []Pass{
		{
			Name: "globalrand",
			Doc:  "calls to the global math/rand source; randomness must flow through an injected *rand.Rand",
			Run:  symbolPass("globalrand"),
		},
		{
			Name: "maprange",
			Doc:  "map iteration without a sorted-keys idiom in report/output-producing packages",
			// The output-producing trees, where hash-ordered map
			// iteration silently corrupts golden reports, DOT exports
			// and error listings.
			Scope: []string{"/internal/sched", "/internal/bench", "/internal/dag", "/internal/trace"},
			Run:   runMapRange,
		},
		{
			Name:  "libpanic",
			Doc:   "panic in non-test library code under internal/; library paths must return errors",
			Scope: []string{"/internal"},
			Run:   runLibPanic,
		},
		{
			Name: "floateq",
			Doc:  "==/!= on floating-point expressions in the cost/energy model packages",
			// The cost/energy model trees, where an exact
			// floating-point comparison is almost always a latent bug:
			// energy totals, ratios and densities are sums and
			// quotients whose low bits depend on evaluation order.
			Scope: []string{"/internal/pim", "/internal/bench", "/internal/sim", "/internal/core"},
			Run:   runFloatEq,
		},
		{
			Name: "ctxfield",
			Doc:  "context.Context stored in a struct field outside the sanctioned Session type; pass ctx as a parameter",
			Run:  runCtxField,
		},
		{
			Name: "obsreg",
			Doc:  "expvar use or obs.NewRegistry call outside internal/obs; metrics must go through the shared registry's instruments",
			Run:  symbolPass("obsreg"),
		},
		{
			Name: "httpserve",
			Doc:  "network listener or HTTP serving outside internal/obs and internal/server; all serving goes through the sanctioned trees",
			Run:  symbolPass("httpserve"),
		},
		{
			Name: "peercall",
			Doc:  "ad-hoc net/http client construction outside internal/cluster; peer calls go through the cluster's pooled fill client",
			Run:  symbolPass("peercall"),
		},
		{
			Name: "fsio",
			Doc:  "direct filesystem writes (os.Create, os.WriteFile, os.Rename) outside internal/store; durable state goes through the store's segment log",
			Run:  symbolPass("fsio"),
		},
		{
			Name: "canonvarint",
			Doc:  "encoding/binary varint reads outside internal/frame; frames decode through frame.Reader, which rejects padded varints",
			Run:  symbolPass("canonvarint"),
		},
		{
			Name: "poolhygiene",
			Doc:  "sync.Pool misuse: Get without a type assertion, Put without reset evidence, or pooled values escaping the get/put scope",
			Run:  runPoolHygiene,
		},
		{
			Name:  "goroleak",
			Doc:   "goroutines under internal/ with no context or stop channel, and goroutines spawned inside HTTP handlers",
			Scope: []string{"/internal"},
			Run:   runGoroLeak,
		},
		{
			Name: "locksafe",
			Doc:  "mixed atomic/plain access to the same field (by-value lock copies are go vet -copylocks's rule)",
			Run:  runLockSafe,
		},
		{
			Name:  "spanctx",
			Doc:   "span.Start results that are discarded or never ended; every started span must reach End",
			Scope: []string{"/internal"},
			Run:   runSpanCtx,
		},
		{
			Name: "allocinloop",
			Doc:  "per-iteration allocation patterns (Sprintf, string concat, uncapacitated append) in hot-path package loops",
			// The hot-path trees: the solver, the graph codec, the
			// scheduler, the simulator and the serving layer.
			// BENCH_0.json holds these paths to allocs/op contracts;
			// this pass catches the patterns that break them before a
			// benchmark has to.
			Scope: []string{"/internal/core", "/internal/dag", "/internal/sched", "/internal/sim", "/internal/server"},
			Run:   runAllocInLoop,
		},
	}
}

// symbolRule bans references to symbols of one package outside the
// sanctioned trees.  Any reference counts, not only a call: binding
// os.Create to a variable and calling that is the same write.
type symbolRule struct {
	Pass string
	// Pkg is the declaring package's import path; a leading "/" makes
	// it relative to the module under analysis.
	Pkg string
	// Symbols are the banned package-level functions and variables by
	// name, and methods as "Recv.Name".
	Symbols []string
	// AllFuncsBut, when non-nil, bans every package-level function of
	// Pkg except the listed ones.
	AllFuncsBut []string
	// Lits are the types whose composite literals are banned.
	Lits []string
	// Import bans importing Pkg at all.
	Import bool
	// Allowed are the package trees the rule does not apply to.
	Allowed []string
	// Msg is the diagnostic; {sym} stands for the referenced symbol.
	Msg string
}

const (
	randMsg   = "call to global {sym}; inject a seeded *rand.Rand instead"
	serveMsg  = "network listener opened outside internal/obs and internal/server; serve through internal/server (or the obs debug server)"
	clientMsg = "peer calls go through the cluster's pooled fill client"
)

// randConstructors are fine to call anywhere: they build an explicitly
// seeded generator rather than draw from the shared global source.
var randConstructors = []string{"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8"}

var symbolRules = []symbolRule{
	// globalrand.  Package-level math/rand functions draw from the
	// process-global source, whose sequence depends on whatever else
	// has consumed it — identical seeds then stop giving identical
	// graphs, case mixes and reports.  Methods on an injected
	// *rand.Rand are always allowed.
	{Pass: "globalrand", Pkg: "math/rand", AllFuncsBut: randConstructors, Msg: randMsg},
	{Pass: "globalrand", Pkg: "math/rand/v2", AllFuncsBut: randConstructors, Msg: randMsg},

	// obsreg.  internal/obs is the one tree allowed to create metric
	// instruments and registries.  Everything else records through the
	// exported instruments it declares, so that the metric namespace
	// stays centralized, the Prometheus families are stable, and the
	// enable gate governs every write.  expvar is the stdlib's ungated
	// global registry, which would publish series the obs exporters
	// never see; obs.NewRegistry mints a registry detached from the
	// exporters and the debug endpoint.
	{Pass: "obsreg", Pkg: "expvar", Import: true, Allowed: []string{"/internal/obs"},
		Msg: "import of expvar outside internal/obs creates an ungated global metric registry; record through internal/obs instruments"},
	{Pass: "obsreg", Pkg: "/internal/obs", Symbols: []string{"NewRegistry"}, Allowed: []string{"/internal/obs"},
		Msg: "{sym} outside internal/obs mints a registry the exporters never serve; use obs.Default's instruments"},

	// httpserve.  Only the obs debug server and the planning service
	// open network listeners.  Serving anywhere else fragments the
	// deployment surface — listeners that the daemon's drain sequence
	// never stops and the loopback-by-default binding policy never
	// covers.
	{Pass: "httpserve", Pkg: "net", Allowed: []string{"/internal/obs", "/internal/server"}, Msg: serveMsg,
		Symbols: []string{"Listen", "ListenTCP", "ListenUDP", "ListenUnix", "ListenIP", "ListenPacket",
			"ListenConfig.Listen", "ListenConfig.ListenPacket"}},
	{Pass: "httpserve", Pkg: "net/http", Allowed: []string{"/internal/obs", "/internal/server"}, Msg: serveMsg,
		Symbols: []string{"ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS",
			"Server.ListenAndServe", "Server.ListenAndServeTLS", "Server.Serve", "Server.ServeTLS"}},

	// peercall.  The cluster's pooled fill client is the sanctioned
	// peer-call path.  Anywhere else, an ad-hoc net/http client is a
	// second, unpooled, unmetered one — it bypasses the cluster's
	// breaker and connection pool, so a failing peer would not be
	// flipped out of the ring.  The package-level helpers and
	// DefaultClient route through the default client; http.Header.Get
	// and other methods that share their names are not them.
	{Pass: "peercall", Pkg: "net/http", Lits: []string{"Client"}, Allowed: []string{"/internal/cluster"},
		Msg: "http.Client constructed outside internal/cluster; " + clientMsg},
	{Pass: "peercall", Pkg: "net/http", Allowed: []string{"/internal/cluster"},
		Symbols: []string{"Get", "Head", "Post", "PostForm", "DefaultClient"},
		Msg:     "{sym} uses net/http's default client; " + clientMsg},

	// fsio.  Durable state belongs to internal/store, whose writes are
	// CRC-framed appends to a segment log, fsynced per batch and
	// truncated back on failure or at the next Open; an os.Create or
	// os.Rename anywhere else is a durability bug waiting for a crash —
	// a torn file the store's recovery scan will never see.
	// Reads (os.Open, os.ReadFile) and temp-file creation in throwaway
	// directories stay legal everywhere; it is the durable-write verbs
	// that must be centralised, os.Root's methods of the same names
	// included.
	{Pass: "fsio", Pkg: "os", Allowed: []string{"/internal/store"},
		Symbols: []string{"Create", "WriteFile", "Rename", "Root.Create", "Root.WriteFile", "Root.Rename"},
		Msg:     "direct filesystem write ({sym}) outside internal/store; durable state goes through the plan store's segment log"},

	// canonvarint.  Plans are keyed by hashes of undecoded frames, sound
	// only while each value has one accepted encoding.  encoding/binary's
	// varint readers accept padded values; internal/frame's reader is the
	// one that rejects them.  Encoding stays legal everywhere.
	{Pass: "canonvarint", Pkg: "encoding/binary", Allowed: []string{"/internal/frame"},
		Symbols: []string{"Uvarint", "Varint", "ReadUvarint", "ReadVarint"},
		Msg:     "{sym} outside internal/frame accepts padded varints; decode frames through frame.Reader"},
}

// pkgPath is the import path the rule's symbols are declared in.
func (r *symbolRule) pkgPath(m *Module) string {
	if strings.HasPrefix(r.Pkg, "/") {
		return m.Path + r.Pkg
	}
	return r.Pkg
}

// bans reports whether a reference to sym breaks the rule.
func (r *symbolRule) bans(m *Module, sym symbol) bool {
	if sym.PkgPath != r.pkgPath(m) {
		return false
	}
	if r.AllFuncsBut != nil && sym.Kind == symFunc {
		return !slices.Contains(r.AllFuncsBut, sym.Name)
	}
	return slices.Contains(r.Symbols, sym.Name)
}

// symbolPass returns the Run function of the pass made of the
// symbolRules rows carrying its name.
func symbolPass(name string) func(m *Module, p *Package) []Diagnostic {
	return func(m *Module, p *Package) []Diagnostic {
		var rules []*symbolRule
		for i := range symbolRules {
			if r := &symbolRules[i]; r.Pass == name && !pathSuffixMatch(m, p, r.Allowed) {
				rules = append(rules, r)
			}
		}
		var diags []Diagnostic
		report := func(r *symbolRule, n ast.Node, sym string) {
			diags = append(diags, diag(m, name, n.Pos(), "%s", strings.ReplaceAll(r.Msg, "{sym}", sym)))
		}
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted it
				for _, r := range rules {
					if r.Import && path == r.pkgPath(m) {
						report(r, imp, path)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					// Keep descending afterwards: http.DefaultClient.Do
					// nests the banned selector inside the method one.
					if sym, ok := resolveSelector(p, n); ok {
						for _, r := range rules {
							if r.bans(m, sym) {
								report(r, n, sym.String())
							}
						}
					}
				case *ast.CompositeLit:
					if n.Type == nil {
						break // element of an outer literal; its type is elided
					}
					for _, r := range rules {
						for _, lit := range r.Lits {
							if isNamedType(p, n.Type, r.pkgPath(m), lit) {
								report(r, n, "")
							}
						}
					}
				}
				return true
			})
		}
		return diags
	}
}
