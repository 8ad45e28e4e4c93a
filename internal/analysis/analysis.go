// Package analysis is softskulint's stdlib-only static-analysis
// framework: a vet-style multichecker that loads every package in the
// module with go/parser + go/types and runs project-specific analyzers
// enforcing the invariants the A/B pipeline's trustworthiness rests on
// (DESIGN.md §9). The paper's confidence tests assume the measurement
// harness itself is reproducible and honest; these analyzers make the
// repo's equivalents — seeded determinism, bounded metric cardinality,
// never-dropped knob errors, closed trace spans, caller-controlled
// randomness — machine-checked instead of conventions.
//
// The framework deliberately uses only go/ast, go/parser, go/token,
// go/types and go/importer so go.mod stays dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Per-package analyzers set
// Run (inspects one fully type-checked unit); module analyzers set
// RunModule instead and see every production package of the module in
// one consistent type universe — the facility interprocedural checks
// like detflow need.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run reports findings for one package via Pass.Reportf.
	Run func(p *Pass)
	// RunModule reports findings over the whole module; it runs once
	// per invocation, only when a Module was loaded.
	RunModule func(mp *ModulePass)
}

// Diagnostic is one finding, rendered as "file:line: [analyzer] msg".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Path is the offending call chain for interprocedural findings
	// (detflow), outermost caller first; empty for local findings.
	Path []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Pass is the per-package state handed to each analyzer.
type Pass struct {
	Unit *Unit
	name string
	out  []Diagnostic
}

// Fset returns the position table for the package's files.
func (p *Pass) Fset() *token.FileSet { return p.Unit.Fset }

// Files returns the package's parsed files (including test files;
// analyzers that only govern production code skip via IsTestFile).
func (p *Pass) Files() []*ast.File { return p.Unit.Files }

// PkgName returns the package's declared name (not import path), the
// handle the sim-facing allowlist keys on.
func (p *Pass) PkgName() string { return p.Unit.Name }

// Info returns the type-checker's fact tables.
func (p *Pass) Info() *types.Info { return p.Unit.Info }

// IsTestFile reports whether f is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool { return p.Unit.Test[f] }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.out = append(p.out, Diagnostic{
		Pos:      p.Unit.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass is the whole-module state handed to a module analyzer:
// every production package in one type universe, plus access to the
// run's suppression table so interprocedural analyzers can honor
// //lint:ignore directives at interior call sites, not just at the
// final report position.
type ModulePass struct {
	Mod  *Module
	name string
	ign  *ignoreTable
	out  []Diagnostic
}

// Reportf records a module-scope finding at pos with its offending
// call path (outermost caller first).
func (mp *ModulePass) Reportf(pos token.Position, path []string, format string, args ...interface{}) {
	mp.out = append(mp.out, Diagnostic{
		Pos:      pos,
		Analyzer: mp.name,
		Message:  fmt.Sprintf(format, args...),
		Path:     path,
	})
}

// SuppressedAt reports whether a //lint:ignore directive for this
// analyzer governs file:line. It does not credit the directive — call
// UseSuppression once the suppression demonstrably absorbed a real
// finding, so stale directives still surface in the audit.
func (mp *ModulePass) SuppressedAt(file string, line int) bool {
	return mp.ign.covers(mp.name, file, line)
}

// UseSuppression credits the directive governing file:line with one
// absorbed finding.
func (mp *ModulePass) UseSuppression(file string, line int) {
	mp.ign.markUsed(mp.name, file, line)
}

// Callee resolves the called function or method of call, or nil for
// indirect calls (function values, conversions).
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := p.Info().Uses[id].(*types.Func)
	return f
}

// simFacing is the set of packages bound by the determinism contract:
// one -chaos-seed (or workload seed) must reproduce a run
// byte-for-byte, so nothing in them may consult ambient state.
var simFacing = map[string]bool{
	"sim":      true,
	"abtest":   true,
	"core":     true,
	"chaos":    true,
	"loadgen":  true,
	"workload": true,
	"fleet":    true,
	"decision": true, // the ledger must be byte-identical run to run
	// The self-healing control loop: breaker holds, watchdog budgets,
	// and epoch clocks must come from the virtual clock / seeded
	// streams, never from the wall clock or ambient goroutines.
	"controller": true,
	// The analytical twin prices prune decisions: any ambient state in
	// its model or calibration would make the search's window schedule
	// (and hence the ledger) diverge between runs.
	"twin": true,
}

// SimFacing reports whether the named package is bound by the seeded
// determinism contract.
func SimFacing(pkgName string) bool { return simFacing[pkgName] }

// telemetryPath is the import path whose Registry / Tracer / Span
// types the metricname and spanend analyzers key on.
const telemetryPath = "softsku/internal/telemetry"

// rngPath is the import path of the repo's deterministic rng.
const rngPath = "softsku/internal/rng"

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MetricName,
		KnobErr,
		SpanEnd,
		SeedArg,
		DecisionEvent,
		Detflow,
	}
}

// ByName resolves analyzer names (comma-free, exact) to analyzers.
// Unknown names return an error listing the known set.
func ByName(names []string) ([]*Analyzer, error) {
	known := make(map[string]*Analyzer)
	for _, a := range All() {
		known[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := known[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", n, KnownNames())
		}
		out = append(out, a)
	}
	return out, nil
}

// KnownNames returns the comma-separated analyzer names.
func KnownNames() string {
	var s string
	for i, a := range All() {
		if i > 0 {
			s += ","
		}
		s += a.Name
	}
	return s
}

// Result is the outcome of running a suite over a set of packages.
type Result struct {
	Findings   []Diagnostic // surviving diagnostics, sorted
	Suppressed int          // findings absorbed by //lint:ignore (incl. pruned tainted edges)
	Stale      int          // //lint:ignore directives that absorbed nothing
	Packages   int          // packages analyzed
}

// positionOf turns a lineRef back into a renderable position.
func positionOf(at lineRef) token.Position {
	return token.Position{Filename: at.file, Line: at.line}
}

// Run executes per-unit analyzers over units, applies //lint:ignore
// suppressions and the stale-directive audit, and returns the sorted
// surviving findings. Module analyzers are skipped (no Module here);
// use RunAll when one was loaded.
func Run(units []*Unit, analyzers []*Analyzer) Result {
	return RunAll(nil, units, analyzers)
}

// RunAll executes the per-unit analyzers over units and, when mod is
// non-nil, the module analyzers over mod, sharing one suppression
// table so a directive is audited against everything that ran.
// Malformed and stale directives are themselves findings and cannot
// be suppressed.
func RunAll(mod *Module, units []*Unit, analyzers []*Analyzer) Result {
	res := Result{}
	ign := newIgnoreTable()
	for _, u := range units {
		ign.addUnit(u)
	}
	dirs := make(map[string]bool)
	for _, u := range units {
		dirs[u.Dir] = true
		var diags []Diagnostic
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Unit: u, name: a.Name}
			a.Run(pass)
			diags = append(diags, pass.out...)
		}
		for _, d := range diags {
			if ign.suppresses(d) {
				continue
			}
			res.Findings = append(res.Findings, d)
		}
	}
	if mod != nil {
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			mp := &ModulePass{Mod: mod, name: a.Name, ign: ign}
			a.RunModule(mp)
			res.Findings = append(res.Findings, mp.out...)
		}
	}
	// A directive only counts as auditable if its analyzer actually
	// ran: module analyzers need a loaded Module to participate.
	ran := make(map[string]bool)
	for _, a := range analyzers {
		if a.Run != nil || (mod != nil && a.RunModule != nil) {
			ran[a.Name] = true
		}
	}
	staleDiags := ign.stale(ran)
	res.Stale = len(staleDiags)
	res.Findings = append(res.Findings, staleDiags...)
	res.Findings = append(res.Findings, ign.bad...)
	res.Suppressed = ign.totalHits()
	res.Packages = len(dirs)
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return res
}
