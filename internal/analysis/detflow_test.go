package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDetflowGolden pins the analyzer end to end over the detflow
// fixture tree. sim reaches nondeterminism only through a helper
// package: the golden must show the complete cross-package call path
// (e.g. sim.Step → helper.Wrap → helper.stamp → time.Now), the
// CHA-resolved interface dispatch, the suppressed-edge acceptance, and
// that clean idioms stay clean. The other packages (package sim or
// controller, one fixture per directory) call the wall clock,
// math/rand and go in the function's own body, each finding at the
// offending line; clockfree does the same outside the sim-facing set
// and stays clean. nondet and gostmt each carry one accepted source.
func TestDetflowGolden(t *testing.T) {
	l := fixtureLoader(t)
	pattern := "internal/analysis/testdata/detflow/..."
	mod, err := l.LoadModule(pattern)
	if err != nil {
		t.Fatalf("loading module view: %v", err)
	}
	units, err := l.Load(pattern)
	if err != nil {
		t.Fatalf("loading units: %v", err)
	}
	got := renderResult(RunAll(mod, units, []*Analyzer{Detflow}))
	goldenPath := filepath.Join("testdata", "detflow.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantB, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if want := string(wantB); got != want {
		t.Errorf("diagnostics diverge from golden %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestDetflowPathField checks the structured Path on detflow
// diagnostics (what `softskulint -json` serializes): outermost caller
// first, terminating at the source.
func TestDetflowPathField(t *testing.T) {
	l := fixtureLoader(t)
	mod, err := l.LoadModule("internal/analysis/testdata/detflow/...")
	if err != nil {
		t.Fatal(err)
	}
	res := RunAll(mod, nil, []*Analyzer{Detflow})
	want := []string{"sim.Step", "helper.Wrap", "helper.stamp", "time.Now"}
	for _, d := range res.Findings {
		if len(d.Path) > 0 && d.Path[0] == "sim.Step" {
			if strings.Join(d.Path, " → ") != strings.Join(want, " → ") {
				t.Errorf("sim.Step path = %v, want %v", d.Path, want)
			}
			return
		}
	}
	t.Errorf("no finding rooted at sim.Step; findings: %v", res.Findings)
}

// TestLoadModuleExcludesTestOnly: a directory whose only Go file is a
// _test.go loads as a per-directory unit (so its directives and
// diagnostics are seen) but must stay out of the module call graph —
// test scaffolding is not part of what ships.
func TestLoadModuleExcludesTestOnly(t *testing.T) {
	l := fixtureLoader(t)
	pattern := "internal/analysis/testdata/detflow/..."
	mod, err := l.LoadModule(pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mod.Pkgs {
		if strings.HasSuffix(p.Path, "/testonly") {
			t.Errorf("test-only package %s leaked into the module view", p.Path)
		}
	}
	var dirs []string
	for _, p := range mod.Pkgs {
		dirs = append(dirs, filepath.Base(p.Dir))
	}
	sort.Strings(dirs)
	want := "breaker clockfree epochloop gostmt helper memocache nondet sim"
	if got := strings.Join(dirs, " "); got != want {
		t.Errorf("module view = %s, want exactly %s", got, want)
	}
	units, err := l.Load(pattern)
	if err != nil {
		t.Fatal(err)
	}
	foundTestOnly := false
	for _, u := range units {
		if u.Name == "testonly" {
			foundTestOnly = true
		}
	}
	if !foundTestOnly {
		t.Error("unit loading should still see the test-only package")
	}
}

// TestCalleeResolution pins Pass.Callee against import aliasing,
// parenthesized callees, and function-value indirection.
func TestCalleeResolution(t *testing.T) {
	l := fixtureLoader(t)
	units, err := l.LoadDir(filepath.Join("testdata", "callee"))
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("want 1 unit, got %d", len(units))
	}
	p := &Pass{Unit: units[0]}
	got := make(map[string]string) // first call argument → resolved name
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				return true
			}
			if fn := p.Callee(call); fn != nil {
				got[lit.Value] = fn.Name()
			} else {
				got[lit.Value] = "<nil>"
			}
			return true
		})
	}
	want := map[string]string{
		`"x"`:   "ToUpper", // aliased selector
		`"y"`:   "ToLower", // parenthesized aliased selector
		`"z"`:   "local",   // parenthesized plain ident
		`" w "`: "<nil>",   // call through a function value
	}
	for arg, name := range want {
		if got[arg] != name {
			t.Errorf("Callee for call with arg %s = %q, want %q", arg, got[arg], name)
		}
	}
}
