package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// sharedLoader amortizes stdlib source type-checking across golden
// cases; fixture packages import telemetry/rng from the real module.
var (
	loaderOnce sync.Once
	loaderInst *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loaderInst, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderInst
}

// renderResult formats findings the way the golden files store them:
// basename-relative diagnostics plus a trailing suppression count, so
// the goldens pin the suppression machinery too.
func renderResult(res Result) string {
	var b strings.Builder
	for _, d := range res.Findings {
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
	}
	fmt.Fprintf(&b, "-- suppressed: %d\n", res.Suppressed)
	return b.String()
}

func TestGolden(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string // under testdata/, golden at <dir>.golden
		name     string // subtest name; defaults to dir with "/" → "_"
	}{
		// The per-package determinism fixtures, read one package at a
		// time: detflow alone must still flag each of them (their
		// cross-package view is pinned by TestDetflowGolden).
		{Detflow, "detflow/nondet", "nondeterminism_sim"},
		{Detflow, "detflow/clockfree", "nondeterminism_clockfree"},
		{Detflow, "detflow/memocache", "nondeterminism_memocache"},
		{MetricName, "metricname/metrics", ""},
		{KnobErr, "knoberr/knobs", ""},
		{SpanEnd, "spanend/spans", ""},
		{SeedArg, "seedarg/sim", ""},
		{Detflow, "detflow/gostmt", "goroutine_sim"},
		{Detflow, "detflow/epochloop", "goroutine_controller"},
		{Detflow, "detflow/breaker", "nondeterminism_controller"},
		{DecisionEvent, "decisionevent/events", ""},
		{Detflow, "directives/bad", ""},
		{KnobErr, "directives/stale", ""},
	}
	l := fixtureLoader(t)
	for _, c := range cases {
		c := c
		name := c.name
		if name == "" {
			name = strings.ReplaceAll(c.dir, "/", "_")
		}
		t.Run(name, func(t *testing.T) {
			units, err := l.LoadDir(filepath.Join("testdata", filepath.FromSlash(c.dir)))
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			// A module analyzer sees the fixture as a one-package module.
			var mod *Module
			if c.analyzer.RunModule != nil {
				if mod, err = l.LoadModule("internal/analysis/testdata/" + c.dir); err != nil {
					t.Fatalf("loading module view: %v", err)
				}
			}
			got := renderResult(RunAll(mod, units, []*Analyzer{c.analyzer}))
			goldenPath := filepath.Join("testdata", filepath.FromSlash(c.dir)+".golden")
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
		})
	}
}

// TestSuiteSelfClean runs the full suite over its own package — the
// analyzers must hold themselves to the invariants they enforce.
func TestSuiteSelfClean(t *testing.T) {
	l := fixtureLoader(t)
	units, err := l.LoadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(units, All())
	for _, d := range res.Findings {
		t.Errorf("unexpected finding: %s", d)
	}
}
