// Command softskulint is the repo's project-specific static-analysis
// gate (DESIGN.md §9, §14): a stdlib-only vet-style multichecker that
// loads every package in the module and enforces the invariants the
// A/B measurement pipeline's trustworthiness rests on — bounded
// metric cardinality, never-dropped knob-mutation errors, closed trace
// spans, caller-controlled randomness, decision events built by their
// constructors, and seeded determinism: the module-wide detflow call-graph
// taint analysis proves that no function of a sim-facing package
// reaches a nondeterminism source, in its own body or through any
// call path.
//
// Usage:
//
//	softskulint [-only a,b] [-list] [-json] [-graph] [packages]
//
// Packages default to ./... . Diagnostics print as
// "file:line: [analyzer] message" and any finding exits 1; load or
// type-check failures exit 2. -json emits the same result as one
// machine-readable object (findings carry the offending call path for
// detflow). -graph dumps the module call graph as DOT, with taint and
// suppression annotations, and exits 0. Suppress an intentional
// finding with a reasoned directive on (or just above) the offending
// line:
//
//	//lint:ignore <analyzer> <reason>
//
// For detflow the directive is per call edge: placed at a call site
// it accepts every nondeterministic path introduced by that edge.
// Directives that suppress nothing are reported as stale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"softsku/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("softskulint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as one machine-readable JSON object")
	graph := fs.Bool("graph", false, "dump the module call graph as DOT (taint + suppression annotated) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := analysis.All()
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(stderr, "softskulint:", err)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "softskulint:", err)
		return 2
	}
	modRoot, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "softskulint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(stderr, "softskulint:", err)
		return 2
	}
	mod, err := loader.LoadModule(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "softskulint:", err)
		return 2
	}
	units, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "softskulint:", err)
		return 2
	}

	if *graph {
		analysis.DetflowDOT(mod, units, stdout)
		return 0
	}

	res := analysis.RunAll(mod, units, analyzers)
	rel := func(name string) string {
		if r, err := filepath.Rel(modRoot, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}

	var parts []string
	if res.Suppressed > 0 {
		parts = append(parts, fmt.Sprintf("%d suppressed", res.Suppressed))
	}
	if res.Stale > 0 {
		parts = append(parts, fmt.Sprintf("%d stale", res.Stale))
	}
	suffix := ""
	if len(parts) > 0 {
		suffix = " (" + strings.Join(parts, ", ") + ")"
	}
	summary := fmt.Sprintf("softskulint: %d package%s, %d finding%s%s",
		res.Packages, plural(res.Packages), len(res.Findings), plural(len(res.Findings)), suffix)

	if *asJSON {
		type jsonFinding struct {
			File     string   `json:"file"`
			Line     int      `json:"line"`
			Analyzer string   `json:"analyzer"`
			Message  string   `json:"message"`
			Path     []string `json:"path,omitempty"`
		}
		report := struct {
			Packages   int           `json:"packages"`
			Findings   []jsonFinding `json:"findings"`
			Suppressed int           `json:"suppressed"`
			Stale      int           `json:"stale"`
			Summary    string        `json:"summary"`
		}{
			Packages:   res.Packages,
			Findings:   []jsonFinding{},
			Suppressed: res.Suppressed,
			Stale:      res.Stale,
			Summary:    summary,
		}
		for _, d := range res.Findings {
			report.Findings = append(report.Findings, jsonFinding{
				File: rel(d.Pos.Filename), Line: d.Pos.Line,
				Analyzer: d.Analyzer, Message: d.Message, Path: d.Path,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "softskulint:", err)
			return 2
		}
	} else {
		for _, d := range res.Findings {
			fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
		fmt.Fprintln(stdout, summary)
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}
