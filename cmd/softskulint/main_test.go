package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"softsku/internal/analysis"
)

// The integration tests re-exec this test binary as the real CLI:
// TestMain routes through run() when the env var is set, so the tests
// observe the exact exit codes and output format check.sh depends on.
func TestMain(m *testing.M) {
	if os.Getenv("SOFTSKULINT_RUN_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func lint(t *testing.T, args ...string) (string, int) {
	t.Helper()
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "SOFTSKULINT_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec: %v\n%s", err, out)
	}
	return string(out), code
}

var (
	diagRE    = regexp.MustCompile(`^[^:]+\.go:\d+: \[[a-z]+\] .+$`)
	summaryRE = regexp.MustCompile(`^softskulint: \d+ packages?, \d+ findings?( \((\d+ suppressed)?(, )?(\d+ stale)?\))?$`)
)

// TestFixturePackageFindings drives the binary over a dirty fixture
// package and pins the contract: non-zero exit, every diagnostic in
// file:line: [analyzer] message form, and a trailing summary line.
func TestFixturePackageFindings(t *testing.T) {
	out, code := lint(t, "./internal/analysis/testdata/knoberr/knobs")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)\n%s", code, out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("want diagnostics plus summary, got:\n%s", out)
	}
	for _, l := range lines[:len(lines)-1] {
		if !diagRE.MatchString(l) {
			t.Errorf("diagnostic line %q does not match %s", l, diagRE)
		}
		if !strings.Contains(l, "[knoberr]") {
			t.Errorf("diagnostic line %q from unexpected analyzer", l)
		}
	}
	last := lines[len(lines)-1]
	if !summaryRE.MatchString(last) {
		t.Errorf("summary line %q does not match %s", last, summaryRE)
	}
	if !strings.Contains(last, "1 package, 10 findings (2 suppressed)") {
		t.Errorf("summary %q: want 10 findings with 2 suppressed over 1 package", last)
	}
}

// TestCleanPackageExitsZero runs a clean module package.
func TestCleanPackageExitsZero(t *testing.T) {
	out, code := lint(t, "./internal/rng")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if want := "softskulint: 1 package, 0 findings\n"; out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

// TestOnlySubset checks analyzer selection and rejection of unknown
// names.
func TestOnlySubset(t *testing.T) {
	out, code := lint(t, "-only", "spanend", "./internal/analysis/testdata/knoberr/knobs")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (knoberr findings filtered out)\n%s", code, out)
	}
	if _, code := lint(t, "-only", "bogus", "./internal/rng"); code != 2 {
		t.Fatalf("unknown analyzer: exit = %d, want 2", code)
	}
}

// TestJSON pins the machine-readable output check.sh consumes: one
// object with packages/findings/suppressed/stale/summary, detflow
// findings carrying their offending call path, and the same exit code
// contract as the text mode.
func TestJSON(t *testing.T) {
	out, code := lint(t, "-json", "./internal/analysis/testdata/detflow/sim", "./internal/analysis/testdata/detflow/helper")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)\n%s", code, out)
	}
	var report struct {
		Packages int `json:"packages"`
		Findings []struct {
			File     string   `json:"file"`
			Line     int      `json:"line"`
			Analyzer string   `json:"analyzer"`
			Message  string   `json:"message"`
			Path     []string `json:"path"`
		} `json:"findings"`
		Suppressed int    `json:"suppressed"`
		Stale      int    `json:"stale"`
		Summary    string `json:"summary"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if report.Packages != 2 {
		t.Errorf("packages = %d, want 2", report.Packages)
	}
	if report.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the accepted Wall edge)", report.Suppressed)
	}
	if !summaryRE.MatchString(report.Summary) {
		t.Errorf("summary %q does not match %s", report.Summary, summaryRE)
	}
	wantPath := []string{"sim.Step", "helper.Wrap", "helper.stamp", "time.Now"}
	found := false
	for _, f := range report.Findings {
		if f.Analyzer != "detflow" || len(f.Path) == 0 || f.Path[0] != "sim.Step" {
			continue
		}
		found = true
		if strings.Join(f.Path, "→") != strings.Join(wantPath, "→") {
			t.Errorf("sim.Step path = %v, want %v", f.Path, wantPath)
		}
		if !strings.HasSuffix(f.File, "sim.go") || f.Line == 0 {
			t.Errorf("finding position = %s:%d, want a sim.go line", f.File, f.Line)
		}
	}
	if !found {
		t.Errorf("no detflow finding rooted at sim.Step in:\n%s", out)
	}
}

// TestCleanJSONExitsZero: a clean package still emits the object.
func TestCleanJSONExitsZero(t *testing.T) {
	out, code := lint(t, "-json", "./internal/rng")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	var report struct {
		Findings []struct{} `json:"findings"`
		Summary  string     `json:"summary"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(report.Findings) != 0 || !strings.Contains(report.Summary, "0 findings") {
		t.Errorf("clean run reported findings:\n%s", out)
	}
}

// TestGraph pins the DOT dump: a digraph mentioning the fixture's
// cross-package edge and always exiting 0 even though taint exists.
func TestGraph(t *testing.T) {
	out, code := lint(t, "-graph", "./internal/analysis/testdata/detflow/sim", "./internal/analysis/testdata/detflow/helper")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (-graph is a dump, not a gate)\n%s", code, out)
	}
	if !strings.HasPrefix(out, "digraph detflow") {
		t.Errorf("output does not start with the digraph header:\n%.200s", out)
	}
	for _, want := range []string{`"sim.Step"`, `"helper.Wrap"`, `"time.Now"`, "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %s", want)
		}
	}
}

// TestListAnalyzers pins the suite roster to literal names, so adding
// or deleting an analyzer is a visible change here.
func TestListAnalyzers(t *testing.T) {
	out, code := lint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "metricname knoberr spanend seedarg decisionevent detflow"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names %s, want %s", got, want)
	}
}
