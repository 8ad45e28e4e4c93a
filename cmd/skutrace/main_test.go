package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"softsku/internal/decision"
)

// writeFixtureLedger builds a small ledger on disk: one sweep where
// thp=always wins on mips but regresses p99, so replaying under -metric
// p99 must diverge.
func writeFixtureLedger(t *testing.T, dir, name string, mutate func(l *decision.Ledger)) string {
	t.Helper()
	l := decision.NewLedger()
	root := l.Record(-1, decision.RunStarted("Web", "Skylake18", "independent", "mips", 7, 0.95, 2))
	sweep := l.Record(root, decision.SweepStarted("sweep/thp", "thp", "madvise"))
	out := decision.TrialOutcome{
		DeltaPct: 3, PValue: 1e-6, Significant: true, Samples: 600, VirtualSec: 660,
		EvidenceID: "00000000deadbeef",
		Evidence: []decision.Evidence{
			{Metric: "mips",
				Control:   decision.Stat{N: 32, Mean: 100, Var: 4},
				Treatment: decision.Stat{N: 32, Mean: 103, Var: 4}},
			{Metric: "p99",
				Control:   decision.Stat{N: 32, Mean: 0.010, Var: 1e-8},
				Treatment: decision.Stat{N: 32, Mean: 0.013, Var: 1e-8}},
		},
	}
	trial := l.Record(sweep, decision.TrialMeasured("sweep/thp/1", "thp", "always", "thp=madvise", "thp=always", out))
	l.Record(trial, decision.ArmAccepted("thp", "always", 3))
	l.Record(root, decision.RunFinished("thp=always", 3, 0.2, 0, 0))
	if mutate != nil {
		mutate(l)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCmd(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestTreeRendersCausality(t *testing.T) {
	path := writeFixtureLedger(t, t.TempDir(), "a.jsonl", nil)
	// A ledger recorded by a since-deleted searcher carries an event kind
	// that no longer exists; it must still read, and render under its own
	// kind name.
	const oldKind = "rung_advanced"
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"seq":5,"parent":1,"kind":%q,"samples":1500,"detail":"arms=16 survivors=8"}`+"\n", oldKind)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runCmd("tree", path)
	if code != 0 {
		t.Fatalf("tree exited %d: %s", code, errs)
	}
	for _, want := range []string{"run Web on Skylake18", "sweep thp", "accepted thp=always", "    #5    " + oldKind} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	// Child events must be indented under their parents.
	lines := strings.Split(out, "\n")
	if len(lines) < 5 || strings.Index(lines[1], "#") <= strings.Index(lines[0], "#") {
		t.Fatalf("no causal indentation:\n%s", out)
	}
}

func TestDiffIdenticalAndDivergent(t *testing.T) {
	dir := t.TempDir()
	a := writeFixtureLedger(t, dir, "a.jsonl", nil)
	b := writeFixtureLedger(t, dir, "b.jsonl", nil)
	code, out, _ := runCmd("diff", a, b)
	if code != 0 || !strings.Contains(out, "identical") {
		t.Fatalf("identical ledgers: exit %d, out %q", code, out)
	}
	c := writeFixtureLedger(t, dir, "c.jsonl", func(l *decision.Ledger) {
		l.Record(0, decision.Skip("sweep/extra", "x", "only in c"))
	})
	code, out, _ = runCmd("diff", a, c)
	if code != 1 || out == "" {
		t.Fatalf("divergent ledgers: exit %d, out %q", code, out)
	}
}

func TestReplayRecordedObjectiveIsClean(t *testing.T) {
	path := writeFixtureLedger(t, t.TempDir(), "a.jsonl", nil)
	code, out, errs := runCmd("replay", path)
	if code != 0 {
		t.Fatalf("identity replay exited %d: %s%s", code, out, errs)
	}
	if !strings.Contains(out, "0 divergences") {
		t.Fatalf("identity replay not clean:\n%s", out)
	}
}

func TestReplayP99FlipsVerdictWithoutSimulator(t *testing.T) {
	path := writeFixtureLedger(t, t.TempDir(), "a.jsonl", nil)
	code, out, errs := runCmd("replay", "-metric", "p99", path)
	if code != 1 {
		t.Fatalf("p99 replay exited %d, want 1 (divergences): %s%s", code, out, errs)
	}
	if !strings.Contains(out, "recorded: accepted") || !strings.Contains(out, "p99") {
		t.Fatalf("p99 replay output:\n%s", out)
	}
}

func TestReplayJSONReport(t *testing.T) {
	path := writeFixtureLedger(t, t.TempDir(), "a.jsonl", nil)
	code, out, _ := runCmd("replay", "-metric", "p99", "-json", path)
	if code != 1 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{`"replayed_metric": "p99"`, `"divergences"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON report missing %s:\n%s", want, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCmd(); code != 2 {
		t.Fatal("no args should exit 2")
	}
	if code, _, _ := runCmd("bogus"); code != 2 {
		t.Fatal("unknown subcommand should exit 2")
	}
	if code, _, _ := runCmd("replay", "-metric", "nope", "x.jsonl"); code != 2 {
		t.Fatal("missing file should exit 2")
	}
	if code, _, errs := runCmd("help"); code != 0 || errs != "" {
		t.Fatal("help should exit 0")
	}
}
