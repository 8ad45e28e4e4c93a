package core

import (
	"bytes"
	"io"
	"testing"

	"softsku/internal/chaos"
	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/sim"
)

// twinRun executes one four-knob search from a cold characterization
// cache (the ladder's prune decisions depend on what the cache holds,
// so every comparison starts from the same empty state — exactly one
// process = one run in production) and returns the ledger bytes,
// composed SKU, window count, and twin-pruned arm count.
func twinRun(t *testing.T, mode SweepMode, twinOn bool, par int, withChaos bool) (ledger []byte, sku string, windows, pruned float64) {
	t.Helper()
	sim.ResetCharacterizationCache()
	in := fastInput("Web", "Skylake18", knob.THP, knob.SHP, knob.CoreFreq, knob.Prefetch)
	in.Sweep = mode
	in.Parallel = par
	in.Twin = twinOn
	wBefore, pBefore := sim.WindowsExecuted(), mConfigsTwinPruned.Value()
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if withChaos {
		tool.SetChaos(chaos.New(42, chaos.DefaultConfig()))
	}
	led := decision.NewLedger()
	tool.SetRecorder(led)
	tool.SetLogger(io.Discard)
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := led.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), res.SoftSKU.String(),
		sim.WindowsExecuted() - wBefore, mConfigsTwinPruned.Value() - pBefore
}

// TestTwinPrunedSearchMatchesUnpruned is the tentpole acceptance test:
// on the four-knob Web/Skylake18 run, the twin-armed search must spend
// strictly fewer fresh characterization windows than the unpruned run
// of the same searcher — and still compose the identical soft SKU. The
// margins are conservative by design: the ladder may only discard arms
// whose predicted regression clears the rung's safety margin, so the
// winner path is never predicted away.
func TestTwinPrunedSearchMatchesUnpruned(t *testing.T) {
	for _, mode := range []SweepMode{SweepIndependent, SweepHillClimb, SweepHalving} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			_, offSKU, offWin, _ := twinRun(t, mode, false, 1, false)
			_, onSKU, onWin, onPruned := twinRun(t, mode, true, 1, false)
			t.Logf("%s: windows %v -> %v (twin pruned %v arms)", mode, offWin, onWin, onPruned)
			if onSKU != offSKU {
				t.Fatalf("twin pruning changed the composed SKU: %s vs %s", onSKU, offSKU)
			}
			if onPruned == 0 {
				t.Fatalf("twin pruned no arms on the four-knob run")
			}
			if onWin >= offWin {
				t.Fatalf("twin run spent %v windows, unpruned %v — ladder saved nothing", onWin, offWin)
			}
		})
	}
}

// TestTwinLedgerBitIdentical extends the determinism contract to the
// twin-armed pipeline: ledger bytes (twin_pruned events included),
// winner, and window count must be identical at -parallel 1 and 8,
// with and without chaos, for the adaptive climb and the paper's
// independent sweep. Scoring, calibration, and cross-checks all run on
// serial phases against cache states fixed by the round structure, so
// worker scheduling cannot reach any prune decision. The hill-climb
// cases keep their original names (plain, chaos); the independent
// sweep's run as independent/plain and independent/chaos.
func TestTwinLedgerBitIdentical(t *testing.T) {
	for _, mode := range []SweepMode{SweepIndependent, SweepHillClimb} {
		for _, withChaos := range []bool{false, true} {
			mode, withChaos := mode, withChaos
			name := "plain"
			if withChaos {
				name = "chaos"
			}
			if mode != SweepHillClimb {
				name = mode.String() + "/" + name
			}
			t.Run(name, func(t *testing.T) { twinLedgerBitIdentical(t, mode, withChaos) })
		}
	}
}

func twinLedgerBitIdentical(t *testing.T, mode SweepMode, withChaos bool) {
	serial, serialSKU, serialWin, _ := twinRun(t, mode, true, 1, withChaos)
	par, parSKU, parWin, _ := twinRun(t, mode, true, 8, withChaos)
	if serialSKU != parSKU {
		t.Fatalf("winner diverged: -parallel 1 chose %s, -parallel 8 chose %s", serialSKU, parSKU)
	}
	if serialWin != parWin {
		t.Fatalf("window count diverged: %v vs %v", serialWin, parWin)
	}
	if !bytes.Equal(serial, par) {
		t.Fatalf("twin ledger diverged between -parallel 1 and 8:\n%s",
			firstLineDiff(serial, par))
	}
	if !bytes.Contains(serial, []byte(`"twin_pruned"`)) {
		t.Fatal("twin run recorded no twin_pruned events")
	}
}

// TestTwinOffUnchanged pins the nil-evaluator guarantee: a run without
// the ladder produces byte-identical ledgers whether the twin code
// path exists or not — i.e. twin = off is the pre-ladder pipeline.
// (The cross-PR guarantee is the unchanged search_test ledger goldens;
// this test additionally asserts no twin events leak into an off run.)
func TestTwinOffUnchanged(t *testing.T) {
	led, _, _, pruned := twinRun(t, SweepHillClimb, false, 1, false)
	if pruned != 0 {
		t.Fatalf("twin-off run pruned %v arms", pruned)
	}
	if bytes.Contains(led, []byte("twin")) {
		t.Fatal("twin-off ledger mentions the twin")
	}
}
