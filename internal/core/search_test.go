package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"softsku/internal/abtest"
	"softsku/internal/chaos"
	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/rng"
)

// TestBinarySearchSHPHazardBand pins the termination bug: with lo
// step-aligned and 2·step < hi-lo < 3·step, quantizing the lower
// third-point collapsed it onto lo (quant(200+43) = 200), so a "go
// right" verdict re-ran the identical probes forever. The fixed probes
// are clamped to step-multiples strictly inside (lo, hi), so every
// verdict narrows the interval.
func TestBinarySearchSHPHazardBand(t *testing.T) {
	tool, err := New(fastInput("Web", "Skylake18", knob.SHP))
	if err != nil {
		t.Fatal(err)
	}
	// lo=200 is step-aligned and hi-lo=130 sits in (100, 150): the
	// pre-fix code looped forever on this interval whenever the response
	// curve sent the search right (a regression hangs here until go
	// test's package timeout fires). The probe budget below is the
	// stronger assertion: termination in one or two probe pairs.
	best, tests, err := tool.BinarySearchSHP(200, 330, 50)
	if err != nil {
		t.Fatal(err)
	}
	if best < 200 || best > 330 {
		t.Fatalf("best %d escaped [lo, hi]", best)
	}
	if tests == 0 || tests > 4 {
		t.Fatalf("hazard-band interval should resolve in 1-2 probe pairs, spent %d tests", tests)
	}
}

// TestBinarySearchSHPProbesStayInterior sweeps every (lo, hi) shape
// around the step grid and asserts the probe budget stays within the
// interval-narrowing bound — the generalized form of the hazard-band
// regression. Each verdict must shrink hi-lo by at least one step, so
// the probe-pair count is bounded by (hi-lo)/step.
func TestBinarySearchSHPProbesStayInterior(t *testing.T) {
	tool, err := New(fastInput("Web", "Skylake18", knob.SHP))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ lo, hi, step int }{
		{200, 330, 50}, // hazard band, lo aligned
		{150, 280, 50}, // hazard band, lo aligned differently
		{0, 600, 50},   // the documented full range
		{100, 251, 50}, // hazard band, hi unaligned
		{0, 120, 50},   // barely above the 2·step guard
	} {
		_, tests, err := tool.BinarySearchSHP(c.lo, c.hi, c.step)
		if err != nil {
			t.Fatalf("(%d,%d,%d): %v", c.lo, c.hi, c.step, err)
		}
		if bound := 2 * ((c.hi - c.lo) / c.step); tests > bound {
			t.Fatalf("(%d,%d,%d): %d probes exceeds the narrowing bound %d", c.lo, c.hi, c.step, tests, bound)
		}
	}
}

// sigOutcome fabricates a significantly-better outcome with the given
// delta, for driving a Searcher's Observe directly.
func sigOutcome(deltaPct float64) ArmOutcome {
	return ArmOutcome{Outcome: abtest.Outcome{DeltaPct: deltaPct, Significant: true}}
}

// TestHillClimbCompoundsGains pins the compounding bugfix: per-round
// deltas are measured against the previous round's winner, so they
// chain multiplicatively. Two +10% rounds are +21% exactly — the old
// additive sum reported +20%.
func TestHillClimbCompoundsGains(t *testing.T) {
	tool, err := New(fastInput("Web", "Skylake18", knob.THP, knob.SHP))
	if err != nil {
		t.Fatal(err)
	}
	h := newHillSearcher(tool)
	for round := 0; round < 2; round++ {
		rd := h.Propose(round)
		if rd == nil || len(rd.Groups) != 1 || len(rd.Groups[0].Arms) == 0 {
			t.Fatalf("round %d proposed no arms", round)
		}
		outs := make([]ArmOutcome, len(rd.Groups[0].Arms))
		outs[0] = sigOutcome(10) // the first neighbour wins +10%
		for i := 1; i < len(outs); i++ {
			outs[i] = ArmOutcome{Outcome: abtest.Outcome{DeltaPct: -1}}
		}
		h.Observe(round, 0, outs)
	}
	if _, gain := h.Best(); math.Abs(gain-21.0) > 1e-9 {
		t.Fatalf("two +10%% moves must compound to +21%%, got %+.6f%%", gain)
	}
}

// TestHillClimbGainMatchesLedger cross-checks the reported gain on a
// real run: Result.ExhaustiveBest must equal the product of the
// ledger's accepted moves (hill climb records ArmAccepted only for
// winning moves), compounded multiplicatively.
func TestHillClimbGainMatchesLedger(t *testing.T) {
	in := fastInput("Web", "Skylake18", knob.THP, knob.SHP)
	in.Sweep = SweepHillClimb
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	led := decision.NewLedger()
	tool.SetRecorder(led)
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	compound := 1.0
	accepted := 0
	for _, e := range led.Events() {
		if e.Kind == decision.KindArmAccepted {
			compound *= 1 + e.DeltaPct/100
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("fixture should accept at least one move (THP always wins on Web)")
	}
	want := (compound - 1) * 100
	if math.Abs(res.ExhaustiveBest-want) > 1e-9 {
		t.Fatalf("ExhaustiveBest %+.6f%% != compounded ledger moves %+.6f%%", res.ExhaustiveBest, want)
	}
	// The additive sum differs from the compound whenever two or more
	// moves land; guard the fixture so the assertion above has teeth.
	if accepted > 1 {
		sum := 0.0
		for _, e := range led.Events() {
			if e.Kind == decision.KindArmAccepted {
				sum += e.DeltaPct
			}
		}
		if math.Abs(res.ExhaustiveBest-sum) < 1e-12 {
			t.Fatalf("gain %+.6f%% equals the additive sum; compounding regressed", res.ExhaustiveBest)
		}
	}
}

// TestSearchBudgetExhaustedEvent drives a climb whose round budget runs
// out before convergence: the driver must close the ledger with a
// terminal budget_exhausted event and log it, never just truncate.
func TestSearchBudgetExhaustedEvent(t *testing.T) {
	tool, err := New(fastInput("Web", "Skylake18", knob.THP, knob.SHP))
	if err != nil {
		t.Fatal(err)
	}
	led := decision.NewLedger()
	tool.SetRecorder(led)
	var logs bytes.Buffer
	tool.SetLogger(&logs)
	h := newHillSearcher(tool)
	h.maxRounds = 1 // Web improves on round 0, so the climb cannot converge in 1
	if err := tool.runSearch(h); err != nil {
		t.Fatal(err)
	}
	if h.Done() {
		t.Fatal("fixture converged; it must exhaust the budget instead")
	}
	var term decision.Event
	for _, e := range led.Events() {
		if e.Kind == decision.KindBudgetExhausted {
			term = e
		}
	}
	if term.Kind == "" {
		t.Fatal("no budget_exhausted event recorded")
	}
	if term.Label != "hill climb" || term.Wave != 1 {
		t.Fatalf("terminal event misattributed: %+v", term)
	}
	if !strings.Contains(term.Detail, "best so far") {
		t.Fatalf("terminal event should carry the best-so-far config: %q", term.Detail)
	}
	if !strings.Contains(logs.String(), "round budget exhausted after 1 rounds") {
		t.Fatalf("budget exhaustion not logged:\n%s", logs.String())
	}
}

// searchLedgerAt mirrors runAt for the hill climber: run one
// tuning pass in the given mode and return the serialized ledger, the
// winning configuration, and the progress log.
func searchLedgerAt(t *testing.T, mode SweepMode, par int, withChaos bool) ([]byte, string, string) {
	t.Helper()
	var in Input
	if withChaos {
		in = fastInput("Web", "Skylake18", knob.THP, knob.CoreFreq)
		in.AB.GuardrailPct = 1
	} else {
		in = fastInput("Web", "Skylake18", knob.THP, knob.SHP)
	}
	in.Sweep = mode
	in.Parallel = par
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if withChaos {
		tool.SetChaos(chaos.New(42, chaos.DefaultConfig()))
	}
	led := decision.NewLedger()
	tool.SetRecorder(led)
	var logs bytes.Buffer
	tool.SetLogger(&logs)
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := led.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), res.SoftSKU.String(), logs.String()
}

// TestSearcherLedgerBitIdentical extends the flight recorder's
// acceptance test to the multi-round hill climber: winner, progress log,
// and ledger bytes must be identical at -parallel 1 and -parallel 8,
// with and without a chaos engine attached. This is the determinism
// contract each Searcher inherits from the runSearch driver.
func TestSearcherLedgerBitIdentical(t *testing.T) {
	for _, mode := range []SweepMode{SweepHillClimb} {
		for _, withChaos := range []bool{false, true} {
			name := mode.String() + "/plain"
			if withChaos {
				name = mode.String() + "/chaos"
			}
			t.Run(name, func(t *testing.T) {
				serial, serialWin, serialLog := searchLedgerAt(t, mode, 1, withChaos)
				par, parWin, parLog := searchLedgerAt(t, mode, 8, withChaos)
				if serialWin != parWin {
					t.Fatalf("winner diverged: -parallel 1 chose %s, -parallel 8 chose %s", serialWin, parWin)
				}
				if serialLog != parLog {
					t.Fatalf("progress log diverged:\nserial:\n%s\nparallel:\n%s", serialLog, parLog)
				}
				if !bytes.Equal(serial, par) {
					t.Fatalf("ledger diverged between -parallel 1 and 8:\n%s",
						firstLineDiff(serial, par))
				}
				if len(serial) == 0 {
					t.Fatal("run recorded an empty ledger")
				}
			})
		}
	}
}

// TestSearchRNGStreamsDoNotAlias asserts the hill climber's label
// scheme never collapses two distinct streams onto one seed: every
// plausible trial label must derive pairwise-distinct rng roots from
// the same run seed (label schemes are observable behavior — see
// DESIGN.md §10).
func TestSearchRNGStreamsDoNotAlias(t *testing.T) {
	var labels []string
	for round := 0; round < 6; round++ {
		for _, id := range []knob.ID{knob.THP, knob.SHP, knob.CoreFreq} {
			for ni := 0; ni < 7; ni++ {
				labels = append(labels, fmt.Sprintf("hill/%d/%s/%d", round, id, ni))
			}
		}
	}
	for _, seed := range []uint64{1, 42} {
		seen := map[uint64]string{}
		for _, l := range labels {
			d := rng.Derive(seed, l)
			if prev, dup := seen[d]; dup {
				t.Fatalf("seed %d: labels %q and %q derive the same stream %#x", seed, prev, l, d)
			}
			seen[d] = l
		}
	}
}
