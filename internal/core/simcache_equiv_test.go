package core

import (
	"io"
	"reflect"
	"testing"

	"softsku/internal/knob"
	"softsku/internal/sim"
)

// TestSimCacheBitIdentical is the tentpole acceptance test for the
// characterization cache: a full tuning run with the cache enabled
// must produce the exact Result struct, progress log, and chaos
// fingerprint that -sim-cache=off produces, at parallel=1 and 8, with
// chaos off and on. The cache is a pure memoization — if any input
// that reaches a window were missing from its key, one of these eight
// runs would diverge. The cached runs are the ones the parallel
// equivalence tests compare (coldRunAt).
func TestSimCacheBitIdentical(t *testing.T) {
	for _, withChaos := range []bool{false, true} {
		for _, par := range []int{1, 8} {
			off := coldRunAt(t, false, par, withChaos)
			on := coldRunAt(t, true, par, withChaos)
			if !reflect.DeepEqual(on.res, off.res) {
				t.Fatalf("chaos=%v parallel=%d: cached result diverged from uncached:\ncached: %+v\nuncached: %+v",
					withChaos, par, on.res, off.res)
			}
			if on.log != off.log {
				t.Fatalf("chaos=%v parallel=%d: cached log diverged:\n--- cached ---\n%s--- uncached ---\n%s",
					withChaos, par, on.log, off.log)
			}
			if on.fp != off.fp {
				t.Fatalf("chaos=%v parallel=%d: fault schedules diverged:\ncached: %s\nuncached: %s",
					withChaos, par, on.fp, off.fp)
			}
		}
	}
}

// TestSimCacheDedupesWindows pins the perf claim behind the cache: one
// tuning run re-characterizes the same µarch configurations over and
// over — the control arm every trial, neighbours revisited across
// hill-climb rounds, each round's control equal to the previous
// round's winning treatment — so the cache must cut executed windows
// by at least 2x. The cached count is the unarmed hill climb the twin
// tests share (twinRun, same fixture); the window count does not depend
// on the worker count.
func TestSimCacheDedupesWindows(t *testing.T) {
	off := func() float64 {
		prev := sim.SetCharacterizationCache(false)
		defer sim.SetCharacterizationCache(prev)
		sim.ResetCharacterizationCache()
		before := sim.WindowsExecuted()
		in := fastInput("Web", "Skylake18", knob.THP, knob.SHP, knob.CoreFreq, knob.Prefetch)
		in.Sweep = SweepHillClimb
		in.Parallel = 4
		tool, err := New(in)
		if err != nil {
			t.Fatal(err)
		}
		tool.SetLogger(io.Discard)
		if _, err := tool.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.WindowsExecuted() - before
	}()
	_, _, on, _ := twinRun(t, SweepHillClimb, false, 1, false)
	if on <= 0 || off <= 0 {
		t.Fatalf("windows: on=%v off=%v", on, off)
	}
	if off < 2*on {
		t.Fatalf("cache saved too little: %v windows uncached vs %v cached (want ≥2x)", off, on)
	}
}
