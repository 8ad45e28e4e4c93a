package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"softsku/internal/chaos"
	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/rng"
	"softsku/internal/sim"
)

// coldRunKey is coldRunAt's argument list.
type coldRunKey struct {
	cacheOn   bool
	par       int
	withChaos bool
}

// coldRunResult is one run's Result, progress log, chaos fingerprint
// ("" when chaos is off), and decision ledger as JSONL.
type coldRunResult struct {
	res     *Result
	log, fp string
	ledger  []byte
}

// coldRuns memoizes coldRunAt: a run starts from an empty
// characterization cache with a fixed seed, so its results are a pure
// function of its arguments, and a run two tests share is simulated
// once per process, by whichever test reaches it first in the
// (possibly shuffled) order.
var coldRuns = struct {
	sync.Mutex
	m map[coldRunKey]coldRunResult
}{m: map[coldRunKey]coldRunResult{}}

// coldRunAt is runAt with the characterization cache on or off and,
// when on, emptied first. Callers must not modify the returned Result
// or ledger: they are shared through coldRuns.
func coldRunAt(t *testing.T, cacheOn bool, par int, withChaos bool) coldRunResult {
	t.Helper()
	key := coldRunKey{cacheOn, par, withChaos}
	coldRuns.Lock()
	defer coldRuns.Unlock()
	r, ok := coldRuns.m[key]
	if !ok {
		prev := sim.SetCharacterizationCache(cacheOn)
		defer sim.SetCharacterizationCache(prev)
		sim.ResetCharacterizationCache()
		r = runAt(t, par, withChaos)
		coldRuns.m[key] = r
	}
	return r
}

// runAt executes a full tuning run at the given worker count with the
// flight recorder attached.
func runAt(t *testing.T, par int, withChaos bool) coldRunResult {
	t.Helper()
	var in Input
	if withChaos {
		in = fastInput("Web", "Skylake18", knob.THP, knob.CoreFreq)
		in.AB.GuardrailPct = 1
	} else {
		in = fastInput("Web", "Skylake18", knob.THP, knob.SHP)
	}
	in.Parallel = par
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	tool.SetLogger(&log)
	var eng *chaos.Engine
	if withChaos {
		eng = chaos.New(42, chaos.DefaultConfig())
		tool.SetChaos(eng)
	}
	led := decision.NewLedger()
	tool.SetRecorder(led)
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	fp := ""
	if eng != nil {
		fp = eng.Fingerprint()
	}
	var b bytes.Buffer
	if err := led.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return coldRunResult{res, log.String(), fp, b.Bytes()}
}

// TestParallelSweepBitIdenticalToSerial is the tentpole acceptance
// test: a full run at -parallel=8 must produce the exact Result struct
// — every sampled mean, p-value, clock reading, and log line — that
// -parallel=1 produces at the same seed. Both runs start from an empty
// characterization cache, as TestSimCacheBitIdentical's cached runs
// do, so the two tests share them.
func TestParallelSweepBitIdenticalToSerial(t *testing.T) {
	serial := coldRunAt(t, true, 1, false)
	par := coldRunAt(t, true, 8, false)
	if !reflect.DeepEqual(serial.res, par.res) {
		t.Fatalf("parallel result diverged from serial:\nserial: %+v\nparallel: %+v", serial.res, par.res)
	}
	if serial.log != par.log {
		t.Fatalf("parallel log diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial.log, par.log)
	}
}

// TestParallelSweepBitIdenticalUnderChaos repeats the equivalence
// check with a seeded fault engine and an armed guardrail: per-trial
// child injectors must decouple fault streams without changing the
// merged schedule, reverts, or composition.
func TestParallelSweepBitIdenticalUnderChaos(t *testing.T) {
	serial := coldRunAt(t, true, 1, true)
	par := coldRunAt(t, true, 8, true)
	if !reflect.DeepEqual(serial.res, par.res) {
		t.Fatalf("chaos result diverged:\nserial: %+v\nparallel: %+v", serial.res, par.res)
	}
	if serial.log != par.log {
		t.Fatalf("chaos log diverged:\n--- serial ---\n%s--- parallel ---\n%s", serial.log, par.log)
	}
	if serial.fp != par.fp {
		t.Fatalf("fault schedules diverged:\nserial: %s\nparallel: %s", serial.fp, par.fp)
	}
	if serial.res.Reverts == 0 {
		t.Fatal("fixture should exercise guardrail reverts (frequency regressions)")
	}
}

// TestParallelForCoversAllIndices pins the pool's contract: every
// index runs exactly once at any worker count, including the
// degenerate and oversubscribed shapes.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]int32, n)
			ParallelFor(workers, n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestParallelForPanicReachesCaller: a panicking fn re-panics in the
// caller with the same value at one worker and at four, after every
// worker has returned. At four workers two indices panic, and the
// lower one's value wins.
func TestParallelForPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			ParallelFor(workers, 10, func(i int) {
				if i == 3 || (workers > 1 && i == 7) {
					panic(fmt.Sprintf("boom at %d", i))
				}
			})
		}()
		if got != "boom at 3" {
			t.Errorf("workers=%d: recovered %v, want boom at 3", workers, got)
		}
		// A worker that has signalled its exit may not have returned
		// yet, so yield until the count settles.
		for i := 0; runtime.NumGoroutine() > base; i++ {
			if i == 100_000 {
				t.Fatalf("workers=%d: %d goroutines left behind", workers, runtime.NumGoroutine()-base)
			}
			runtime.Gosched()
		}
	}
}

// TestSweepStreamSeedsPairwiseDistinct audits the whole run's derived
// stream space for aliasing: across every trial a full all-knob sweep
// would schedule (plus the final validations), the load, phase, and
// both noise streams — and the chaos child-engine roots — must all be
// pairwise distinct in their first 8 draws.
func TestSweepStreamSeedsPairwiseDistinct(t *testing.T) {
	in := fastInput("Web", "Skylake18")
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, id := range tool.space.Knobs() {
		for si, setting := range tool.space.Values[id] {
			if setting == tool.baseline.Get(id) {
				continue
			}
			labels = append(labels, fmt.Sprintf("sweep/%s/%d", id, si))
		}
	}
	labels = append(labels, "final/production", "final/stock")
	if len(labels) < 20 {
		t.Fatalf("fixture too small to be a meaningful audit: %d labels", len(labels))
	}
	draws := func(seed uint64) [8]uint64 {
		var d [8]uint64
		src := rng.New(seed)
		for i := range d {
			d[i] = src.Uint64()
		}
		return d
	}
	seen := make(map[[8]uint64]string)
	check := func(name string, seed uint64) {
		d := draws(seed)
		if prev, dup := seen[d]; dup {
			t.Fatalf("stream %s aliases stream %s (seed %#x)", name, prev, seed)
		}
		seen[d] = name
	}
	const chaosSeed = 42
	for _, lab := range labels {
		seed := rng.Derive(in.Seed, "trial/"+lab)
		for _, sub := range []string{"load", "phase", "noise/control", "noise/treatment"} {
			check(lab+"/"+sub, rng.Derive(seed, sub))
		}
		check(lab+"/chaos", rng.Derive(chaosSeed, "trial/"+lab))
	}
	// The streams already in use before this audit must stay clear too.
	check("load/validate", rng.Derive(in.Seed, "load/validate"))
}
