package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"softsku/internal/cache"
	"softsku/internal/knob"
	"softsku/internal/prefetch"
	"softsku/internal/rng"
	"softsku/internal/tlb"
	"softsku/internal/workload"
)

// refRun is a window pass as it ran before the stages: one goroutine
// walks every thread's chunk in turn through the immediate Hierarchy
// and prefetch Engines. It is the oracle for the staged window.run,
// and returns the hierarchy it leaves so LLC contents can be compared.
func (m *Machine) refRun(simMem, simTLB bool, warmup, measure int) (memHalf, tlb.Stats, *cache.Hierarchy) {
	w := m.newWindow(simMem, simTLB)
	var pfs []*prefetch.Engine
	var tlbs []*tlb.TLB
	for i, th := range w.threads {
		if simMem {
			pfs = append(pfs, prefetch.NewEngine(w.hier, i, m.srv.Config().Prefetch))
		}
		if simTLB {
			tlbs = append(tlbs, th.tlb)
		}
	}
	if simMem {
		w.prefill()
		ager := rng.New(m.seed ^ 0xa6e5)
		w.hier.LLCs.ScrambleAges(ager.Intn)
	}
	var tally [4][2]uint64
	runWindow := func(instrPerThread int) uint64 {
		interval := ctxSwitchInterval(m.srv.Config().CoreFreqMHz, m.prof.CtxSwitchRate)
		var switches uint64
		buf := make([]workload.Access, 0, windowChunk*2)
		for done := 0; done < instrPerThread; done += windowChunk {
			n := min(windowChunk, instrPerThread-done)
			switchNow := done/interval != (done+n)/interval
			for ti := range w.threads {
				buf = w.threads[ti].stream.Generate(buf[:0], n)
				if w.hier != nil {
					pf := pfs[ti]
					for i := range buf {
						a := &buf[i]
						lvl := w.hier.Access(ti, a.Addr, a.Kind)
						if a.Kind == cache.Data {
							st := 0
							if a.Type == tlb.Store {
								st = 1
							}
							tally[lvl][st]++
						}
						pf.OnAccess(a.Addr, a.Kind, a.IP, lvl)
					}
				}
				if tlbs != nil {
					for i := range buf {
						a := &buf[i]
						page, huge := w.pages.PageOf(int(a.Region), a.Addr)
						tlbs[ti].Access(page, huge, a.Type)
					}
				}
				if switchNow {
					w.threads[ti].stream.SwitchPool()
					switches++
				}
			}
		}
		return switches
	}
	runWindow(warmup)
	tally = [4][2]uint64{}
	if w.hier != nil {
		w.hier.ResetStats()
	}
	for _, p := range pfs {
		p.ResetStats()
	}
	for _, t := range tlbs {
		t.ResetStats()
	}
	switches := runWindow(measure)

	var mh memHalf
	if simMem {
		mh = memHalf{cache: w.hier.Stats(), tally: tally, switches: switches}
		for _, p := range pfs {
			mh.pf.Add(p.Stats())
		}
	}
	var ts tlb.Stats
	for _, t := range tlbs {
		s := t.Stats()
		ts.Fetches += s.Fetches
		ts.FetchMisses += s.FetchMisses
		ts.Loads += s.Loads
		ts.LoadMisses += s.LoadMisses
		ts.Stores += s.Stores
		ts.StoreMisses += s.StoreMisses
		ts.WalkCycles += s.WalkCycles
	}
	return mh, ts, w.hier
}

// stageCase is one configuration of the staged-window exactness test.
type stageCase struct {
	name string
	mod  func(knob.Config) knob.Config
	cat  int
}

// stageCases covers what TestGoldenWindowDigest does not: fewer than
// four simulated threads, each prefetcher on its own, CDP with CAT,
// and THP with SHP.
func stageCases() []stageCase {
	cores := func(n int) func(knob.Config) knob.Config {
		return func(c knob.Config) knob.Config {
			c.Cores = n
			return c
		}
	}
	mask := func(p knob.PrefetchMask) func(knob.Config) knob.Config {
		return func(c knob.Config) knob.Config {
			c.Prefetch = p
			return c
		}
	}
	return []stageCase{
		{name: "cores1", mod: cores(1)},
		{name: "cores2", mod: cores(2)},
		{name: "cores3", mod: cores(3)},
		{name: "l2hw", mod: mask(knob.PrefetchL2HW)},
		{name: "l2adj", mod: mask(knob.PrefetchL2Adj)},
		{name: "dcu", mod: mask(knob.PrefetchDCU)},
		{name: "dcuip", mod: mask(knob.PrefetchDCUIP)},
		{name: "cdp+cat", cat: 6, mod: func(c knob.Config) knob.Config {
			c.CDP = knob.CDPConfig{DataWays: 7, CodeWays: 4}
			return c
		}},
		{name: "thp+shp", mod: func(c knob.Config) knob.Config {
			c.THP = knob.THPAlways
			c.SHPCount = 300
			return c
		}},
	}
}

// stageMachine builds the case's Web/Skylake18 machine with a context
// switch every 5000 instructions, so a short pass switches pools at
// several chunk boundaries but not at every one.
func stageMachine(t *testing.T, c stageCase) *Machine {
	t.Helper()
	m := machineFor(t, "Web", "Skylake18", c.mod)
	prof := *m.prof
	prof.CtxSwitchRate = float64(m.srv.Config().CoreFreqMHz) * 1e6 / 5000
	m.prof = &prof
	if c.cat > 0 {
		if err := m.SetCAT(c.cat); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// passModes are the ways window.run can pass: staged at GOMAXPROCS 4
// with its window alone, inline at GOMAXPROCS 1, and inline at
// GOMAXPROCS 4 beside another running window.
var passModes = []struct {
	name   string
	procs  int
	beside bool
}{{"staged", 4, false}, {"inline1", 1, false}, {"inline4", 4, true}}

// inPassMode sets up mode for the duration of fn, and checks that it
// picks the stages exactly when mode says so.
func inPassMode(t *testing.T, mode int, threads int, fn func()) {
	t.Helper()
	pm := passModes[mode]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pm.procs))
	running := 1
	if pm.beside {
		windowsRunning.Add(1)
		defer windowsRunning.Add(-1)
		running++
	}
	if got, want := stagesPay(running, runtime.GOMAXPROCS(0), threads), pm.name == "staged" && threads > 1; got != want {
		t.Fatalf("%s: stagesPay = %v with %d threads", pm.name, got, threads)
	}
	fn()
}

// TestStagesPay: a pass runs in stages only alone, on more than one
// CPU, with more than one thread.
func TestStagesPay(t *testing.T) {
	for _, c := range []struct {
		running, procs, threads int
		want                    bool
	}{
		{1, 2, 4, true}, {1, 4, 2, true},
		{2, 2, 4, false}, {1, 1, 4, false}, {1, 4, 1, false}, {3, 8, 4, false},
	} {
		if got := stagesPay(c.running, c.procs, c.threads); got != c.want {
			t.Errorf("stagesPay(%d, %d, %d) = %v", c.running, c.procs, c.threads, got)
		}
	}
}

// TestWindowStagesMatchSerial runs short passes — a 10000-instruction
// warm-up, then 25500 measured instructions, so the last chunk is
// partial — through window.run in each pass mode and through the
// serial reference, and requires identical halves and an identical
// hierarchy, LLC included. Under -race it also catches a thread stage
// whose LLC ops bypass its log.
func TestWindowStagesMatchSerial(t *testing.T) {
	const warmup, measure = 10_000, 25_500
	modes := []struct {
		name           string
		simMem, simTLB bool
	}{{"full", true, true}, {"mem", true, false}, {"tlb", false, true}}
	for _, c := range stageCases() {
		m := stageMachine(t, c)
		for _, mode := range modes {
			if mode.name == "mem" && c.name != "cores3" && c.name != "cdp+cat" {
				continue // each memory-only pass pays a whole prefill
			}
			wantMem, wantTLB, wantHier := m.refRun(mode.simMem, mode.simTLB, warmup, measure)
			if mode.simMem && wantMem.switches == 0 {
				t.Fatalf("%s: the reference pass switched no pools", c.name)
			}
			for pm := range passModes {
				t.Run(fmt.Sprintf("%s/%s/%s", c.name, mode.name, passModes[pm].name), func(t *testing.T) {
					w := m.newWindow(mode.simMem, mode.simTLB)
					var gotMem memHalf
					var gotTLB tlb.Stats
					inPassMode(t, pm, len(w.threads), func() { gotMem, gotTLB = w.run(warmup, measure) })
					if gotMem != wantMem {
						t.Errorf("memory half %+v\nserial      %+v", gotMem, wantMem)
					}
					if gotTLB != wantTLB {
						t.Errorf("TLB half %+v, serial %+v", gotTLB, wantTLB)
					}
					if !reflect.DeepEqual(w.hier, wantHier) {
						t.Error("the staged pass left a different hierarchy")
					}
				})
			}
		}
	}
}

// TestChunkArithmetic: the chunks cover a pass exactly, and their
// switch count equals the loop runWindow and PredictCtxSwitches each
// ran before they shared chunk, over interval and pass lengths around
// the chunk size, an interval of one instruction and no switches.
func TestChunkArithmetic(t *testing.T) {
	for _, instr := range []int{0, 1, windowChunk - 1, windowChunk, windowChunk + 1, 25_500, warmupInstr, measureInstr} {
		for _, iv := range []int{1, 7, windowChunk - 1, windowChunk, windowChunk + 1, 3 * windowChunk, 7777, measureInstr, math.MaxInt64} {
			var want uint64
			for done := 0; done < instr; done += windowChunk {
				n := min(windowChunk, instr-done)
				if done/iv != (done+n)/iv {
					want++
				}
			}
			total := 0
			for c := 0; c < numChunks(instr); c++ {
				n, _ := chunk(instr, iv, c)
				total += n
			}
			if total != instr {
				t.Errorf("instr %d: chunks cover %d", instr, total)
			}
			if got := chunkSwitches(instr, iv); got != want {
				t.Errorf("instr %d, interval %d: %d switches, the old loop %d", instr, iv, got, want)
			}
		}
	}
}

// settleGoroutines yields until the goroutine count falls back to
// base, and fails if it has not after many yields: a stage that has
// signalled its exit may not have returned yet.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 100_000 {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		runtime.Gosched()
	}
}

// TestWindowStagePanics: a panic in any stage, or in an inline pass,
// stops every stage and re-panics on runWindow's goroutine, leaving no
// goroutine behind. A thread stage fails on a stream it lost; the LLC
// stage on a hierarchy whose LLC is gone, which no thread stage
// touches.
func TestWindowStagePanics(t *testing.T) {
	m := machineFor(t, "Web", "Skylake18", nil)
	for _, tc := range []struct {
		name     string
		sabotage func(w *window)
	}{
		{"thread", func(w *window) { w.threads[2].stream = nil }},
		{"llc", func(w *window) { w.hier.LLCs = nil }},
	} {
		for pm := range passModes {
			t.Run(tc.name+"/"+passModes[pm].name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				w := m.newWindow(true, true)
				w.prefill()
				tc.sabotage(w)
				var r any
				inPassMode(t, pm, len(w.threads), func() {
					defer func() { r = recover() }()
					windowsRunning.Add(1) // as window.run counts its window
					defer windowsRunning.Add(-1)
					w.runWindow(warmupInstr)
				})
				err, ok := r.(runtime.Error)
				if !ok || !strings.Contains(err.Error(), "nil pointer") {
					t.Fatalf("runWindow recovered %v, want a nil pointer runtime error", r)
				}
				settleGoroutines(t, base)
			})
		}
	}
}

// BenchmarkWindowPass times one Web/Skylake18 pass: both halves, the
// memory half alone, and the TLB half alone.
func BenchmarkWindowPass(b *testing.B) {
	m := machineFor(b, "Web", "Skylake18", nil)
	for _, mode := range []struct {
		name           string
		simMem, simTLB bool
	}{{"full", true, true}, {"mem", true, false}, {"tlb", false, true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.replay(mode.simMem, mode.simTLB)
			}
		})
	}
}
