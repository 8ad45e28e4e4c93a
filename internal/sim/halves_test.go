package sim

import (
	"reflect"
	"sync"
	"testing"

	"softsku/internal/knob"
)

// halfArm is one Web/Skylake18 window of the half-memoization tests: a
// configuration change from production plus an optional CAT limit.
type halfArm struct {
	name string
	mod  func(knob.Config) knob.Config
	cat  int
}

var (
	armProduction = halfArm{name: "production"}
	armTHP        = halfArm{name: "thp", mod: func(c knob.Config) knob.Config {
		c.THP = knob.THPAlways
		return c
	}}
	armSHP = halfArm{name: "shp", mod: func(c knob.Config) knob.Config {
		c.SHPCount = 300
		return c
	}}
	armPrefetch = halfArm{name: "prefetch", mod: func(c knob.Config) knob.Config {
		c.Prefetch = knob.PrefetchNone
		return c
	}}
	armTHPPrefetch = halfArm{name: "thp+prefetch", mod: func(c knob.Config) knob.Config {
		c.THP = knob.THPAlways
		c.Prefetch = knob.PrefetchNone
		return c
	}}
	armCAT = halfArm{name: "cat4", cat: 4}
)

func (a halfArm) machine(t testing.TB) *Machine {
	t.Helper()
	m := machineFor(t, "Web", "Skylake18", a.mod)
	if a.cat > 0 {
		if err := m.SetCAT(a.cat); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// uncachedRates measures each arm once with the characterization cache
// off: every window a full replay of both halves. The references are
// shared by the tests below, which compare the cache's answers to them.
var uncachedRates = map[string]*WindowRates{}

func uncached(t *testing.T, a halfArm) *WindowRates {
	t.Helper()
	if r, ok := uncachedRates[a.name]; ok {
		return r
	}
	prev := SetCharacterizationCache(false)
	defer SetCharacterizationCache(prev)
	r := a.machine(t).Characterize()
	uncachedRates[a.name] = r
	return r
}

// passCounts snapshots the whole-window and per-half counters.
type passCounts struct{ windows, mem, tlb float64 }

func readPasses() passCounts {
	return passCounts{mSimWindows.Value(), mSimMemPasses.Value(), mSimTLBPasses.Value()}
}

func (p passCounts) sub(q passCounts) passCounts {
	return passCounts{p.windows - q.windows, p.mem - q.mem, p.tlb - q.tlb}
}

// TestHalvesExactEveryPath walks every path of a whole-window miss on a
// cold cache — a full replay, TLB-only replays (THP, SHP), a memory-only
// replay (prefetch), no replay at all (THP+prefetch, both halves
// memoized by the arms before it), and a CAT change — and requires
// each answer to DeepEqual the cache-off window and each step to
// replay exactly the halves it lacked. Every step is also a fresh
// whole window: CachedRates must not answer it before it is measured,
// even when both its halves are memoized.
func TestHalvesExactEveryPath(t *testing.T) {
	steps := []struct {
		arm  halfArm
		want passCounts
	}{
		{armProduction, passCounts{1, 1, 1}},
		{armTHP, passCounts{1, 0, 1}},
		{armSHP, passCounts{1, 0, 1}},
		{armPrefetch, passCounts{1, 1, 0}},
		{armTHPPrefetch, passCounts{1, 0, 0}},
		{armCAT, passCounts{1, 1, 0}},
	}
	want := make([]*WindowRates, len(steps))
	for i, s := range steps {
		want[i] = uncached(t, s.arm)
	}
	withColdCache(t, true, func() {
		for i, s := range steps {
			m := s.arm.machine(t)
			sku, cfg := m.Server().SKU(), m.Server().Config()
			if _, ok := CachedRates(sku, m.Profile(), cfg, s.arm.cat, m.seed); ok {
				t.Errorf("%s: CachedRates answered before the window was measured", s.arm.name)
			}
			before := readPasses()
			got := m.Characterize()
			if d := readPasses().sub(before); d != s.want {
				t.Errorf("%s: windows/mem/tlb passes = %v, want %v", s.arm.name, d, s.want)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: cached rates differ from the cache-off window", s.arm.name)
			}
			if r, ok := CachedRates(sku, m.Profile(), cfg, s.arm.cat, m.seed); !ok || r != got {
				t.Errorf("%s: CachedRates missed the measured window", s.arm.name)
			}
		}
	})
}

// TestHalvesSingleFlight races eight goroutines over four configs that
// share halves pairwise (production, THP, prefetch, THP+prefetch: two
// memory keys, two TLB keys). Whatever the interleaving, each whole
// window is measured once, each half key is replayed exactly once, and
// every answer equals the cache-off window.
func TestHalvesSingleFlight(t *testing.T) {
	arms := []halfArm{armProduction, armTHP, armPrefetch, armTHPPrefetch}
	want := make([]*WindowRates, len(arms))
	for i, a := range arms {
		want[i] = uncached(t, a)
	}
	const perArm = 2
	machines := make([]*Machine, len(arms)*perArm)
	for i := range machines {
		machines[i] = arms[i%len(arms)].machine(t)
	}
	withColdCache(t, true, func() {
		before := readPasses()
		got := make([]*WindowRates, len(machines))
		var wg sync.WaitGroup
		for i, m := range machines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = m.Characterize()
			}()
		}
		wg.Wait()
		if d := readPasses().sub(before); d != (passCounts{4, 2, 2}) {
			t.Errorf("windows/mem/tlb passes = %v, want {4 2 2}", d)
		}
		for i, r := range got {
			if !reflect.DeepEqual(r, want[i%len(arms)]) {
				t.Errorf("goroutine %d (%s): rates differ from the cache-off window", i, arms[i%len(arms)].name)
			}
		}
	})
}

// TestHalfOwnerPanicReleasesWaiters: a replay that panics must still
// publish its halves, or every trial waiting on them would block
// forever. Two machines share a memory key whose CAT limit (set past
// SetCAT's validation) makes newWindow panic; both must panic rather
// than hang, and neither half key may stay claimed.
func TestHalfOwnerPanicReleasesWaiters(t *testing.T) {
	bad := func(mod func(knob.Config) knob.Config) *Machine {
		m := machineFor(t, "Web", "Skylake18", mod)
		m.catWays = 99
		return m
	}
	machines := []*Machine{bad(nil), bad(armTHP.mod)}
	withColdCache(t, true, func() {
		panicked := make(chan bool, len(machines))
		for _, m := range machines {
			go func() {
				defer func() { panicked <- recover() != nil }()
				m.Characterize()
			}()
		}
		// A trial left blocked on a failed half hangs here until go
		// test's timeout reports it.
		for range machines {
			if !<-panicked {
				t.Error("a window with an invalid CAT limit did not panic")
			}
		}
		for _, m := range machines {
			memKey, tlbKey := halfKeys(m.Server().SKU(), m.Profile(), m.Server().Config(), m.catWays, m.seed)
			if charcache.memHalves.claimed(memKey) {
				t.Error("the failed memory half is still claimed")
			}
			if charcache.tlbHalves.claimed(tlbKey) {
				t.Error("a failed TLB half is still claimed")
			}
		}
	})
}

func (c *halfCache[T]) claimed(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// TestHalfClaimAfterFailedOwner: a waiter on a half whose owner
// publishes nothing claims the key itself instead of blocking or
// reading a nil half.
func TestHalfClaimAfterFailedOwner(t *testing.T) {
	c := halfCache[int]{entries: map[string]*halfEntry[int]{}}
	v, first := c.claim("k")
	if v != nil || first == nil {
		t.Fatal("first claim of a key must own it")
	}
	got := make(chan int, 1)
	go func() {
		v, own := c.claim("k")
		if own != nil {
			x := 7
			c.publish("k", own, &x)
			v = &x
		}
		got <- *v
	}()
	c.publish("k", first, nil)
	if v := <-got; v != 7 {
		t.Errorf("waiter read %d, want its own replay's 7", v)
	}
}
