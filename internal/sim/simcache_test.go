package sim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/workload"
)

// withColdCache runs fn with the characterization cache enabled and
// empty, restoring the previous enable state afterwards.
func withColdCache(t *testing.T, enabled bool, fn func()) {
	t.Helper()
	prev := SetCharacterizationCache(enabled)
	ResetCharacterizationCache()
	defer func() {
		SetCharacterizationCache(prev)
		ResetCharacterizationCache()
	}()
	fn()
}

func keyInputs(t *testing.T, svc, plat string) (*platform.SKU, *workload.Profile, knob.Config) {
	t.Helper()
	base, err := workload.ByName(svc)
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.ForPlatform(base, plat)
	sku, err := platform.ByName(plat)
	if err != nil {
		t.Fatal(err)
	}
	return sku, prof, ProductionConfig(sku, prof)
}

// keyMoves reports which of the whole-window, memory-half and TLB-half
// keys differ between two sets of window inputs.
type keyMoves struct{ whole, mem, tlb bool }

func moves(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, cat int, seed uint64,
	sku2 *platform.SKU, prof2 *workload.Profile, cfg2 knob.Config, cat2 int, seed2 uint64) keyMoves {
	mem, tlb := halfKeys(sku, prof, cfg, cat, seed)
	mem2, tlb2 := halfKeys(sku2, prof2, cfg2, cat2, seed2)
	return keyMoves{
		whole: charKey(sku, prof, cfg, cat, seed) != charKey(sku2, prof2, cfg2, cat2, seed2),
		mem:   mem != mem2,
		tlb:   tlb != tlb2,
	}
}

// TestCharKeyCompleteness flips every knob.Config field one at a time
// and asserts which keys move: the whole-window key iff the field is
// µarch-relevant, and each half key iff that half reads the field. The
// table is keyed by field name and must cover every field, so a new
// knob landing in knob.Config fails this test until its treatment by
// the whole key and by each half is decided — the guard against
// silently-stale entries.
func TestCharKeyCompleteness(t *testing.T) {
	sku, prof, cfg := keyInputs(t, "Web", "Skylake18")
	if prof.CtxSwitchRate <= 0 {
		t.Fatal("test needs a profile with a nonzero context-switch rate")
	}
	all, none := keyMoves{true, true, true}, keyMoves{}
	cases := map[string]struct {
		flip func(*knob.Config)
		want keyMoves
	}{
		// Core frequency reaches the window only through the
		// context-switch interval, which shapes the access stream both
		// halves replay; a large change moves the interval, so with
		// this profile every key must change.
		"CoreFreqMHz":   {func(c *knob.Config) { c.CoreFreqMHz /= 2 }, all},
		"UncoreFreqMHz": {func(c *knob.Config) { c.UncoreFreqMHz /= 2 }, none},
		"Cores":         {func(c *knob.Config) { c.Cores /= 2 }, all},
		"CDP":           {func(c *knob.Config) { c.CDP = knob.CDPConfig{DataWays: 7, CodeWays: 4} }, keyMoves{whole: true, mem: true}},
		"Prefetch":      {func(c *knob.Config) { c.Prefetch = knob.PrefetchNone }, keyMoves{whole: true, mem: true}},
		"THP":           {func(c *knob.Config) { c.THP = knob.THPNever }, keyMoves{whole: true, tlb: true}},
		"SHPCount":      {func(c *knob.Config) { c.SHPCount += 512 }, keyMoves{whole: true, tlb: true}},
	}
	typ := reflect.TypeOf(cfg)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		tc, ok := cases[name]
		if !ok {
			t.Errorf("knob.Config field %s has no cache-key expectation: decide whether it is µarch-relevant and which window halves read it, and add it to this table (and to charKey and halfKeys if so)", name)
			continue
		}
		mod := cfg
		tc.flip(&mod)
		if mod == cfg {
			t.Errorf("%s: flip did not change the config", name)
			continue
		}
		if got := moves(sku, prof, cfg, 0, 1, sku, prof, mod, 0, 1); got != tc.want {
			t.Errorf("%s: keys moved (whole, mem, tlb) = %v, want %v", name, got, tc.want)
		}
	}
}

// TestCharKeyNonConfigInputs covers the key inputs that are not
// knob.Config fields: seed, CAT ways, profile, and SKU. CAT limits the
// LLC, so it moves the memory half's key and not the TLB half's.
func TestCharKeyNonConfigInputs(t *testing.T) {
	sku, prof, cfg := keyInputs(t, "Web", "Skylake18")
	all := keyMoves{true, true, true}
	if got := moves(sku, prof, cfg, 0, 1, sku, prof, cfg, 0, 2); got != all {
		t.Errorf("seed change moved keys %v, want all", got)
	}
	if got := moves(sku, prof, cfg, 0, 1, sku, prof, cfg, 4, 1); got != (keyMoves{whole: true, mem: true}) {
		t.Errorf("CAT way change moved keys %v, want whole and memory only", got)
	}
	prof2 := *prof
	prof2.DataHot.Bytes += 4096
	if got := moves(sku, prof, cfg, 0, 1, sku, &prof2, cfg, 0, 1); got != all {
		t.Errorf("profile change moved keys %v, want all", got)
	}
	sku2 := *sku
	sku2.LLC += 1 << 20
	if got := moves(sku, prof, cfg, 0, 1, &sku2, prof, cfg, 0, 1); got != all {
		t.Errorf("SKU change moved keys %v, want all", got)
	}
}

// TestCharKeyCoreFreqOnlyViaInterval pins the design decision that
// core frequency enters the key only through the context-switch
// interval: with a zero switch rate the key must be frequency-blind,
// and a frequency change too small to move the interval must hit.
func TestCharKeyCoreFreqOnlyViaInterval(t *testing.T) {
	sku, prof, cfg := keyInputs(t, "Web", "Skylake18")
	prof2 := *prof
	prof2.CtxSwitchRate = 0
	mod := cfg
	mod.CoreFreqMHz /= 2
	if charKey(sku, &prof2, cfg, 0, 1) != charKey(sku, &prof2, mod, 0, 1) {
		t.Error("with no context switching, core frequency must not change the key")
	}
}

// TestCtxSwitchInterval covers the satellite divide-by-zero fix: the
// interval clamps to one instruction instead of rounding to zero.
func TestCtxSwitchInterval(t *testing.T) {
	if got := ctxSwitchInterval(2100, 0); got != math.MaxInt64 {
		t.Errorf("zero rate: interval = %d, want MaxInt64", got)
	}
	if got := ctxSwitchInterval(2100, 3500); got != int(2100e6/3500) {
		t.Errorf("normal rate: interval = %d", got)
	}
	if got := ctxSwitchInterval(2100, 1e15); got != 1 {
		t.Errorf("extreme rate: interval = %d, want 1", got)
	}
}

// TestRunWindowExtremeCtxSwitchRate is the regression test for the
// runWindow divide-by-zero: a switch rate high enough to round the
// interval below one instruction used to panic; now it means a switch
// every chunk.
func TestRunWindowExtremeCtxSwitchRate(t *testing.T) {
	base, err := workload.ByName("Web")
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.ForPlatform(base, "Skylake18")
	extreme := *prof
	extreme.CtxSwitchRate = 1e15
	sku, err := platform.ByName("Skylake18")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := platform.NewServer(sku, ProductionConfig(sku, &extreme))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(srv, &extreme, 1)
	if err != nil {
		t.Fatal(err)
	}
	withColdCache(t, false, func() {
		r := m.Characterize()
		if r.CtxSwitches == 0 {
			t.Error("extreme switch rate produced no context switches")
		}
		cfg := srv.Config()
		if want := PredictCtxSwitches(cfg.Cores, cfg.CoreFreqMHz, extreme.CtxSwitchRate); r.CtxSwitches != want {
			t.Errorf("measured %d context switches, PredictCtxSwitches %d", r.CtxSwitches, want)
		}
	})
}

// TestPredictCtxSwitchesMatchesWindow: the twin prices context
// switches with PredictCtxSwitches instead of a window, so the
// prediction must equal what a window measures. Cache1 switches the
// most of the paper's services.
func TestPredictCtxSwitchesMatchesWindow(t *testing.T) {
	m := machineFor(t, "Cache1", "Skylake20", nil)
	withColdCache(t, false, func() {
		r := m.Characterize()
		cfg := m.Server().Config()
		want := PredictCtxSwitches(cfg.Cores, cfg.CoreFreqMHz, m.Profile().CtxSwitchRate)
		if r.CtxSwitches == 0 || r.CtxSwitches != want {
			t.Errorf("measured %d context switches, PredictCtxSwitches %d", r.CtxSwitches, want)
		}
	})
}

// TestSetCATValidates: SetCAT checks its limit against the SKU without
// a hierarchy and returns the hierarchy's error text.
func TestSetCATValidates(t *testing.T) {
	m := machineFor(t, "Web", "Skylake18", nil)
	for n, want := range map[int]string{
		0:  "cache LLC: way limit 0 outside [1,11]",
		12: "cache LLC: way limit 12 outside [1,11]",
	} {
		if err := m.SetCAT(n); err == nil || err.Error() != want {
			t.Errorf("SetCAT(%d) = %v, want %q", n, err, want)
		}
	}
	if err := m.SetCAT(11); err != nil {
		t.Errorf("SetCAT(11) = %v", err)
	}
}

// TestSetCATReuseMatchesFresh is the regression test for an
// order-dependent window: a machine re-characterized after SetCAT used
// to re-run the window on the previous window's warm caches, advanced
// streams and TLBs, and store that result under the key a fresh
// machine at the same CAT limit also hits. Each window now starts from
// fresh state, so a reused machine must match a fresh one with the
// cache off, and with the cache on whichever of the two runs first.
func TestSetCATReuseMatchesFresh(t *testing.T) {
	const ways = 4
	fresh := func() *WindowRates {
		m := machineFor(t, "Web", "Skylake18", nil)
		if err := m.SetCAT(ways); err != nil {
			t.Fatal(err)
		}
		return m.Characterize()
	}
	reused := func() *WindowRates {
		m := machineFor(t, "Web", "Skylake18", nil)
		m.Characterize()
		if err := m.SetCAT(ways); err != nil {
			t.Fatal(err)
		}
		return m.Characterize()
	}
	var want *WindowRates
	withColdCache(t, false, func() { want = fresh() })
	check := func(name string, got *WindowRates) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LLC misses %v, fresh machine %v", name, got.Cache.LLC.Misses, want.Cache.LLC.Misses)
		}
	}
	withColdCache(t, false, func() { check("cache off, reused", reused()) })
	withColdCache(t, true, func() {
		check("cache on, reused first", reused())
		check("cache on, fresh second", fresh())
	})
	withColdCache(t, true, func() {
		check("cache on, fresh first", fresh())
		check("cache on, reused second", reused())
	})
}

// TestCharacterizeCacheEquivalence builds the same machine twice with
// the cache cold and asserts the second characterization is a hit that
// returns rates DeepEqual to an uncached measurement.
func TestCharacterizeCacheEquivalence(t *testing.T) {
	var uncached, first, second *WindowRates
	withColdCache(t, false, func() {
		uncached = machineFor(t, "Web", "Skylake18", nil).Characterize()
	})
	withColdCache(t, true, func() {
		h0, m0 := mSimCacheHits.Value(), mSimCacheMisses.Value()
		first = machineFor(t, "Web", "Skylake18", nil).Characterize()
		second = machineFor(t, "Web", "Skylake18", nil).Characterize()
		if d := mSimCacheMisses.Value() - m0; d != 1 {
			t.Errorf("misses = %v, want 1", d)
		}
		if d := mSimCacheHits.Value() - h0; d != 1 {
			t.Errorf("hits = %v, want 1", d)
		}
	})
	if !reflect.DeepEqual(first, uncached) {
		t.Error("cached measurement differs from uncached")
	}
	if !reflect.DeepEqual(second, first) {
		t.Error("cache hit returned different rates")
	}
}

// TestCharCacheDistinguishes asserts configs that must not share a
// window do not: a different seed, a different knob setting, and a
// CAT-limited machine all miss.
func TestCharCacheDistinguishes(t *testing.T) {
	withColdCache(t, true, func() {
		m0 := mSimCacheMisses.Value()
		machineFor(t, "Web", "Skylake18", nil).Characterize()
		mSeed := machineFor(t, "Web", "Skylake18", nil)
		mSeed.seed = 99
		mSeed.Characterize()
		machineFor(t, "Web", "Skylake18", func(c knob.Config) knob.Config {
			c.THP = knob.THPAlways
			return c
		}).Characterize()
		mCAT := machineFor(t, "Web", "Skylake18", nil)
		if err := mCAT.SetCAT(4); err != nil {
			t.Fatal(err)
		}
		mCAT.Characterize()
		if d := mSimCacheMisses.Value() - m0; d != 4 {
			t.Errorf("misses = %v, want 4 (all four configs distinct)", d)
		}
	})
}

// TestCharCacheSingleFlight races eight goroutines, each with its own
// identically-configured machine, and asserts exactly one window ran
// while everyone got DeepEqual rates — the property that makes the
// cache safe under core.ParallelFor at any worker count.
func TestCharCacheSingleFlight(t *testing.T) {
	const n = 8
	machines := make([]*Machine, n)
	for i := range machines {
		machines[i] = machineFor(t, "Web", "Skylake18", nil)
	}
	withColdCache(t, true, func() {
		h0, m0 := mSimCacheHits.Value(), mSimCacheMisses.Value()
		w0 := mSimWindows.Value()
		rates := make([]*WindowRates, n)
		var wg sync.WaitGroup
		for i := range machines {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rates[i] = machines[i].Characterize()
			}(i)
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			if !reflect.DeepEqual(rates[i], rates[0]) {
				t.Fatalf("goroutine %d observed different rates", i)
			}
		}
		if d := mSimWindows.Value() - w0; d != 1 {
			t.Errorf("windows executed = %v, want 1 (single-flight)", d)
		}
		if d := mSimCacheMisses.Value() - m0; d != 1 {
			t.Errorf("misses = %v, want 1", d)
		}
		if d := mSimCacheHits.Value() - h0; d != n-1 {
			t.Errorf("hits = %v, want %d", d, n-1)
		}
	})
}

// TestFingerprintTypesAddressFree walks the Profile and SKU types and
// rejects pointer-like kinds: charKey fingerprints both with %#v, which
// would render a pointer field as its address and silently break key
// determinism across processes.
func TestFingerprintTypesAddressFree(t *testing.T) {
	var check func(t *testing.T, typ reflect.Type, path string)
	check = func(t *testing.T, typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Ptr, reflect.UnsafePointer, reflect.Chan, reflect.Func, reflect.Interface, reflect.Map:
			t.Errorf("%s has kind %s: unsafe to fingerprint with %%#v; fold it into charKey explicitly", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(t, f.Type, path+"."+f.Name)
			}
		case reflect.Slice, reflect.Array:
			check(t, typ.Elem(), path+"[]")
		}
	}
	check(t, reflect.TypeOf(workload.Profile{}), "Profile")
	check(t, reflect.TypeOf(platform.SKU{}), "SKU")
}
