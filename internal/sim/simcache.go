package sim

import (
	"fmt"
	"math"
	"sync"

	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/telemetry"
	"softsku/internal/tlb"
	"softsku/internal/workload"
)

// Characterization-cache telemetry. A hit means a full prefill +
// 800k-instruction window was skipped; windows counts the whole-window
// misses (with the cache off, every Characterize call is a window).
// A window miss replays only the halves the cache lacks, so the pass
// counters show the work that actually ran: a miss whose halves are
// both memoized adds a window and no pass.
var (
	mSimCacheHits = telemetry.Default.Counter("softsku_sim_cache_hits_total",
		"Characterization windows served from the content-addressed cache.")
	mSimCacheMisses = telemetry.Default.Counter("softsku_sim_cache_misses_total",
		"Characterization cache lookups that had to run the window.")
	mSimWindows = telemetry.Default.Counter("softsku_sim_windows_total",
		"Characterization windows measured: whole-window cache misses, whatever halves they replay.")
	mSimMemPasses = telemetry.Default.Counter("softsku_sim_mem_passes_total",
		"Window replays that simulated the memory half (cache hierarchy and prefetchers).")
	mSimTLBPasses = telemetry.Default.Counter("softsku_sim_tlb_passes_total",
		"Window replays that simulated the TLB half.")
)

// charCache memoizes WindowRates by the canonical fingerprint of every
// input that can affect Characterize (DESIGN.md §11). Entries are
// single-flight: under core.ParallelFor the first goroutine to request
// a key runs the window inside the entry's once while latecomers block
// on it, so worker count can change neither the results nor the number
// of windows executed. Cached *WindowRates are shared and treated as
// immutable by all consumers (Solve copies Counts by value).
//
// Below the whole-window entries sit the two half caches, keyed by
// halfKeys: a whole-window miss takes each half from them when it can
// and replays only the rest.
type charCache struct {
	mu      sync.Mutex
	enabled bool
	entries map[string]*charEntry

	memHalves halfCache[memHalf]
	tlbHalves halfCache[tlb.Stats]
}

type charEntry struct {
	once  sync.Once
	rates *WindowRates
}

var charcache = charCache{enabled: true, entries: map[string]*charEntry{},
	memHalves: halfCache[memHalf]{entries: map[string]*halfEntry[memHalf]{}},
	tlbHalves: halfCache[tlb.Stats]{entries: map[string]*halfEntry[tlb.Stats]{}}}

// halfCache memoizes one half of a window. Its entries are single-
// flight like the whole-window ones, but the owner is not inside a
// once: measureHalves claims a half, replays it alongside the other,
// and publishes it on every exit path.
type halfCache[T any] struct {
	mu      sync.Mutex
	entries map[string]*halfEntry[T]
}

type halfEntry[T any] struct {
	done chan struct{} // closed when the owner publishes
	val  *T            // nil after done if the owner's replay failed
}

// claim returns the half memoized under key, waiting out an owner that
// is still replaying it. If no goroutine holds the key, the caller
// becomes its owner: claim returns the entry, which the caller must
// publish.
func (c *halfCache[T]) claim(key string) (*T, *halfEntry[T]) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &halfEntry[T]{done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			return nil, e
		}
		c.mu.Unlock()
		<-e.done
		if e.val != nil {
			return e.val, nil
		}
		// The owner's replay failed and dropped the entry: claim anew.
	}
}

// publish stores the owner's half and wakes its waiters. A nil v means
// the replay failed (it panicked): the entry is dropped, so a waiter
// claims the key and replays the half itself instead of blocking.
func (c *halfCache[T]) publish(key string, e *halfEntry[T], v *T) {
	c.mu.Lock()
	if v != nil {
		e.val = v
	} else if c.entries[key] == e {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.done)
}

func (c *halfCache[T]) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*halfEntry[T]{}
}

// measureHalves is measure for a whole-window miss with the cache on.
// It claims the memory half, then the TLB half, replays the halves it
// owns in one pass, and composes the rates. The fixed claim order is
// what rules out deadlock: a goroutine waits on a memory half holding
// no claim at all, and waits on a TLB half holding at most a memory
// half, while a TLB half's owner has claimed everything it needs and
// is replaying, so no wait can close a cycle.
func (m *Machine) measureHalves() *WindowRates {
	mSimWindows.Inc()
	memKey, tlbKey := halfKeys(m.srv.SKU(), m.prof, m.srv.Config(), m.catWays, m.seed)
	mh, memOwn := charcache.memHalves.claim(memKey)
	if memOwn != nil {
		defer func() { charcache.memHalves.publish(memKey, memOwn, mh) }()
	}
	ts, tlbOwn := charcache.tlbHalves.claim(tlbKey)
	if tlbOwn != nil {
		defer func() { charcache.tlbHalves.publish(tlbKey, tlbOwn, ts) }()
	}
	if memOwn != nil || tlbOwn != nil {
		mem, tl := m.replay(memOwn != nil, tlbOwn != nil)
		if memOwn != nil {
			mh = &mem
		}
		if tlbOwn != nil {
			ts = &tl
		}
	}
	return m.compose(mh, ts)
}

// SetCharacterizationCache enables or disables the process-wide
// characterization cache and reports the previous setting. Disabled
// (the -sim-cache=off escape hatch) every Characterize call runs its
// own window; results are bit-identical either way — the cache is a
// pure memoization keyed on every input that reaches the window.
func SetCharacterizationCache(enabled bool) bool {
	charcache.mu.Lock()
	defer charcache.mu.Unlock()
	prev := charcache.enabled
	charcache.enabled = enabled
	return prev
}

// CharacterizationCacheEnabled reports whether the cache is active.
func CharacterizationCacheEnabled() bool {
	charcache.mu.Lock()
	defer charcache.mu.Unlock()
	return charcache.enabled
}

// ResetCharacterizationCache drops every cached window and window half.
// Benchmarks and equivalence tests call it between runs so each run
// observes a cold cache; production runs never need it (entries are
// pure functions of their key).
func ResetCharacterizationCache() {
	charcache.mu.Lock()
	defer charcache.mu.Unlock()
	charcache.entries = map[string]*charEntry{}
	charcache.memHalves.reset()
	charcache.tlbHalves.reset()
}

// WindowsExecuted returns the cumulative count of characterization
// windows measured in this process — whole-window cache misses,
// whatever halves each replayed, and the quantity the cache exists to
// reduce; benchmarks and tests difference it around a run.
//
//lint:ignore detflow the window count equals the number of distinct characterization keys, which a seeded run fixes; exposed for benchmarks to difference
func WindowsExecuted() float64 { return mSimWindows.Value() }

// getOrMeasure returns the cached rates for key, running measure
// exactly once per key across all goroutines.
func (c *charCache) getOrMeasure(key string, measure func() *WindowRates) *WindowRates {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &charEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		r := measure()
		// Publish under the cache mutex so CachedRates can probe
		// completed entries without racing an in-flight measurement;
		// latecomers blocked on the once still synchronize through Do.
		c.mu.Lock()
		e.rates = r
		c.mu.Unlock()
	})
	if hit {
		mSimCacheHits.Inc()
	} else {
		mSimCacheMisses.Inc()
	}
	return e.rates
}

// CachedRates returns the characterization the process-wide cache
// already holds for this exact window key, without executing a window —
// the simcache-hit rung of the tiered-fidelity ladder (DESIGN.md §16).
// It reports false when the cache is disabled, the key is absent, or
// its window is still being measured; it never creates an entry and
// never blocks on one, so a probe costs a map lookup regardless of
// what the parallel trial pool is doing. It answers from whole-window
// entries only and never composes one from memoized halves: which
// windows a run has measured decides what the ladder prunes.
func CachedRates(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, catWays int, seed uint64) (*WindowRates, bool) {
	charcache.mu.Lock()
	defer charcache.mu.Unlock()
	if !charcache.enabled {
		return nil, false
	}
	e, ok := charcache.entries[charKey(sku, prof, cfg, catWays, seed)]
	if !ok || e.rates == nil {
		return nil, false
	}
	return e.rates, true
}

// ctxSwitchInterval converts the profile's per-core context-switch rate
// at a core frequency into the switch interval in instructions (IPC≈1
// estimate, as in runWindow). A rate so high the interval rounds below
// one instruction clamps to 1 — switch every chunk — instead of the
// divide-by-zero the unclamped value used to cause. The interval, not
// the raw frequency, is what the measurement window observes, so it is
// the form under which core frequency enters the cache key.
func ctxSwitchInterval(coreFreqMHz int, ratePerSec float64) int {
	if ratePerSec <= 0 {
		return math.MaxInt64
	}
	iv := int(float64(coreFreqMHz) * 1e6 / ratePerSec)
	if iv < 1 {
		iv = 1
	}
	return iv
}

// charKey builds the canonical fingerprint of every input that affects
// a characterization window:
//
//   - the SKU (cache/TLB geometry, LLC size, prefetcher behaviour) and
//     profile (footprints, mixes, seed-independent layout), fingerprinted
//     with %#v so any new scalar field automatically joins the key;
//   - the workload seed (stream contents, age scrambling);
//   - the µarch-relevant knob subset: active cores (thread count, LLC
//     scaling, private-span scaling), CDP way split, prefetch mask, THP
//     mode, SHP reservation;
//   - the applied CAT way limit (Machine.SetCAT, not part of knob.Config);
//   - the context-switch interval — the only path by which core
//     frequency reaches the window. Uncore frequency never does: both
//     frequencies otherwise enter only Solve, which runs per call.
//
// Keys are full canonical strings, not hashes: collisions are
// impossible, so the cache cannot silently merge distinct configs.
func charKey(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, catWays int, seed uint64) string {
	return keyShared(sku, prof, cfg, seed) + "|" + keyMem(cfg, catWays) + "|" + keyTLB(cfg)
}

// halfKeys returns the keys of a window's memory half and TLB half.
// Each holds only the inputs its half reads: the memory key leaves out
// THP and SHP, the TLB key the prefetch mask, CDP and CAT.
func halfKeys(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, catWays int, seed uint64) (memKey, tlbKey string) {
	shared := keyShared(sku, prof, cfg, seed)
	return shared + "|" + keyMem(cfg, catWays), shared + "|" + keyTLB(cfg)
}

// keyShared renders the inputs both halves read: everything that
// shapes the access stream.
func keyShared(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, seed uint64) string {
	return fmt.Sprintf("sku{%#v}|prof{%#v}|seed=%d|cores=%d|ctxint=%d",
		*sku, *prof, seed, cfg.Cores,
		ctxSwitchInterval(cfg.CoreFreqMHz, prof.CtxSwitchRate))
}

func keyMem(cfg knob.Config, catWays int) string {
	return fmt.Sprintf("cdp=%d/%d|pf=%d|cat=%d",
		cfg.CDP.DataWays, cfg.CDP.CodeWays, uint8(cfg.Prefetch), catWays)
}

func keyTLB(cfg knob.Config) string {
	return fmt.Sprintf("thp=%d|shp=%d", int(cfg.THP), cfg.SHPCount)
}
