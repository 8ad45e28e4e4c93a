// Package sim binds the substrates into a server simulator: a
// platform.Server runs one workload.Profile, its synthetic streams
// drive the cache/TLB/prefetch models, and a bandwidth↔latency fixed
// point yields the operating point (IPC, MIPS, top-down breakdown,
// memory bandwidth) that the characterization figures and µSKU's A/B
// tests observe. A discrete-event request simulator (service.go)
// layers request latency, queueing, and context-switch behaviour on
// top.
package sim

import (
	"fmt"
	"math"

	"softsku/internal/cache"
	"softsku/internal/cpu"
	"softsku/internal/knob"
	"softsku/internal/mem"
	"softsku/internal/platform"
	"softsku/internal/prefetch"
	"softsku/internal/rng"
	"softsku/internal/tlb"
	"softsku/internal/workload"
)

const (
	// simThreads is how many representative worker threads drive the
	// shared hierarchy; the LLC is scaled by simThreads/activeCores to
	// preserve per-thread capacity pressure (see cache.NewHierarchySized).
	simThreads = 4

	// Measurement window sizes, instructions per simulated thread.
	warmupInstr  = 200_000
	measureInstr = 600_000

	// ctxSwitchCostSec is the direct (register/scheduler) cost of one
	// context switch. Prior work brackets total cost between ~1 µs and
	// ~12 µs; the indirect (cache pollution) part is emergent from
	// pool switching, so only the direct part is charged here.
	ctxSwitchCostSec = 2e-6

	// shpPressureMissPerMiB converts reserved-but-unused SHP memory
	// into extra cold data misses per instruction: memory lost to an
	// unusable reservation shrinks what the service (and page cache)
	// can keep resident. See DESIGN.md's substitution table.
	shpPressureMissPerMiB = 1e-6
)

// Machine simulates one server of a SKU running one microservice under
// a given soft-SKU configuration. It holds only what outlives a
// characterization window: the window's own state (caches, TLBs,
// prefetchers, streams) is built by measure and dropped when it
// returns, so a machine whose window the simcache holds never
// allocates it.
type Machine struct {
	srv      *platform.Server
	prof     *workload.Profile
	seed     uint64
	space    *tlb.AddressSpace // regions only; prices SHP over-reservation
	memMod   *mem.Model
	nthreads int
	catWays  int          // CAT way limit applied via SetCAT; 0 = unlimited
	rates    *WindowRates // cached characterization, nil until measured
}

// WindowRates are per-instruction event rates measured over one
// window, the inputs to the cycle model's fixed point.
type WindowRates struct {
	Instructions uint64
	Counts       cpu.Counts // absolute counts over the window

	// Per-instruction DRAM line traffic.
	DemandMemPerInstr   float64 // demand LLC misses
	PrefetchMemPerInstr float64 // prefetch fills from DRAM

	CtxSwitches uint64

	// Raw model stats for MPKI reporting.
	Cache cache.LevelStats
	TLB   tlb.Stats
	PF    prefetch.Stats
}

// NewMachine builds the simulator for a server/profile pair. The
// profile should already be platform-adjusted (workload.ForPlatform).
func NewMachine(srv *platform.Server, prof *workload.Profile, seed uint64) (*Machine, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	cfg := srv.Config()
	sku := srv.SKU()
	space, err := tlb.NewAddressSpace(prof.BuildRegions().Regions, cfg.THP, cfg.SHPCount)
	if err != nil {
		return nil, err
	}
	if err := cache.CheckCDP(sku, cfg.CDP.DataWays, cfg.CDP.CodeWays); err != nil {
		return nil, err
	}
	return &Machine{srv: srv, prof: prof, seed: seed, space: space,
		memMod: mem.NewModel(sku), nthreads: WindowThreads(cfg.Cores)}, nil
}

// Server returns the underlying server.
func (m *Machine) Server() *platform.Server { return m.srv }

// Profile returns the workload.
func (m *Machine) Profile() *workload.Profile { return m.prof }

// SetCAT limits the LLC to n ways (the Fig 10 capacity sweep) and
// invalidates the cached characterization.
func (m *Machine) SetCAT(n int) error {
	if err := cache.CheckCAT(m.srv.SKU(), n); err != nil {
		return err
	}
	m.catWays = n
	m.rates = nil
	return nil
}

// Characterize returns the machine's window rates, measuring them if
// neither this machine nor the process-wide characterization cache has
// them yet. The cache key covers every input that reaches the window
// (see charKey), so a hit returns the exact rates a fresh measurement
// would produce; SetCharacterizationCache(false) forces the
// measurement path.
func (m *Machine) Characterize() *WindowRates {
	if m.rates != nil {
		return m.rates
	}
	if CharacterizationCacheEnabled() {
		key := charKey(m.srv.SKU(), m.prof, m.srv.Config(), m.catWays, m.seed)
		m.rates = charcache.getOrMeasure(key, m.measureHalves)
	} else {
		m.rates = m.measure()
	}
	return m.rates
}

// memHalf is a window's memory half: everything the cache hierarchy
// and the prefetchers observe. A window splits into two halves that
// read disjoint inputs and share only the access stream that drives
// them (DESIGN.md §11): the memory half never reads THP or SHP, and
// the TLB half, the TLBs' tlb.Stats, never reads the prefetch mask,
// CDP or CAT.
type memHalf struct {
	cache    cache.LevelStats
	pf       prefetch.Stats
	tally    [4][2]uint64 // [level][0] data loads satisfied at level, [1] stores
	switches uint64
}

// window is the mutable state of one replay of a characterization
// window. Every replay starts from a fresh one, so each half it
// simulates is a function of the machine's inputs alone. A half the
// replay does not simulate is left unbuilt: hier and every thread's pf
// are nil when the memory half is memoized, every thread's tlb when
// the TLB half is.
type window struct {
	m       *Machine
	layout  workload.Layout
	threads []thread

	hier   *cache.Hierarchy
	llcOut cache.LLCOutcomes // the LLC stage's counts of its threads' LLC ops

	pages tlb.Resolver // flattened page resolver for the thread stages' hot loop
}

// thread is one simulated thread's state: its access stream and the
// models private to its core. While a pass runs only the thread's own
// stage touches it (stages.go).
type thread struct {
	stream *workload.Stream
	pf     *prefetch.Engine // defers its LLC fills to llc
	tlb    *tlb.TLB
	llc    cache.LLCLog // LLC ops not yet handed to the LLC stage
	tally  [2][2]uint64 // [L1 or L2][0] data loads satisfied there, [1] stores
}

// newWindow builds cold window state for m's configuration, with only
// the halves a replay simulates.
func (m *Machine) newWindow(simMem, simTLB bool) *window {
	cfg := m.srv.Config()
	sku := m.srv.SKU()
	w := &window{m: m, layout: m.prof.BuildLayout(), threads: make([]thread, m.nthreads)}
	coreScale := float64(cfg.Cores) / float64(m.nthreads)
	for i := range w.threads {
		w.threads[i].stream = workload.NewStream(m.prof, w.layout,
			m.seed+uint64(i)*7919, i, coreScale)
	}
	if simMem {
		// The simulated threads share the full LLC: service data is
		// shared across cores (one heap), so per-core LLC slicing would
		// be wrong. The footprint component that *does* grow with
		// active cores — per-request private state — is instead scaled
		// into each sim thread's private span (workload.NewStream's
		// coreScale).
		w.hier = cache.NewHierarchySized(sku, m.nthreads, sku.LLC*sku.Sockets)
		// NewMachine and SetCAT validated both partitions, so neither
		// Apply can fail here.
		if cfg.CDP.Enabled() {
			must(w.hier.ApplyCDP(cfg.CDP.DataWays, cfg.CDP.CodeWays))
		}
		if m.catWays > 0 {
			must(w.hier.ApplyCAT(m.catWays))
		}
		// Each engine's log is fixed before any stage starts, so no
		// fill of a thread stage can reach the LLC directly.
		for i := range w.threads {
			th := &w.threads[i]
			th.pf = prefetch.NewDeferredEngine(w.hier, i, cfg.Prefetch, &th.llc)
		}
	}
	if simTLB {
		w.pages = m.space.Resolver()
		geom := tlb.Geometry{
			ITLB4K: sku.ITLB4K, ITLB2M: sku.ITLB2M,
			DTLB4K: sku.DTLB4K, DTLB2M: sku.DTLB2M,
			STLB: sku.STLB,
		}
		for i := range w.threads {
			w.threads[i].tlb = tlb.New(geom)
		}
	}
	return w
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// prefill functionally warms the hierarchy with the steady-state
// resident working set. Measurement windows are far too short to warm
// multi-MiB tiers through sampled accesses alone (the classic
// sampled-simulation cold-start problem, cf. the paper's own warm-up
// discard, §4); installing the tiers directly — coldest first, so LRU
// ends up ordered by heat — lets short windows observe steady-state
// hit rates. The subsequent instruction warm-up settles TLBs and LRU.
func (w *window) prefill() {
	m := w.m
	prof := m.prof
	installData := func(c *cache.Cache, lo, hi uint64) {
		workload.ForEachDataLine(prof, w.layout, lo, hi, func(addr uint64) {
			c.InstallWarm(addr, cache.Data)
		})
	}
	installCode := func(c *cache.Cache, pool int, bytes uint64) {
		workload.ForEachCodeLine(prof, w.layout, pool, bytes/64, func(addr uint64) {
			c.InstallWarm(addr, cache.Code)
		})
	}
	cfg := m.srv.Config()
	coreScale := float64(cfg.Cores) / float64(m.nthreads)
	llc := w.hier.LLCs
	llcBytes := uint64(m.srv.SKU().LLC * m.srv.SKU().Sockets)
	capSpan := func(b uint64) uint64 {
		if b > llcBytes {
			return llcBytes
		}
		return b
	}
	// Coldest first: the sequential-stream span (pure churn), then
	// private spans, warm tiers, then mid and hot so they end up
	// most-recently-used.
	if prof.DataSeqFrac > 0 {
		installData(llc, 0, capSpan(prof.SeqSpan))
	}
	for ti := 0; ti < m.nthreads; ti++ {
		base, span := workload.PrivateSpan(prof, ti, coreScale)
		if span > 0 {
			installData(llc, base, base+span)
		}
	}
	installData(llc, 0, prof.DataWarm.Bytes)
	for pool := 0; pool < prof.CodePools; pool++ {
		installCode(llc, pool, prof.CodeWarm.Bytes)
	}
	installData(llc, 0, prof.DataMid.Bytes)
	installData(llc, 0, prof.DataHot.Bytes)
	for ti := 0; ti < m.nthreads; ti++ {
		pool := ti % prof.CodePools
		installCode(llc, pool, prof.CodeMid.Bytes)
		installCode(w.hier.L2s[ti], pool, prof.CodeMid.Bytes)
		installCode(w.hier.L1I[ti], pool, prof.CodeHot.Bytes)
		installData(w.hier.L2s[ti], 0, prof.DataMid.Bytes)
		installData(w.hier.L1D[ti], 0, prof.DataHot.Bytes)
	}
}

// measure runs one whole characterization window with nothing
// memoized: a replay that simulates both halves.
func (m *Machine) measure() *WindowRates {
	mSimWindows.Inc()
	mh, ts := m.replay(true, true)
	return m.compose(&mh, &ts)
}

// replay runs one pass of the characterization window on fresh window
// state — functional prefill, instruction warm-up, stat reset, then a
// measured window per thread, interleaved in chunks so threads
// genuinely contend for the shared LLC — and returns the halves it was
// asked to simulate. The access stream is generated either way; a half
// not simulated skips its models, and the memory half's absence also
// skips the hierarchy build and the prefill.
func (m *Machine) replay(simMem, simTLB bool) (memHalf, tlb.Stats) {
	w := m.newWindow(simMem, simTLB)
	if simMem {
		mSimMemPasses.Inc()
	}
	if simTLB {
		mSimTLBPasses.Inc()
	}
	return w.run(warmupInstr, measureInstr)
}

// run warms the window up for warmup instructions per thread, then
// measures measure more and returns the halves it simulated. The
// window counts in windowsRunning from its prefill to its last pass.
func (w *window) run(warmup, measure int) (memHalf, tlb.Stats) {
	windowsRunning.Add(1)
	defer windowsRunning.Add(-1)
	if w.hier != nil {
		w.prefill()
		ager := rng.New(w.m.seed ^ 0xa6e5)
		w.hier.LLCs.ScrambleAges(ager.Intn)
	}
	w.runWindow(warmup)
	w.resetStats()
	switches := w.runWindow(measure)

	var mh memHalf
	if w.hier != nil {
		mh = memHalf{cache: w.hier.Stats(), switches: switches}
		for _, th := range w.threads {
			mh.pf.Add(th.pf.Stats())
			for lvl, n := range th.tally {
				mh.tally[lvl][0] += n[0]
				mh.tally[lvl][1] += n[1]
			}
		}
		mh.pf.Add(prefetch.LLCStats(&w.llcOut))
		o := &w.llcOut
		mh.tally[cache.LLC] = [2]uint64{o[cache.LLCLoad][1], o[cache.LLCStore][1]}
		mh.tally[cache.Memory] = [2]uint64{o[cache.LLCLoad][0], o[cache.LLCStore][0]}
	}
	var ts tlb.Stats
	for _, th := range w.threads {
		if th.tlb == nil {
			break
		}
		s := th.tlb.Stats()
		ts.Fetches += s.Fetches
		ts.FetchMisses += s.FetchMisses
		ts.Loads += s.Loads
		ts.LoadMisses += s.LoadMisses
		ts.Stores += s.Stores
		ts.StoreMisses += s.StoreMisses
		ts.WalkCycles += s.WalkCycles
	}
	return mh, ts
}

// compose turns a window's two halves into its rates.
func (m *Machine) compose(mh *memHalf, ts *tlb.Stats) *WindowRates {
	instr := uint64(measureInstr) * uint64(m.nthreads)
	r := &WindowRates{
		Instructions: instr,
		CtxSwitches:  mh.switches,
		Cache:        mh.cache,
		TLB:          *ts,
		PF:           mh.pf,
	}

	mix := m.prof.Mix.Normalize()
	c := &r.Counts
	c.Instructions = instr
	c.Branches = uint64(float64(instr) * mix.Branch)
	c.Mispredicts = uint64(float64(c.Branches) * m.prof.BranchMispredict)

	// Accesses satisfied at each level: L1 misses that hit L2, etc.
	cs := r.Cache
	c.CodeL2 = cs.L2.Accesses[cache.Code] - cs.L2.Misses[cache.Code]
	c.CodeLLC = cs.LLC.Accesses[cache.Code] - cs.LLC.Misses[cache.Code]
	c.CodeMem = cs.LLC.Misses[cache.Code]
	c.DataL2 = mh.tally[cache.L2][0]
	c.DataLLC = mh.tally[cache.LLC][0]
	c.DataMem = mh.tally[cache.Memory][0]
	c.StoreL2 = mh.tally[cache.L2][1]
	c.StoreLLC = mh.tally[cache.LLC][1]
	c.StoreMem = mh.tally[cache.Memory][1]

	// Split walk cycles by origin using miss counts.
	iw := r.TLB.FetchMisses
	dw := r.TLB.LoadMisses + r.TLB.StoreMisses
	if iw+dw > 0 {
		c.ITLBWalkCycles = r.TLB.WalkCycles * iw / (iw + dw)
		c.DTLBWalkCycles = r.TLB.WalkCycles - c.ITLBWalkCycles
	}

	// SHP over-reservation pressure: wasted MiB become cold misses.
	wasted := float64(m.space.WastedSHPMiB())
	extra := uint64(float64(instr) * wasted * shpPressureMissPerMiB)
	c.DataMem += extra

	r.DemandMemPerInstr = float64(cs.LLC.TotalMisses()+extra) / float64(instr)
	r.PrefetchMemPerInstr = float64(r.PF.FromMemory) / float64(instr)

	return r
}

func (w *window) resetStats() {
	w.llcOut = cache.LLCOutcomes{}
	if w.hier != nil {
		w.hier.ResetStats()
	}
	for i := range w.threads {
		th := &w.threads[i]
		th.tally = [2][2]uint64{}
		if th.pf != nil {
			th.pf.ResetStats()
		}
		if th.tlb != nil {
			th.tlb.ResetStats()
		}
	}
}

// Operating is the steady-state operating point of the machine at a
// given CPU utilization: the quantities EMON-style sampling observes.
type Operating struct {
	Util float64

	IPC      float64 // per hardware thread
	SMTBoost float64
	CoreIPS  float64 // per core, SMT-boosted, at effective frequency
	TotalIPS float64 // machine-wide, utilization-scaled
	MIPS     float64 // TotalIPS / 1e6 — µSKU's throughput metric
	QPS      float64 // TotalIPS / path length

	EffCoreMHz   float64
	MemBWGBs     float64 // achieved DRAM bandwidth
	MemLatencyNS float64 // average loaded memory latency
	Watts        float64 // estimated platform power (§7 extension)
	MIPSPerWatt  float64 // energy efficiency of the operating point
	TopDown      cpu.TopDown

	Rates *WindowRates
}

// Solve finds the operating point at the given utilization by solving
// the bandwidth↔latency fixed point: memory latency depends on
// bandwidth, which depends on achieved IPS, which depends on memory
// latency. Saturation-bound services (Web on Broadwell) settle where
// the latency curve's knee caps throughput — the mechanism behind
// Figs 16(b) and 17. util is clamped to (0, 1]: 1e-3 at or below 0,
// 1 above it.
func (m *Machine) Solve(util float64) Operating {
	return solveRates(m.srv.SKU(), m.prof, m.srv.Config(), m.memMod, m.Characterize(), util)
}

// SolveRates computes the operating point implied by explicit window
// rates for a SKU/profile/config triple at the given utilization. It is
// the exact algebra Machine.Solve runs on its own characterization —
// extracted so the analytical twin (internal/twin) can price *predicted*
// rates through the identical cycle-accounting and queueing fixed
// point: any twin-vs-simulator divergence then comes from the predicted
// counts alone, never from a drifting copy of this model.
func SolveRates(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, r *WindowRates, util float64) Operating {
	return solveRates(sku, prof, cfg, mem.NewModel(sku), r, util)
}

func solveRates(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, memMod *mem.Model, r *WindowRates, util float64) Operating {
	if util <= 0 {
		util = 1e-3
	}
	if util > 1 {
		util = 1
	}
	effMHz := sku.EffectiveCoreMHz(cfg, prof.AVXFrac())
	uncore := sku.UncoreScale(cfg)
	ghz := float64(effMHz) / 1000
	cores := float64(cfg.Cores)

	counts := r.Counts
	counts.CtxSwitchCycles = uint64(float64(r.CtxSwitches) * ctxSwitchCostSec * float64(effMHz) * 1e6)
	// Only memory latency moves with the bisection variable, so the rest
	// of the cycle model is folded once (cpu.Prepared).
	model := cpu.Prepare(counts, cpu.Params{
		Width:         sku.DispatchWidth,
		L2LatCycles:   sku.L2LatencyNS * ghz,
		LLCLatCycles:  sku.LLCLatencyNS * (0.45 + 0.55*uncore) * ghz,
		MispredictPen: 15,
		DepStallCPI:   prof.DepStallCPI,
		BEOverlap:     prof.BEOverlap,
		SMT:           sku.SMT > 1,
	})

	linesPerInstr := r.DemandMemPerInstr + r.PrefetchMemPerInstr
	// memLatCycles prices memory latency at the bandwidth ips·lines·64
	// implies; machineIPS is the machine-wide rate a core throughput
	// delivers at this utilization.
	memLatCycles := func(ips float64) float64 {
		bw := ips * linesPerInstr * 64 / 1e9
		return memMod.LatencyNS(bw, prof.Burstiness, uncore) * ghz
	}
	machineIPS := func(t cpu.Throughput) float64 {
		return t.CoreIPS(effMHz) * cores * util
	}
	// The IPS the cycle model achieves when priced at a candidate x,
	// machineIPS(model.Price(memLatCycles(x))), is monotone
	// non-increasing in x, so its fixed point is unique; bisection is
	// robust even on the steep saturated part of the latency curve
	// where plain iteration oscillates. Once a step leaves both lo and
	// hi unchanged (bit for bit), every later step repeats it, so the
	// loop stops there with the result all 60 steps would give.
	lo := 0.0
	hi := float64(sku.DispatchWidth) * 1.4 * float64(effMHz) * 1e6 * cores
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if machineIPS(model.Price(memLatCycles(mid))) > mid {
			if math.Float64bits(mid) == math.Float64bits(lo) {
				break
			}
			lo = mid
		} else {
			if math.Float64bits(mid) == math.Float64bits(hi) {
				break
			}
			hi = mid
		}
	}
	res := model.Result(memLatCycles((lo + hi) / 2))
	totalIPS := machineIPS(res.Throughput)
	bw := totalIPS * linesPerInstr * 64 / 1e9
	latNS := memMod.LatencyNS(bw, prof.Burstiness, uncore)
	watts := sku.PowerWatts(cfg, effMHz, util, memMod.AchievedGBs(bw))
	return Operating{
		Util:         util,
		IPC:          res.IPC,
		SMTBoost:     res.SMTBoost,
		CoreIPS:      res.CoreIPS(effMHz),
		TotalIPS:     totalIPS,
		MIPS:         totalIPS / 1e6,
		QPS:          totalIPS / prof.PathLength,
		EffCoreMHz:   float64(effMHz),
		MemBWGBs:     memMod.AchievedGBs(bw),
		MemLatencyNS: latNS,
		Watts:        watts,
		MIPSPerWatt:  totalIPS / 1e6 / watts,
		TopDown:      res.TopDown,
		Rates:        r,
	}
}

// WindowInstructions returns the instruction count one characterization
// window measures on a machine with the given active core count — the
// denominator the analytical twin's predicted counts must share with
// measure() for per-instruction rates to line up.
func WindowInstructions(cores int) uint64 {
	n := simThreads
	if cores < n {
		n = cores
	}
	return uint64(measureInstr) * uint64(n)
}

// WindowThreads returns the number of representative worker threads a
// characterization window runs for the given active core count.
func WindowThreads(cores int) int {
	n := simThreads
	if cores < n {
		n = cores
	}
	return n
}

// PredictCtxSwitches returns, without running it, the number of
// context switches one measurement window at this core frequency and
// per-core switch rate injects: the same chunk arithmetic runWindow
// uses (chunkSwitches), so it is exact, including the interval
// clamping and chunk quantization.
func PredictCtxSwitches(cores int, coreFreqMHz int, ratePerSec float64) uint64 {
	interval := ctxSwitchInterval(coreFreqMHz, ratePerSec)
	return uint64(WindowThreads(cores)) * chunkSwitches(measureInstr, interval)
}

// SHPPressureMissPerMiB exposes the reserved-but-unused SHP memory
// pressure constant so the analytical twin charges over-reservation
// identically to measure().
const SHPPressureMissPerMiB = shpPressureMissPerMiB

// SolvePeak returns the operating point at the service's QoS-derived
// utilization ceiling (Fig 3's peak load).
func (m *Machine) SolvePeak() Operating { return m.Solve(m.prof.MaxCPUUtil) }

// MPKI helpers over the characterization window.

// CacheMPKI returns code and data MPKI at the given level.
func (r *WindowRates) CacheMPKI(level cache.Level) (code, data float64) {
	var s cache.Stats
	switch level {
	case cache.L1:
		// L1I and L1D are reported jointly: code from L1I, data from L1D.
		return r.Cache.L1I.MPKI(cache.Code, r.Instructions),
			r.Cache.L1D.MPKI(cache.Data, r.Instructions)
	case cache.L2:
		s = r.Cache.L2
	case cache.LLC:
		s = r.Cache.LLC
	default:
		return 0, 0
	}
	return s.MPKI(cache.Code, r.Instructions), s.MPKI(cache.Data, r.Instructions)
}

// TLBMPKI returns ITLB, DTLB-load, and DTLB-store MPKI.
func (r *WindowRates) TLBMPKI() (itlb, dload, dstore float64) {
	return r.TLB.MPKI(tlb.Fetch, r.Instructions),
		r.TLB.MPKI(tlb.Load, r.Instructions),
		r.TLB.MPKI(tlb.Store, r.Instructions)
}

// String summarizes the operating point.
func (o Operating) String() string {
	return fmt.Sprintf("util=%.0f%% IPC=%.2f MIPS=%.0f QPS=%.0f bw=%.1fGB/s lat=%.0fns",
		o.Util*100, o.IPC, o.MIPS, o.QPS, o.MemBWGBs, o.MemLatencyNS)
}
