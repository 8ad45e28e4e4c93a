package sim

import (
	"fmt"

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

// Colocation implements the §7 future-work direction: when two
// microservices share a machine, their working sets contend in the
// shared LLC and memory system. CoMachine runs threads of two services
// against one hierarchy and reports each side's slowdown relative to
// running alone — the affinity signal a µSKU-aware scheduler would
// consume.

// CoResult is one co-location measurement.
type CoResult struct {
	A, B string // service names

	SoloIPCA, SoloIPCB     float64
	SharedIPCA, SharedIPCB float64

	// SlowdownX = SoloIPC / SharedIPC (>= ~1; higher is worse).
	SlowdownA, SlowdownB float64
}

// String summarizes the pairing.
func (r CoResult) String() string {
	return fmt.Sprintf("%s+%s: %s slows %.2fx, %s slows %.2fx",
		r.A, r.B, r.A, r.SlowdownA, r.B, r.SlowdownB)
}

// coThread bundles one colocated thread's per-service state.
type coThread struct {
	prof     *workload.Profile
	stream   *workload.Stream
	space    *tlb.AddressSpace
	tlb      *tlb.TLB
	pf       *prefetch.Engine
	instr    uint64
	codeHits [4]uint64 // accesses satisfied per level (code)
	dataHits [4]uint64 // accesses satisfied per level (data)
}

// Colocate measures mutual interference between two services sharing a
// server of the given SKU. Each service contributes two simulated
// threads; the solo baseline runs the same threads with an idle
// neighbour on identical machinery, so solo and shared measurements
// differ only in the neighbour's presence.
func Colocate(sku *platform.SKU, profA, profB *workload.Profile, seed uint64) (CoResult, error) {
	const threadsEach = 2
	res := CoResult{A: profA.Name, B: profB.Name}

	soloA, _, err := sharedIPC(sku, profA, nil, threadsEach, seed)
	if err != nil {
		return res, err
	}
	soloB, _, err := sharedIPC(sku, profB, nil, threadsEach, seed)
	if err != nil {
		return res, err
	}
	res.SoloIPCA, res.SoloIPCB = soloA, soloB

	res.SharedIPCA, res.SharedIPCB, err = sharedIPC(sku, profA, profB, threadsEach, seed)
	if err != nil {
		return res, err
	}
	res.SlowdownA = res.SoloIPCA / res.SharedIPCA
	res.SlowdownB = res.SoloIPCB / res.SharedIPCB
	return res, nil
}

// sharedIPC runs threadsEach threads of each profile against one
// shared hierarchy and returns per-service IPC. A nil profB leaves the
// neighbour slots idle (the solo baseline).
func sharedIPC(sku *platform.SKU, profA, profB *workload.Profile, threadsEach int, seed uint64) (float64, float64, error) {
	sides := []*workload.Profile{profA}
	if profB != nil {
		sides = append(sides, profB)
	}
	hier := cache.NewHierarchySized(sku, 2*threadsEach, sku.LLC*sku.Sockets)
	geom := tlb.Geometry{
		ITLB4K: sku.ITLB4K, ITLB2M: sku.ITLB2M,
		DTLB4K: sku.DTLB4K, DTLB2M: sku.DTLB2M, STLB: sku.STLB,
	}
	var threads []*coThread
	var layouts []workload.Layout
	for i, prof := range sides {
		layout := prof.BuildLayout()
		// Disjoint address spaces: shift the second service's regions
		// into their own half of the virtual space.
		if i == 1 {
			for r := range layout.Regions {
				layout.Regions[r].Base |= 1 << 50
			}
		}
		space, err := tlb.NewAddressSpace(layout.Regions, knob.THPMadvise, 0)
		if err != nil {
			return 0, 0, err
		}
		layouts = append(layouts, layout)
		coreScale := float64(sku.Cores()) / float64(2*threadsEach)
		for ti := 0; ti < threadsEach; ti++ {
			core := i*threadsEach + ti
			threads = append(threads, &coThread{
				prof:   prof,
				stream: workload.NewStream(prof, layout, seed+uint64(core)*7919, ti, coreScale),
				space:  space,
				tlb:    tlb.New(geom),
				pf:     prefetch.NewEngine(hier, core, sku.StockPrefetchers),
			})
		}
	}

	// Functional warm-up (as in Machine.Characterize): install each
	// service's steady-state resident set. Classes are installed in
	// coldest-first order, alternating services within each class so
	// neither side's lines are preferentially evicted; age scrambling
	// then sets the steady-state age distribution.
	llc := hier.LLCs
	profs := sides
	installData := func(side int, c *cache.Cache, lo, hi uint64) {
		workload.ForEachDataLine(profs[side], layouts[side], lo, hi, func(addr uint64) {
			c.InstallWarm(addr, cache.Data)
		})
	}
	installCode := func(side int, c *cache.Cache, pool int, bytes uint64) {
		workload.ForEachCodeLine(profs[side], layouts[side], pool, bytes/64, func(addr uint64) {
			c.InstallWarm(addr, cache.Code)
		})
	}
	coreScale := float64(sku.Cores()) / float64(2*threadsEach)
	for side := range profs {
		if p := profs[side]; p.DataSeqFrac > 0 {
			span := p.SeqSpan
			if lim := uint64(sku.LLC * sku.Sockets / 2); span > lim {
				span = lim
			}
			installData(side, llc, 0, span)
		}
	}
	for side, p := range profs {
		for ti := 0; ti < threadsEach; ti++ {
			base, span := workload.PrivateSpan(p, ti, coreScale)
			if span > 0 {
				installData(side, llc, base, base+span)
			}
		}
	}
	for side, p := range profs {
		installData(side, llc, 0, p.DataWarm.Bytes)
	}
	for side, p := range profs {
		for pool := 0; pool < p.CodePools; pool++ {
			installCode(side, llc, pool, p.CodeWarm.Bytes)
		}
	}
	for side, p := range profs {
		installData(side, llc, 0, p.DataMid.Bytes)
		installData(side, llc, 0, p.DataHot.Bytes)
		for ti := 0; ti < threadsEach; ti++ {
			core := side*threadsEach + ti
			pool := ti % p.CodePools
			installCode(side, llc, pool, p.CodeMid.Bytes)
			installCode(side, hier.L2s[core], pool, p.CodeMid.Bytes)
			installCode(side, hier.L1I[core], pool, p.CodeHot.Bytes)
			installData(side, hier.L2s[core], 0, p.DataMid.Bytes)
			installData(side, hier.L1D[core], 0, p.DataHot.Bytes)
		}
	}
	ager := rng.New(seed ^ 0xc010)
	llc.ScrambleAges(ager.Intn)

	const instrPerThread = 300_000
	runPhase := func(count bool) {
		buf := make([]workload.Access, 0, windowChunk*2)
		for done := 0; done < instrPerThread; done += windowChunk {
			for core, th := range threads {
				buf = th.stream.Generate(buf[:0], windowChunk)
				for idx := range buf {
					a := &buf[idx]
					lvl := hier.Access(core, a.Addr, a.Kind)
					page, huge := th.space.PageOf(int(a.Region), a.Addr)
					th.tlb.Access(page, huge, a.Type)
					th.pf.OnAccess(a.Addr, a.Kind, a.IP, lvl)
					if count {
						if a.Kind == cache.Code {
							th.codeHits[lvl]++
						} else {
							th.dataHits[lvl]++
						}
					}
				}
				if count {
					th.instr += windowChunk
				}
			}
		}
	}
	runPhase(false) // warm-up
	for _, th := range threads {
		th.tlb.ResetStats()
	}
	hier.ResetStats()
	runPhase(true)

	ipcOf := func(lo, hi int) float64 {
		// Aggregate counts for one service's threads and price them
		// with the shared memory system at nominal conditions.
		prof := threads[lo].prof
		memModel := mem.NewModel(sku)
		var instr uint64
		var code, data [4]uint64
		var walks uint64
		for _, th := range threads[lo:hi] {
			instr += th.instr
			for l := 0; l < 4; l++ {
				code[l] += th.codeHits[l]
				data[l] += th.dataHits[l]
			}
			walks += th.tlb.Stats().WalkCycles
		}
		return priceIPC(sku, prof, instr, code, data, walks, memModel)
	}
	a := ipcOf(0, threadsEach)
	b := 0.0
	if profB != nil {
		b = ipcOf(threadsEach, 2*threadsEach)
	}
	return a, b, nil
}

// priceIPC converts level-hit tallies into IPC with the same cycle
// model the solo path uses. Colocation pricing holds memory latency at
// a moderate-load point: the interference signal of interest here is
// shared-LLC contention; bandwidth coupling is already captured by the
// solo operating points.
func priceIPC(sku *platform.SKU, prof *workload.Profile, instr uint64,
	code, data [4]uint64, walks uint64, memModel *mem.Model) float64 {
	if instr == 0 {
		return 0
	}
	mix := prof.Mix.Normalize()
	var counts cpu.Counts
	counts.Instructions = instr
	counts.Branches = uint64(float64(instr) * mix.Branch)
	counts.Mispredicts = uint64(float64(counts.Branches) * prof.BranchMispredict)
	counts.CodeL2 = code[cache.L2]
	counts.CodeLLC = code[cache.LLC]
	counts.CodeMem = code[cache.Memory]
	counts.DataL2 = data[cache.L2]
	counts.DataLLC = data[cache.LLC]
	counts.DataMem = data[cache.Memory]
	counts.DTLBWalkCycles = walks

	ghz := float64(sku.EffectiveCoreMHz(sku.StockConfig(), prof.AVXFrac())) / 1000
	latNS := memModel.LatencyNS(0.3*sku.MemPeakGBs, prof.Burstiness, 1)
	res := cpu.Analyze(counts, cpu.Params{
		Width:         sku.DispatchWidth,
		L2LatCycles:   sku.L2LatencyNS * ghz,
		LLCLatCycles:  sku.LLCLatencyNS * ghz,
		MemLatCycles:  latNS * ghz,
		MispredictPen: 15,
		DepStallCPI:   prof.DepStallCPI,
		BEOverlap:     prof.BEOverlap,
		SMT:           sku.SMT > 1,
	})
	return res.IPC
}
