package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"testing"

	"softsku/internal/cpu"
	"softsku/internal/knob"
	"softsku/internal/loadgen"
	"softsku/internal/mem"
	"softsku/internal/platform"
	"softsku/internal/rng"
	"softsku/internal/workload"
)

// refSolveRates is the operating-point solver as it stood before the
// cycle model was split at memory latency: a fixed 60-step bisection
// that rebuilds cpu.Params and runs all of cpu.Analyze at every step.
// It is the oracle solveRates must match bit for bit. live counts the
// steps before the first one that left both lo and hi unchanged (60 if
// none did); every step after that one repeats it exactly.
func refSolveRates(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, memMod *mem.Model, r *WindowRates, util float64) (op Operating, live int) {
	if util <= 0 {
		util = 1e-3
	}
	if util > 1 {
		util = 1
	}
	effMHz := sku.EffectiveCoreMHz(cfg, prof.AVXFrac())
	uncore := sku.UncoreScale(cfg)
	ghz := float64(effMHz) / 1000

	counts := r.Counts
	counts.CtxSwitchCycles = uint64(float64(r.CtxSwitches) * ctxSwitchCostSec * float64(effMHz) * 1e6)

	linesPerInstr := r.DemandMemPerInstr + r.PrefetchMemPerInstr
	var res cpu.Result
	var latNS float64
	achieved := func(ips float64) float64 {
		bw := ips * linesPerInstr * 64 / 1e9
		latNS = memMod.LatencyNS(bw, prof.Burstiness, uncore)
		p := cpu.Params{
			Width:         sku.DispatchWidth,
			L2LatCycles:   sku.L2LatencyNS * ghz,
			LLCLatCycles:  sku.LLCLatencyNS * (0.45 + 0.55*uncore) * ghz,
			MemLatCycles:  latNS * ghz,
			MispredictPen: 15,
			DepStallCPI:   prof.DepStallCPI,
			BEOverlap:     prof.BEOverlap,
			SMT:           sku.SMT > 1,
		}
		res = cpu.Analyze(counts, p)
		return res.CoreIPS(effMHz) * float64(cfg.Cores) * util
	}
	lo := 0.0
	hi := float64(sku.DispatchWidth) * 1.4 * float64(effMHz) * 1e6 * float64(cfg.Cores)
	live = -1
	for i := 0; i < 60; i++ {
		plo, phi := lo, hi
		mid := (lo + hi) / 2
		if achieved(mid) > mid {
			lo = mid
		} else {
			hi = mid
		}
		if live < 0 && math.Float64bits(lo) == math.Float64bits(plo) && math.Float64bits(hi) == math.Float64bits(phi) {
			live = i
		}
	}
	if live < 0 {
		live = 60
	}
	totalIPS := achieved((lo + hi) / 2)
	bw := totalIPS * linesPerInstr * 64 / 1e9
	latNS = memMod.LatencyNS(bw, prof.Burstiness, uncore)
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
	}, live
}

// operatingBits appends the bits of every float64 field of an
// Operating (TopDown's included) in field order. Rates is passed
// through by the solver, so callers compare the pointer itself. Go
// leaves the sign and payload of a NaN to the hardware and the order
// the compiler picks for commutative operands, so every NaN maps to
// one value.
func operatingBits(dst []uint64, v reflect.Value) []uint64 {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			v := f.Float()
			if math.IsNaN(v) {
				v = math.NaN()
			}
			dst = append(dst, math.Float64bits(v))
		case reflect.Struct:
			dst = operatingBits(dst, f)
		case reflect.Pointer:
		default:
			panic("operatingBits: unhandled field " + v.Type().Field(i).Name)
		}
	}
	return dst
}

func sameOperating(a, b Operating) bool {
	return a.Rates == b.Rates &&
		slices.Equal(operatingBits(nil, reflect.ValueOf(a)), operatingBits(nil, reflect.ValueOf(b)))
}

// syntheticRates builds window rates with every count populated, at
// linesPerInstr DRAM lines per instruction. 90% of the lines are
// prefetch fills, which cost bandwidth but stall nothing, so heavy
// traffic drives the fixed point onto the saturated end of the latency
// curve. k varies the mix so no two services price the same counts.
func syntheticRates(k int, linesPerInstr float64) *WindowRates {
	const instr = 3_200_000
	n := uint64(k + 1)
	c := cpu.Counts{
		Instructions: instr,
		Branches:     instr / 6,
		Mispredicts:  instr/400 + 997*n,
		CodeL2:       40_000 + 9_001*n,
		CodeLLC:      6_000 + 1_303*n,
		CodeMem:      uint64(float64(instr) * linesPerInstr * 0.01),
		DataL2:       55_000 + 7_919*n,
		DataLLC:      18_000 + 2_477*n,
		DataMem:      uint64(float64(instr) * linesPerInstr * 0.06),
		StoreL2:      9_000 + 613*n,
		StoreLLC:     2_500 + 211*n,
		StoreMem:     1_000 + 101*n,

		ITLBWalkCycles: 400_000 + 31_337*n,
		DTLBWalkCycles: 900_000 + 52_711*n,
	}
	return &WindowRates{
		Instructions:        instr,
		Counts:              c,
		DemandMemPerInstr:   linesPerInstr * 0.1,
		PrefetchMemPerInstr: linesPerInstr * 0.9,
		CtxSwitches:         uint64(24 * k),
	}
}

// goldenSolveDigest is the SHA-256 over every Operating that
// TestSolveGoldenDigest solves. It was recorded from the 60-step
// solver refSolveRates copies; update it only for a deliberate change
// to the cycle model or the fixed point, and say which in the commit.
const goldenSolveDigest = "f6240d478396b5b5b660e3674a5ddf28993614397744cb3ce0f7711f0c888b45"

// TestSolveGoldenDigest pins the operating-point solver bit for bit:
// the seven services on all three SKUs at production configuration,
// on synthetic window rates from idle memory traffic to well past
// saturation, at utilizations below, inside and above (0, 1].
func TestSolveGoldenDigest(t *testing.T) {
	utils := []float64{-1, 0, 1e-3, 0.37, 0.8, 1, 5}
	h := sha256.New()
	saturated := 0
	var buf [8]byte
	for _, sku := range platform.FleetSKUs() {
		memMod := mem.NewModel(sku)
		for k, base := range workload.All() {
			prof := workload.ForPlatform(base, sku.Name)
			cfg := ProductionConfig(sku, prof)
			for _, lines := range []float64{0, 2e-3, 0.02, 0.3} {
				r := syntheticRates(k, lines)
				for _, util := range utils {
					op := solveRates(sku, prof, cfg, memMod, r, util)
					if memMod.Utilization(op.MemBWGBs, prof.Burstiness) == memMod.Utilization(math.Inf(1), 0) {
						saturated++
					}
					for _, b := range operatingBits(nil, reflect.ValueOf(op)) {
						binary.LittleEndian.PutUint64(buf[:], b)
						h.Write(buf[:])
					}
				}
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no case saturates memory bandwidth")
	}
	t.Logf("%d cases saturate memory bandwidth", saturated)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSolveDigest {
		t.Fatalf("solve digest %s, want %s", got, goldenSolveDigest)
	}
}

// FuzzSolveMatchesReference holds solveRates to refSolveRates bit for
// bit over arbitrary counts, DRAM traffic, utilization, SKU, service,
// core count and core/uncore frequency. counts is read as up to 15
// little-endian uint32s: the cpu.Counts fields in declaration order
// after Instructions, then the context-switch count.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(35), uint8(0), uint8(0), uint32(3_200_000), []byte{}, 0.0, 0.0, 0.5)
	f.Add(uint8(1), uint8(3), uint8(39), uint8(9), uint8(4), uint32(2_400_000),
		[]byte{0x40, 0x0d, 3, 0, 0x10, 0x27, 0, 0, 0xff, 0xff, 1, 0}, 0.012, 0.004, 0.8)
	f.Add(uint8(2), uint8(6), uint8(15), uint8(3), uint8(2), uint32(800_000),
		[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.2, 0.1, 1.0)
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint32(1), []byte{0xff, 0xff, 0xff, 0xff}, 5.0, 5.0, 5.0)
	f.Add(uint8(1), uint8(2), uint8(7), uint8(1), uint8(1), uint32(0), []byte{}, 0.01, 0.0, 0.37)
	f.Add(uint8(2), uint8(4), uint8(12), uint8(200), uint8(200), uint32(123_456), []byte{9, 9, 9, 9}, -1.0, 0.5, -2.0)
	f.Add(uint8(0), uint8(5), uint8(17), uint8(7), uint8(7), uint32(3_200_000), []byte{0, 0, 0, 1}, math.NaN(), 0.0, math.NaN())
	f.Add(uint8(1), uint8(0), uint8(19), uint8(0), uint8(0), uint32(3_200_000), []byte{}, math.Inf(1), 0.0, 1e-9)
	f.Fuzz(func(t *testing.T, skuIdx, svcIdx, cores, freq, uncore uint8, instr uint32, counts []byte, demand, prefetch, util float64) {
		skus := platform.FleetSKUs()
		sku := skus[int(skuIdx)%len(skus)]
		svcs := workload.All()
		prof := workload.ForPlatform(svcs[int(svcIdx)%len(svcs)], sku.Name)
		cfg := ProductionConfig(sku, prof)
		cfg.Cores = int(cores) % (sku.Cores() + 1)
		cfg.CoreFreqMHz = min(sku.MinCoreMHz+100*int(freq), sku.MaxCoreMHz)
		cfg.UncoreFreqMHz = min(sku.MinUncoreMHz+100*int(uncore), sku.MaxUncoreMHz)

		var vals [15]uint64
		for i := range vals {
			var b [4]byte
			if 4*i < len(counts) {
				copy(b[:], counts[4*i:])
			}
			vals[i] = uint64(binary.LittleEndian.Uint32(b[:]))
		}
		r := &WindowRates{
			Instructions: uint64(instr),
			Counts: cpu.Counts{
				Instructions: uint64(instr),
				Branches:     vals[0], Mispredicts: vals[1],
				CodeL2: vals[2], CodeLLC: vals[3], CodeMem: vals[4],
				DataL2: vals[5], DataLLC: vals[6], DataMem: vals[7],
				StoreL2: vals[8], StoreLLC: vals[9], StoreMem: vals[10],
				ITLBWalkCycles: vals[11], DTLBWalkCycles: vals[12],
				CtxSwitchCycles: vals[13],
			},
			DemandMemPerInstr:   demand,
			PrefetchMemPerInstr: prefetch,
			CtxSwitches:         vals[14],
		}
		memMod := mem.NewModel(sku)
		want, _ := refSolveRates(sku, prof, cfg, memMod, r, util)
		if got := solveRates(sku, prof, cfg, memMod, r, util); !sameOperating(got, want) {
			t.Fatalf("solveRates diverges from the reference:\n got  %#v\n want %#v", got, want)
		}
	})
}

// TestSolveLiveSteps measures how many of the bisection's 60 steps
// move lo or hi on the sampling traffic of the default fleet soak: the
// seven services on their home platforms plus Web on Broadwell16 (the
// pools of DefaultFleetSpec), each at production configuration, at the
// utilization emon samples under the diurnal load (MaxCPUUtil times the
// load factor, sampled every 0.5 s in one 100-sample trial per hour of
// the day). Every solve must also match the reference bit for bit.
func TestSolveLiveSteps(t *testing.T) {
	type pool struct{ svc, plat string }
	var pools []pool
	for _, p := range workload.All() {
		pools = append(pools, pool{p.Name, p.Platform})
	}
	pools = append(pools, pool{"Web", "Broadwell16"})

	var hist [61]int
	n, sum := 0, 0
	for _, p := range pools {
		m := machineFor(t, p.svc, p.plat, nil)
		r := m.Characterize()
		sku, cfg := m.srv.SKU(), m.srv.Config()
		load := loadgen.NewDiurnal(rng.Derive(42, "load/"+p.svc+"/"+p.plat))
		for hour := 0; hour < 24; hour++ {
			for i := 0; i < 100; i++ {
				util := m.prof.MaxCPUUtil * load.Factor(float64(hour)*3600+0.5*float64(i))
				want, live := refSolveRates(sku, m.prof, cfg, m.memMod, r, util)
				if got := solveRates(sku, m.prof, cfg, m.memMod, r, util); !sameOperating(got, want) {
					t.Fatalf("%s/%s util %g: solveRates diverges from the reference", p.svc, p.plat, util)
				}
				hist[live]++
				n++
				sum += live
			}
		}
	}
	lo, hi, median := -1, 0, -1
	seen := 0
	for s, c := range hist {
		if c == 0 {
			continue
		}
		if lo < 0 {
			lo = s
		}
		hi = s
		if seen += c; median < 0 && 2*seen >= n {
			median = s
		}
	}
	t.Logf("live bisection steps over %d solves: min %d, median %d, mean %.2f, max %d", n, lo, median, float64(sum)/float64(n), hi)
	for s, c := range hist {
		if c > 0 {
			t.Logf("  %2d live steps: %5d solves", s, c)
		}
	}
}

// BenchmarkSolveRates times one operating-point solve, the core of an
// EMON sample, on synthetic Web/Skylake18 rates at 80% utilization.
func BenchmarkSolveRates(b *testing.B) {
	sku := platform.Skylake18()
	prof := workload.ForPlatform(workload.Web(), sku.Name)
	cfg := ProductionConfig(sku, prof)
	memMod := mem.NewModel(sku)
	r := syntheticRates(0, 0.02)
	for b.Loop() {
		solveRates(sku, prof, cfg, memMod, r, 0.8)
	}
}
