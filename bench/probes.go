package main

import (
	"fmt"
	"runtime"
	"time"

	"softsku/internal/abtest"
	"softsku/internal/cache"
	"softsku/internal/chaos"
	"softsku/internal/core"
	"softsku/internal/decision"
	"softsku/internal/emon"
	"softsku/internal/fleet"
	"softsku/internal/fleet/controller"
	"softsku/internal/knob"
	"softsku/internal/loadgen"
	"softsku/internal/platform"
	"softsku/internal/prefetch"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
	"softsku/internal/tlb"
	"softsku/internal/twin"
	"softsku/internal/workload"
)

// probeEnv times single layers from outside, through each package's
// public functions, on Web/Skylake18 at its production configuration.
type probeEnv struct {
	sku      *platform.SKU
	prof     *workload.Profile
	cfg      knob.Config
	seed     uint64
	workers  int
	batches  int           // median of this many batches
	minBatch time.Duration // each batch repeats the call at least this long
}

func newProbeEnv(o options) (*probeEnv, error) {
	sku, err := platform.ByName("Skylake18")
	if err != nil {
		return nil, err
	}
	base, err := workload.ByName("Web")
	if err != nil {
		return nil, err
	}
	prof := workload.ForPlatform(base, sku.Name)
	e := &probeEnv{sku: sku, prof: prof, cfg: sim.ProductionConfig(sku, prof),
		seed: o.seedOr(1), workers: o.workers, batches: 5, minBatch: 200 * time.Millisecond}
	if o.smoke {
		e.batches, e.minBatch = 1, time.Millisecond
	}
	return e, nil
}

// runProbes fills v with every probe's metric, each probe under its
// own bench.probe/<layer> span.
func runProbes(e *probeEnv, root *telemetry.Span, v map[string]float64) error {
	// Start from an empty simcache so that "warm" means warmed here.
	sim.ResetCharacterizationCache()
	probes := []struct {
		layer string
		run   func(map[string]float64) error
	}{
		{"sim.window", e.window}, // before sim.replay, which subtracts from it
		{"sim.replay", e.replay},
		{"sim.machine_build", e.build},
		{"sim.solve", e.solve},
		{"sim.findpeak", e.findPeak},
		{"emon", e.emonSample},
		{"abtest", e.abtestPair},
		{"twin", e.twin},
		{"decision", e.record},
		{"core.retune", e.retune},
		{"fleet.rollout", e.rollout},
	}
	for _, p := range probes {
		sp := root.StartChild("bench.probe/"+p.layer, "bench")
		err := p.run(v)
		sp.End()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.layer, err)
		}
	}
	return nil
}

// timeOp returns the median over e.batches batches of the host seconds
// and bytes allocated per call of fn.
func (e *probeEnv) timeOp(fn func() error) (sec, bytes float64, err error) {
	secs := make([]float64, e.batches)
	allocs := make([]float64, e.batches)
	var m0, m1 runtime.MemStats
	for b := range secs {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n := 0
		for time.Since(t0) < e.minBatch || n == 0 {
			if err := fn(); err != nil {
				return 0, 0, err
			}
			n++
		}
		secs[b] = time.Since(t0).Seconds() / float64(n)
		runtime.ReadMemStats(&m1)
		allocs[b] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	return median(secs), median(allocs), nil
}

// characterized builds a production machine and characterizes it,
// from the simcache when it holds the window.
func (e *probeEnv) characterized() (*sim.Machine, error) {
	return characterized(e.sku, e.prof, e.cfg, e.seed)
}

// characterized builds a machine at cfg and characterizes it, from the
// simcache when it holds the window.
func characterized(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, seed uint64) (*sim.Machine, error) {
	srv, err := platform.NewServer(sku, cfg)
	if err != nil {
		return nil, err
	}
	m, err := sim.NewMachine(srv, prof, seed)
	if err != nil {
		return nil, err
	}
	m.Characterize()
	return m, nil
}

// window times one fresh characterization window: machine build,
// prefill, warm-up and measured window, with the simcache bypassed.
func (e *probeEnv) window(v map[string]float64) error {
	prev := sim.SetCharacterizationCache(false)
	defer sim.SetCharacterizationCache(prev)
	sec, _, err := e.timeOp(func() error {
		_, err := e.characterized()
		return err
	})
	v["sim.window_ms"] = sec * 1e3
	return err
}

// build times a machine build whose window the simcache already holds,
// as every trial server and controller re-tune builds them.
func (e *probeEnv) build(v map[string]float64) error {
	if _, err := e.characterized(); err != nil {
		return err
	}
	sec, b, err := e.timeOp(func() error {
		_, err := e.characterized()
		return err
	})
	v["sim.machine_build_ms"] = sec * 1e3
	v["sim.machine_build_mb"] = b / 1e6
	return err
}

func (e *probeEnv) solve(v map[string]float64) error {
	m, err := e.characterized()
	if err != nil {
		return err
	}
	r := m.Characterize()
	sec, _, err := e.timeOp(func() error {
		sim.SolveRates(e.sku, e.prof, e.cfg, r, e.prof.MaxCPUUtil)
		return nil
	})
	v["sim.solve_us"] = sec * 1e6
	return err
}

func (e *probeEnv) findPeak(v map[string]float64) error {
	m, err := e.characterized()
	if err != nil {
		return err
	}
	events := telemetry.Default.Counter("softsku_sim_events_total", "")
	ev0, t0 := events.Value(), time.Now()
	sec, _, err := e.timeOp(func() error {
		m.FindPeak(e.seed)
		return nil
	})
	v["sim.findpeak_ms"] = sec * 1e3
	v["sim.engine_events_per_s"] = (events.Value() - ev0) / time.Since(t0).Seconds()
	return err
}

func (e *probeEnv) emonSample(v map[string]float64) error {
	m, err := e.characterized()
	if err != nil {
		return err
	}
	s := emon.NewSampler(m, loadgen.NewDiurnal(e.seed), e.seed)
	t := 0.0
	sec, _, err := e.timeOp(func() error {
		s.MIPS(t)
		t += 0.5
		return nil
	})
	v["emon.sample_us"] = sec * 1e6
	return err
}

// abtestPair prices the tester's own work per sample pair: a fixed
// 1500-pair trial over constant samplers, so no simulation is timed.
func (e *probeEnv) abtestPair(v map[string]float64) error {
	cfg := abtest.DefaultConfig()
	cfg.MinSamples, cfg.MaxSamples = 1500, 1500
	control := func(float64) float64 { return 100 }
	treatment := func(float64) float64 { return 101 }
	pairs := 0
	sec, _, err := e.timeOp(func() error {
		out, _ := abtest.Run(cfg, control, treatment, 0)
		if pairs = out.Samples; pairs == 0 {
			return fmt.Errorf("trial took no samples")
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["abtest.pair_ns"] = sec * 1e9 / float64(pairs)
	return nil
}

func (e *probeEnv) twin(v map[string]float64) error {
	alt := e.cfg
	alt.THP = knob.THPAlways // never characterized here, so scored by the twin rung
	model := twin.NewModel(e.sku, e.prof)
	sec, _, err := e.timeOp(func() error {
		model.Predict(alt, e.prof.MaxCPUUtil)
		return nil
	})
	if err != nil {
		return err
	}
	v["twin.predict_us"] = sec * 1e6

	evaluator := func() *twin.Evaluator {
		return twin.NewEvaluator(e.sku, e.prof, e.seed, e.prof.MaxCPUUtil, twin.MetricFor("mips"))
	}
	ev := evaluator()
	if err := ev.Calibrate(); err != nil { // measures the anchors' windows
		return err
	}
	if sec, _, err = e.timeOp(func() error { return evaluator().Calibrate() }); err != nil {
		return err
	}
	v["twin.calibrate_ms"] = sec * 1e3
	sec, _, err = e.timeOp(func() error {
		if _, rung, ok := ev.Score(alt); !ok || rung != twin.RungTwin {
			return fmt.Errorf("scored on rung %q, want %q", rung, twin.RungTwin)
		}
		return nil
	})
	v["twin.score_us"] = sec * 1e6
	return err
}

// record prices one ledger append of a measured trial carrying the
// four evidence panels every trial records.
func (e *probeEnv) record(v map[string]float64) error {
	var panels []decision.Evidence
	for _, m := range []string{"mips", "qps", "perfwatt", "p99"} {
		panels = append(panels, decision.Evidence{Metric: m,
			Control:   decision.Stat{N: 1500, Mean: 100, Var: 4},
			Treatment: decision.Stat{N: 1500, Mean: 101.5, Var: 4}})
	}
	ev := decision.TrialMeasured("probe/thp=always", "thp", "always", e.cfg.String(), e.cfg.String(),
		decision.TrialOutcome{DeltaPct: 1.5, PValue: 0.01, Significant: true, Samples: 1500,
			VirtualSec: 750, EvidenceID: "probe", Evidence: panels})
	const perCall = 1000
	sec, _, err := e.timeOp(func() error {
		l := decision.NewLedger()
		for i := 0; i < perCall; i++ {
			l.Record(-1, ev)
		}
		return nil
	})
	v["decision.record_ns"] = sec * 1e9 / perCall
	return err
}

// retune times one tuning run at the fleet controller's re-tune shape
// (controller.DefaultConfig, with the soak's 40-120 samples) on a warm
// simcache.
func (e *probeEnv) retune(v map[string]float64) error {
	cc := controller.DefaultConfig()
	in := core.DefaultInput("Web", e.sku.Name)
	in.Knobs = cc.Knobs
	in.Seed = e.seed
	in.Parallel = e.workers
	in.AB.MinSamples = 40
	in.AB.MaxSamples = 120
	in.AB.GuardrailPct = cc.TuneGuardrailPct
	in.AB.Confidence = cc.TuneConfidence
	run := func() error {
		tool, err := core.New(in)
		if err != nil {
			return err
		}
		_, err = tool.Run()
		return err
	}
	if err := run(); err != nil { // fills the simcache
		return err
	}
	sec, _, err := e.timeOp(run)
	v["core.retune_ms"] = sec * 1e3
	return err
}

// rollout times a rolling SHP change over one 42-server pool (the
// soak's pool size) with the default fault mix on the rollout path,
// alternating between two configurations.
func (e *probeEnv) rollout(v map[string]float64) error {
	f := fleet.New()
	f.SetWatchdog(controller.DefaultConfig().WatchdogSec)
	f.SetRecorder(decision.NewLedger())
	if err := f.AddPool(e.prof, e.sku, 42, e.cfg); err != nil {
		return err
	}
	f.SetChaos(chaos.New(e.seed, chaos.DefaultConfig()).Split("fleet"))
	next := e.cfg
	next.SHPCount = 300
	targets := [2]knob.Config{next, e.cfg}
	i := 0
	sec, _, err := e.timeOp(func() error {
		r, err := f.Rollout(e.prof.Name, targets[i%2], 8)
		i++
		if err != nil && !r.Aborted {
			return err // an aborted, rolled-back wave is the fault path under test
		}
		return nil
	})
	v["fleet.rollout_ms"] = sec * 1e3
	return err
}

// replayResult is one replayed window: host time per layer over the
// timed three quarters, and the simulated statistics of that part.
type replayResult struct {
	ns       [4]time.Duration // generate, cache, tlb, prefetch
	timed    float64          // accesses timed
	accesses float64          // accesses in the whole window
	stats    [4]float64       // L1D miss, LLC miss, TLB miss, prefetch useful ratios
}

// replay times the per-access cost of each layer a window drives: one
// window's access streams from workload.Stream.Generate, pushed through
// cache.Hierarchy.Access, tlb.Resolver.PageOf + tlb.TLB.Access and
// prefetch.Engine.OnAccess in separate passes per chunk. The first
// quarter of the window is untimed warm-up, as in a real window; unlike
// one, the replay starts from empty caches and never switches code
// pools.
func (e *probeEnv) replay(v map[string]float64) error {
	var per [4][]float64
	var last replayResult
	for b := 0; b < e.batches; b++ {
		r, err := e.replayWindow()
		if err != nil {
			return err
		}
		if b > 0 && r.stats != last.stats {
			return fmt.Errorf("replayed statistics differ between batches: %v vs %v", r.stats, last.stats)
		}
		for i, d := range r.ns {
			per[i] = append(per[i], float64(d)/r.timed)
		}
		last = r
	}
	names := [4]string{"workload.generate_ns", "cache.access_ns", "tlb.access_ns", "prefetch.onaccess_ns"}
	sum := 0.0
	for i, n := range names {
		v[n] = median(per[i])
		sum += v[n]
	}
	v["cache.l1d_miss_ratio"] = last.stats[0]
	v["cache.llc_miss_ratio"] = last.stats[1]
	v["tlb.miss_ratio"] = last.stats[2]
	v["prefetch.useful_ratio"] = last.stats[3]
	v["sim.window_accesses"] = last.accesses
	v["sim.window_other_ms"] = v["sim.window_ms"] - last.accesses*sum/1e6
	return nil
}

func (e *probeEnv) replayWindow() (replayResult, error) {
	var r replayResult
	layout := e.prof.BuildLayout()
	space, err := tlb.NewAddressSpace(layout.Regions, e.cfg.THP, e.cfg.SHPCount)
	if err != nil {
		return r, err
	}
	pages := space.Resolver()
	threads := sim.WindowThreads(e.cfg.Cores)
	hier := cache.NewHierarchySized(e.sku, threads, e.sku.LLC*e.sku.Sockets)
	if e.cfg.CDP.Enabled() {
		if err := hier.ApplyCDP(e.cfg.CDP.DataWays, e.cfg.CDP.CodeWays); err != nil {
			return r, err
		}
	}
	geom := tlb.Geometry{ITLB4K: e.sku.ITLB4K, ITLB2M: e.sku.ITLB2M,
		DTLB4K: e.sku.DTLB4K, DTLB2M: e.sku.DTLB2M, STLB: e.sku.STLB}
	coreScale := float64(e.cfg.Cores) / float64(threads)
	streams := make([]*workload.Stream, threads)
	tlbs := make([]*tlb.TLB, threads)
	pfs := make([]*prefetch.Engine, threads)
	for i := range streams {
		streams[i] = workload.NewStream(e.prof, layout, e.seed+uint64(i)*7919, i, coreScale)
		tlbs[i] = tlb.New(geom)
		pfs[i] = prefetch.NewEngine(hier, i, e.cfg.Prefetch)
	}
	// A window warms up for a third of its measured length.
	perThread := int(sim.WindowInstructions(e.cfg.Cores)) / threads * 4 / 3
	const chunk = 2000 // instructions per thread between interleavings, as in a window
	buf := make([]workload.Access, 0, 2*chunk)
	levels := make([]cache.Level, 0, 2*chunk)
	for done := 0; done < perThread; done += chunk {
		n := min(chunk, perThread-done)
		timed := done >= perThread/4
		if done == perThread/4 {
			hier.ResetStats()
			for i := range tlbs {
				tlbs[i].ResetStats()
				pfs[i].ResetStats()
			}
		}
		for ti := range streams {
			t0 := time.Now()
			buf = streams[ti].Generate(buf[:0], n)
			t1 := time.Now()
			levels = levels[:0]
			for i := range buf {
				levels = append(levels, hier.Access(ti, buf[i].Addr, buf[i].Kind))
			}
			t2 := time.Now()
			for i := range buf {
				page, huge := pages.PageOf(int(buf[i].Region), buf[i].Addr)
				tlbs[ti].Access(page, huge, buf[i].Type)
			}
			t3 := time.Now()
			for i := range buf {
				pfs[ti].OnAccess(buf[i].Addr, buf[i].Kind, buf[i].IP, levels[i])
			}
			t4 := time.Now()
			r.accesses += float64(len(buf))
			if timed {
				r.timed += float64(len(buf))
				r.ns[0] += t1.Sub(t0)
				r.ns[1] += t2.Sub(t1)
				r.ns[2] += t3.Sub(t2)
				r.ns[3] += t4.Sub(t3)
			}
		}
	}
	cs := hier.Stats()
	r.stats[0] = cs.L1D.MissRatio(cache.Data)
	r.stats[1] = float64(cs.LLC.TotalMisses()) / float64(cs.LLC.TotalAccesses())
	var lookups, misses uint64
	for _, t := range tlbs {
		s := t.Stats()
		lookups += s.Fetches + s.Loads + s.Stores
		misses += s.FetchMisses + s.LoadMisses + s.StoreMisses
	}
	r.stats[2] = float64(misses) / float64(lookups)
	var fills, hits uint64
	for _, s := range []cache.Stats{cs.L1I, cs.L1D, cs.L2, cs.LLC} {
		fills += s.PrefetchFills
		hits += s.PrefetchHits
	}
	if fills > 0 {
		r.stats[3] = float64(hits) / float64(fills)
	}
	return r, nil
}
