// Command stress reproduces the Intel Memory Latency Checker
// experiment behind Fig 12: it sweeps injected memory bandwidth from
// idle to saturation on each platform and prints the loaded-latency
// curve, optionally with every microservice's operating point.
//
// Usage:
//
//	stress                        # curves for all three platforms
//	stress -platform Skylake18    # one platform
//	stress -points 25 -services   # finer curve plus service points
//	stress -parallel 4            # one worker per platform curve; same output
//	stress -chaos -chaos-seed 7   # corrupt latency samples like a faulty prober
//	stress -twin                  # calibrated-twin cross-check, one probe window per service
//
// With -chaos, each latency sample passes through the deterministic
// fault injector the tuner is hardened against: corrupted readings are
// printed alongside the true value and marked, showing the outliers
// µSKU's A/B tester rejects.
package main

import (
	"flag"
	"fmt"
	"os"

	"softsku"
	"softsku/internal/chaos"
	"softsku/internal/knob"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
	"softsku/internal/twin"
	"softsku/internal/workload"
)

func main() {
	var (
		platName = flag.String("platform", "", "platform name (default: all three)")
		points   = flag.Int("points", 13, "points per stress curve")
		services = flag.Bool("services", false, "also print each microservice's operating point")
		twinChk  = flag.Bool("twin", false, "cross-check the calibrated analytical twin against one off-anchor window per service")
		seed     = flag.Uint64("seed", 1, "workload seed for -services")
		parallel = flag.Int("parallel", 0, "curve workers; output order is fixed (0: GOMAXPROCS)")
		simCache = flag.String("sim-cache", "on", "characterization cache: on | off (off re-measures every window; results are identical)")
		obs      telemetry.CLI
		cc       chaos.CLI
	)
	obs.Flags()
	cc.Flags()
	flag.Parse()
	switch *simCache {
	case "on":
	case "off":
		softsku.SetCharacterizationCache(false)
	default:
		fmt.Fprintf(os.Stderr, "stress: -sim-cache must be on or off, got %q\n", *simCache)
		os.Exit(1)
	}
	var inj softsku.ChaosInjector = softsku.ChaosDisabled
	if eng := cc.Engine(); eng != nil {
		inj = eng
	}

	tracer, err := obs.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress:", err)
		os.Exit(1)
	}
	defer func() {
		if err := obs.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
		}
	}()
	root := tracer.StartSpan("stress", "memory")
	defer root.End()

	var skus []*softsku.SKU
	if *platName != "" {
		sku, err := softsku.PlatformByName(*platName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		skus = append(skus, sku)
	} else {
		skus = softsku.Platforms()
	}

	// Curves are pure per platform, so they compute in parallel; the
	// chaos pass and printing stay serial in platform order, keeping
	// output (and injected-fault draws) identical at any worker count.
	curves := make([][]softsku.MemoryPoint, len(skus))
	softsku.ParallelFor(*parallel, len(skus), func(i int) {
		curves[i] = softsku.StressCurve(skus[i], *points)
	})
	for i, sku := range skus {
		sp := root.StartChild("curve."+sku.Name, "memory")
		sp.Set("points", *points)
		fmt.Printf("== %s loaded-latency curve (peak %.0f GB/s, unloaded %.0f ns) ==\n",
			sku.Name, sku.MemPeakGBs, sku.MemUnloadedNS)
		fmt.Printf("%12s  %12s\n", "GB/s", "latency ns")
		for _, p := range curves[i] {
			if v, hit := inj.CorruptSample("latency", p.LatencyNS); hit {
				fmt.Printf("%12.1f  %12.0f  <- corrupted sample (true %.0f ns)\n",
					p.BandwidthGBs, v, p.LatencyNS)
				continue
			}
			fmt.Printf("%12.1f  %12.0f\n", p.BandwidthGBs, p.LatencyNS)
		}
		fmt.Println()
		sp.End()
	}

	if *services {
		fmt.Println("== microservice operating points (production config, peak load) ==")
		fmt.Printf("%-8s %-12s %10s %12s\n", "service", "platform", "GB/s", "latency ns")
		for _, svc := range softsku.Services() {
			sp := root.StartChild("service."+svc.Name, "memory")
			c, err := softsku.Characterize(svc.Name, softsku.Seed(*seed))
			if err != nil {
				fmt.Fprintln(os.Stderr, "stress:", err)
				os.Exit(1)
			}
			sp.Set("bw_gbs", c.Counters.MemBWGBs)
			sp.Set("latency_ns", c.Counters.MemLatencyNS)
			sp.End()
			fmt.Printf("%-8s %-12s %10.1f %12.0f\n",
				svc.Name, svc.Platform, c.Counters.MemBWGBs, c.Counters.MemLatencyNS)
		}
	}

	if *twinChk {
		twinCheck(root, *seed)
	}
	if obs.Serving() {
		fmt.Fprintf(os.Stderr, "stress: serving observability on http://%s (ctrl-c to exit)\n", obs.ServingAddr())
		obs.Wait()
	}
}

// twinCheck calibrates the analytical twin for every service on its
// production platform, then measures one configuration the calibration
// never saw (production with THP flipped) and prints the calibrated
// prediction beside the simulator's answer. The anchors fit exactly by
// construction, so the probe column is the honest out-of-sample error —
// the number the tuner's pruning margins must dominate (DESIGN.md §16).
func twinCheck(root *telemetry.Span, seed uint64) {
	fmt.Println("\n== analytical-twin cross-check (calibrated, off-anchor probe) ==")
	fmt.Printf("%-8s %-12s %8s %12s %12s %8s\n",
		"service", "platform", "alpha", "probe MIPS", "twin MIPS", "err")
	for _, svc := range softsku.Services() {
		sku, err := softsku.PlatformByName(svc.Platform)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		prof := workload.ForPlatform(svc, sku.Name)
		sp := root.StartChild("twin."+prof.Name, "twin")
		ev := twin.NewEvaluator(sku, prof, seed, prof.MaxCPUUtil, twin.MetricFor("mips"))
		if err := ev.Calibrate(); err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		probe := softsku.ProductionConfig(sku, prof)
		if probe.THP == knob.THPNever {
			probe.THP = knob.THPAlways
		} else {
			probe.THP = knob.THPNever
		}
		srv, err := softsku.NewServer(sku, probe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		m, err := sim.NewMachine(srv, prof, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		meas := m.Solve(prof.MaxCPUUtil).MIPS
		alpha, beta := ev.Coefficients()
		pred := alpha*twin.NewModel(sku, prof).Predict(probe, prof.MaxCPUUtil).Op.MIPS + beta
		errPct := 0.0
		if meas != 0 {
			errPct = (pred - meas) / meas * 100
		}
		sp.Set("alpha", alpha)
		sp.Set("err_pct", errPct)
		sp.End()
		fmt.Printf("%-8s %-12s %8.4f %12.0f %12.0f %+7.2f%%\n",
			prof.Name, sku.Name, alpha, meas, pred, errPct)
	}
}
