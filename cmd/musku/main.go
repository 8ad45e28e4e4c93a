// Command musku runs the µSKU design tool (§4, Fig 13): it sweeps the
// soft-SKU design space for a target microservice with A/B tests on
// the simulated production fleet, composes the most performant knob
// configuration, and reports its gains over hand-tuned production and
// stock servers.
//
// Usage:
//
//	musku -input tune.conf
//	musku -service Web -platform Skylake18 [-sweep independent] [-metric mips]
//	musku -service Web -sweep hill         # §7's hill climber
//	musku -service Web -sweep hill -twin   # twin-pruned climb (fewer windows)
//	musku -service Web -validate 3
//	musku -service Web -chaos -chaos-seed 7 -guardrail-pct 2
//
// The input-file format is one "key = value" per line:
//
//	microservice = Web
//	platform     = Skylake18        # defaults to the service's fleet placement
//	sweep        = independent      # independent | exhaustive | hillclimb
//	metric       = mips             # mips | qps
//	knobs        = cdp, thp, shp    # defaults to every applicable knob
//	seed         = 1
//	max_samples  = 30000
//	parallel     = 4                # trial workers (0 = GOMAXPROCS)
//	twin         = off              # analytical-twin fidelity ladder (DESIGN.md §16)
//
// Candidate trials run across a bounded worker pool (-parallel);
// results are merged in design-space order, so output is bit-identical
// at any worker count for a given seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"softsku"
	"softsku/internal/chaos"
	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/telemetry"
)

func main() {
	var (
		inputPath  = flag.String("input", "", "µSKU input file (overrides the other flags)")
		service    = flag.String("service", "", "target microservice (Web, Feed1, ..., Cache2)")
		platName   = flag.String("platform", "", "hardware platform (default: the service's fleet placement)")
		sweep      = flag.String("sweep", "independent", "sweep mode: independent | exhaustive | hillclimb (or hill)")
		metric     = flag.String("metric", "mips", "performance metric: mips | qps")
		knobList   = flag.String("knobs", "", "comma-separated knob subset (default: all applicable)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		maxSamples = flag.Int("max-samples", 0, "per-arm sample cap for A/B trials (0: default 30000)")
		parallel   = flag.Int("parallel", 0, "trial worker count; results are seed-deterministic at any value (0: GOMAXPROCS)")
		twin       = flag.Bool("twin", false, "arm the analytical-twin fidelity ladder: prune predicted-losing arms before any window runs")
		validate   = flag.Int("validate", 0, "after tuning, validate across N simulated code pushes")
		decOut     = flag.String("decisions-out", "", "write the decision ledger as JSONL (replay with skutrace)")
		simCache   = flag.String("sim-cache", "on", "characterization cache: on | off (off re-measures every window; results are identical)")
		guardrail  = flag.Float64("guardrail-pct", 0, "abort and revert A/B trials regressing beyond this percent (0 disables the guardrail)")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON instead of tables")
		obs        telemetry.CLI
		cc         chaos.CLI
	)
	obs.Flags()
	cc.Flags()
	flag.Parse()

	switch *simCache {
	case "on":
	case "off":
		softsku.SetCharacterizationCache(false)
	default:
		fatal(fmt.Errorf("-sim-cache must be on or off, got %q", *simCache))
	}

	in, err := buildInput(*inputPath, *service, *platName, *sweep, *metric, *knobList, *seed, *maxSamples, *parallel, *twin)
	if err != nil {
		fatal(err)
	}
	in.AB.GuardrailPct = *guardrail
	tool, err := softsku.NewTool(in)
	if err != nil {
		fatal(err)
	}
	// The flight recorder is always on: recording is append-only structs
	// behind the serial merge phase, so it costs nothing measurable (see
	// EXPERIMENTS.md) and every run stays explainable after the fact.
	ledger := decision.NewLedger()
	tool.SetRecorder(ledger)
	obs.Decisions = ledger.Handler()
	eng := cc.Engine()
	if eng != nil {
		tool.SetChaos(eng)
	}
	if !*quiet {
		tool.SetLogger(os.Stderr)
	}
	tracer, err := obs.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := obs.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "musku:", err)
		}
	}()
	tool.SetTracer(tracer)
	res, err := tool.Run()
	if err != nil {
		fatal(err)
	}
	if *decOut != "" {
		f, err := os.Create(*decOut)
		if err != nil {
			fatal(err)
		}
		if err := ledger.WriteJSONL(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if eng != nil && !*quiet {
		fmt.Fprintf(os.Stderr, "chaos: %s\n", eng.Summary())
		fmt.Fprintf(os.Stderr, "chaos: %d settings skipped, %d guardrail reverts\n",
			res.Skipped, res.Reverts)
	}

	if *jsonOut {
		emitJSON(res)
		serveWait(&obs)
		return
	}

	fmt.Printf("target:        %s on %s (%s sweep, %s metric)\n",
		res.Service, res.Platform, res.Sweep, res.Metric)
	fmt.Printf("production:    %s\n", res.Baseline)
	fmt.Printf("soft SKU:      %s\n", res.SoftSKU)
	fmt.Printf("vs production: %s\n", res.VsProduction)
	fmt.Printf("vs stock:      %s\n", res.VsStock)
	if res.ExhaustiveBest != 0 {
		// The optimizer's own estimate: best single measurement for
		// exhaustive, accepted moves compounded for hillclimb.
		fmt.Printf("search gain:   %+.2f%% (optimizer's estimate vs production)\n", res.ExhaustiveBest)
	}
	fmt.Printf("reboots:       %d   virtual tuning time: %.1f h\n\n", res.Reboots, res.VirtualHours)
	if len(res.Map) > 0 {
		fmt.Println("design-space map:")
		fmt.Print(softsku.FormatTuneMap(res))
	}

	if *validate > 0 {
		fmt.Printf("\nvalidating across %d code pushes (ODS QPS)...\n", *validate)
		v, err := tool.Validate(res.SoftSKU, *validate, 96)
		if err != nil {
			fatal(err)
		}
		for _, p := range v.Pushes {
			fmt.Printf("  push %d: soft %.0f QPS vs prod %.0f QPS (%+.2f%%)\n",
				p.Push, p.SoftQPS, p.ProdQPS, p.DeltaPct)
		}
		fmt.Printf("  mean advantage %+.2f%%, stable=%v\n", v.MeanDeltaPct, v.StableAdvantage)
	}
	serveWait(&obs)
}

// serveWait keeps the process alive after the run when -serve is
// active, so the finished ledger and metrics stay scrapeable until the
// user interrupts the process.
func serveWait(obs *telemetry.CLI) {
	if !obs.Serving() {
		return
	}
	fmt.Fprintf(os.Stderr, "musku: serving observability on http://%s (ctrl-c to exit)\n", obs.ServingAddr())
	obs.Wait()
}

func buildInput(path, service, plat, sweep, metric, knobList string, seed uint64, maxSamples, parallel int, twin bool) (softsku.TuneInput, error) {
	if path != "" {
		text, err := os.ReadFile(path)
		if err != nil {
			return softsku.TuneInput{}, err
		}
		return softsku.ParseTuneInput(string(text))
	}
	if service == "" {
		return softsku.TuneInput{}, fmt.Errorf("musku: provide -input FILE or -service NAME")
	}
	// Reuse the file parser so flag and file semantics stay identical.
	text := fmt.Sprintf("microservice = %s\nsweep = %s\nmetric = %s\nseed = %d\n",
		service, sweep, metric, seed)
	if plat != "" {
		text += "platform = " + plat + "\n"
	}
	if knobList != "" {
		text += "knobs = " + knobList + "\n"
	}
	if maxSamples > 0 {
		text += fmt.Sprintf("max_samples = %d\n", maxSamples)
	}
	if parallel > 0 {
		text += fmt.Sprintf("parallel = %d\n", parallel)
	}
	if twin {
		text += "twin = on\n"
	}
	return softsku.ParseTuneInput(text)
}

// jsonResult is the stable machine-readable shape of a tuning run.
type jsonResult struct {
	Service         string  `json:"service"`
	Platform        string  `json:"platform"`
	Sweep           string  `json:"sweep"`
	Metric          string  `json:"metric"`
	Production      string  `json:"production"`
	SoftSKU         string  `json:"soft_sku"`
	VsProductionPct float64 `json:"vs_production_pct"`
	VsStockPct      float64 `json:"vs_stock_pct"`
	// SearchGainPct is the optimizer's own gain estimate (see
	// core.Result.ExhaustiveBest); absent for the independent sweep,
	// whose per-knob deltas make no estimate for the composition.
	SearchGainPct float64    `json:"search_gain_pct,omitempty"`
	Significant   bool       `json:"significant"`
	Reboots       int        `json:"reboots"`
	VirtualHours  float64    `json:"virtual_hours"`
	Skipped       int        `json:"skipped,omitempty"`
	Reverts       int        `json:"reverts,omitempty"`
	Knobs         []jsonKnob `json:"knobs"`
}

type jsonKnob struct {
	Knob     string   `json:"knob"`
	Baseline string   `json:"baseline"`
	Chosen   string   `json:"chosen,omitempty"`
	DeltaPct *float64 `json:"delta_pct,omitempty"`
}

func emitJSON(res *softsku.TuneResult) {
	out := jsonResult{
		Service:         res.Service,
		Platform:        res.Platform,
		Sweep:           res.Sweep.String(),
		Metric:          res.Metric.String(),
		Production:      res.Baseline.String(),
		SoftSKU:         res.SoftSKU.String(),
		VsProductionPct: res.VsProduction.DeltaPct,
		VsStockPct:      res.VsStock.DeltaPct,
		SearchGainPct:   res.ExhaustiveBest,
		Significant:     res.VsProduction.Significant,
		Reboots:         res.Reboots,
		VirtualHours:    res.VirtualHours,
		Skipped:         res.Skipped,
		Reverts:         res.Reverts,
	}
	for _, sweep := range res.Map {
		k := jsonKnob{Knob: sweep.Knob.String(), Baseline: sweep.Baseline.Name}
		if best := sweep.Best(); best != nil {
			k.Chosen = best.Setting.Name
			d := best.Outcome.DeltaPct
			k.DeltaPct = &d
		}
		out.Knobs = append(out.Knobs, k)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "musku:", err)
	os.Exit(1)
}

// Interface check: knob IDs parse through the same path the input file
// uses (keeps -knobs flag and file format in lockstep).
var _ = knob.ParseID
