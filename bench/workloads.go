package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"softsku/internal/chaos"
	"softsku/internal/core"
	"softsku/internal/decision"
	"softsku/internal/figures"
	"softsku/internal/fleet/controller"
	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
	"softsku/internal/workload"
)

// repOut is what one rep reports besides its host time and memory.
type repOut struct {
	digest  string             // SHA-256 of the rep's decisions; every rep must repeat it
	result  string             // one human-readable line of what the rep computed
	values  map[string]float64 // simulated outputs and per-layer counts
	stepsMS []float64          // host time of each soak epoch
}

// runner is one closed-loop workload: set-up, then reps back to back,
// each started only after the previous one has returned.
type runner interface {
	// setup prepares, from an empty simcache, what every rep reuses, and
	// returns the digest each rep must reproduce, or "" when the first
	// rep's digest is the reference. It runs workloadDef.setups times in
	// a row; every pass must return the same digest.
	setup() (string, error)
	// rep runs one timed repetition. tr and parent are nil when untraced.
	rep(tr *telemetry.Tracer, parent *telemetry.Span) (repOut, error)
	// golden checks a rep against what the default seed must give.
	golden(out repOut) error
}

// workloadDef binds a BENCHMARK.json workload name to its code.
type workloadDef struct {
	name   string
	seed   uint64 // the default seed the golden checks hold for
	setups int    // set-up passes; setup_s is their median
	build  func(o options) runner
}

// The soak sets up twice, not three times: each pass is a cold soak of
// 17-24 s, and two passes already take most of a soak run's time.
var workloadDefs = []workloadDef{
	{"tune-cold", 1, 3, func(o options) runner { return newTune(o, false) }},
	{"tune-twin", 1, 3, func(o options) runner { return newTune(o, true) }},
	{"soak-chaos", 99, 2, newSoak},
	{"peak", 1, 3, newPeak},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// tuneWorkload is one µSKU tuning run from a cold characterization
// cache: the paper's deployed independent sweep, or the hill climber
// with the analytical twin pruning arms.
type tuneWorkload struct {
	in   core.Input
	want tuneGolden
}

// tuneGolden is what the default seed composes (EXPERIMENTS.md).
type tuneGolden struct {
	result  string
	gainPct string
	windows float64
	pruned  float64
}

func newTune(o options, twin bool) runner {
	in := core.DefaultInput("Web", "Skylake18")
	in.Knobs = []knob.ID{knob.THP, knob.SHP, knob.CoreFreq, knob.Prefetch}
	if o.smoke {
		in.Knobs = in.Knobs[:2]
	}
	// A 1500-sample cap leaves the hill climber's path to chance: on 6
	// of 20 seeds it kept shp=200 after 10 windows instead of 14, which
	// made run_s bimodal across seeds. At 6000 every one of 40 seeds
	// tried takes the same path; samples cost microseconds, windows
	// hundreds of milliseconds.
	in.AB.MinSamples = 150
	in.AB.MaxSamples = 6000
	in.Seed = o.seedOr(1)
	in.Parallel = o.workers
	want := tuneGolden{
		result:  "soft SKU: core=2.2GHz uncore=1.8GHz cores=18 cdp=off pf=all-on thp=always shp=300",
		gainPct: "3.748",
		windows: 21,
	}
	if twin {
		in.Sweep = core.SweepHillClimb
		in.Twin = true
		want.windows, want.pruned = 14, 7
	}
	return &tuneWorkload{in: in, want: want}
}

// setup brings up the run's two anchor servers, production and stock,
// from an empty simcache: the first windows every tuning run measures
// (core.Tool.Run calibrates the twin on them). Each rep empties the
// simcache again, so the reps reuse nothing but the warmed process, and
// the first rep's decisions are the reference.
func (w *tuneWorkload) setup() (string, error) {
	sim.ResetCharacterizationCache()
	sku, err := platform.ByName(w.in.Platform)
	if err != nil {
		return "", err
	}
	base, err := workload.ByName(w.in.Microservice)
	if err != nil {
		return "", err
	}
	prof := workload.ForPlatform(base, sku.Name)
	for _, cfg := range []knob.Config{sim.ProductionConfig(sku, prof), sim.StockConfig(sku)} {
		if _, err := characterized(sku, prof, cfg, w.in.Seed); err != nil {
			return "", err
		}
	}
	return "", nil
}

func (w *tuneWorkload) rep(tr *telemetry.Tracer, _ *telemetry.Span) (repOut, error) {
	sim.ResetCharacterizationCache()
	w0 := sim.WindowsExecuted()
	tool, err := core.New(w.in)
	if err != nil {
		return repOut{}, err
	}
	ledger := decision.NewLedger()
	tool.SetRecorder(ledger)
	tool.SetTracer(tr)
	res, err := tool.Run()
	if err != nil {
		return repOut{}, err
	}
	out := repOut{
		result: "soft SKU: " + res.SoftSKU.String(),
		values: map[string]float64{
			"fresh_windows": sim.WindowsExecuted() - w0,
			"gain_pct":      res.VsProduction.DeltaPct,
			"virtual_hours": res.VirtualHours,
			"twin.err_pct":  0,
		},
	}
	if ev := tool.Evaluator(); ev != nil && ev.MedianAbsErrPct() >= 0 {
		out.values["twin.err_pct"] = ev.MedianAbsErrPct()
	}
	out.digest, err = recordLedger(ledger, out.values)
	return out, err
}

func (w *tuneWorkload) golden(out repOut) error {
	v := out.values
	gain := fmt.Sprintf("%.3f", v["gain_pct"])
	if out.result != w.want.result || gain != w.want.gainPct ||
		v["fresh_windows"] != w.want.windows || v["twin.pruned"] != w.want.pruned {
		return fmt.Errorf("composed %q at %s%% on %v windows with %v pruned; want %q at %s%% on %v windows with %v pruned",
			out.result, gain, v["fresh_windows"], v["twin.pruned"],
			w.want.result, w.want.gainPct, w.want.windows, w.want.pruned)
	}
	return nil
}

// soakWorkload is the self-healing fleet controller under sustained
// chaos, timed warm: set-up runs one cold soak so that every
// characterization window the reps need is already in the simcache.
type soakWorkload struct {
	cfg       controller.Config
	specs     []controller.PoolSpec
	chaosSeed uint64
	epochs    int
}

// newSoak soaks the fleet history of controller seed 42. -seed replaces
// only the chaos seed: the drift walk decides which pools re-tune, and
// over six seeds varying it spread the soak's allocation across a 13%
// range, against 6% for the fault schedule alone.
func newSoak(o options) runner {
	cfg := controller.DefaultConfig()
	cfg.Seed = 42
	cfg.DriftRate = 0.04
	cfg.TuneMinSamples = 40
	cfg.TuneMaxSamples = 120
	cfg.Parallel = o.workers
	w := &soakWorkload{cfg: cfg, specs: controller.DefaultFleetSpec(1008), chaosSeed: o.seedOr(99), epochs: 20}
	if o.smoke {
		w.specs, w.epochs = controller.DefaultFleetSpec(24), 2
	}
	return w
}

func (w *soakWorkload) setup() (string, error) {
	sim.ResetCharacterizationCache()
	out, err := w.rep(nil, nil)
	return out.digest, err
}

// rep soaks a fresh controller epoch by epoch through Run(1), which
// records the same ledger as one Run of every epoch (TestRunOneByOne).
func (w *soakWorkload) rep(_ *telemetry.Tracer, parent *telemetry.Span) (repOut, error) {
	c, err := controller.New(w.cfg, w.specs)
	if err != nil {
		return repOut{}, err
	}
	c.SetChaos(newChaos(w.chaosSeed))
	out := repOut{values: map[string]float64{}}
	var rep *controller.Report
	for i := 0; i < w.epochs; i++ {
		sp := parent.StartChild("bench.epoch", "bench")
		sp.Set("epoch", i)
		t0 := time.Now()
		rep, err = c.Run(1)
		out.stepsMS = append(out.stepsMS, float64(time.Since(t0))/float64(time.Millisecond))
		sp.End()
		if err != nil {
			return out, err
		}
	}
	if !rep.Converged || rep.MixedPools != 0 {
		return out, fmt.Errorf("soak left %d pools mixed", rep.MixedPools)
	}
	out.values["controller.retunes"] = float64(rep.Retuned)
	out.values["controller.rollouts"] = float64(rep.RolledOut)
	out.values["controller.rollout_failures"] = float64(rep.RolloutFailures)
	out.values["controller.quarantined"] = float64(rep.Quarantined)
	out.values["controller.degraded_epochs"] = float64(rep.DegradedEpochs)
	out.result = fmt.Sprintf("converged: %d re-tunes, %d rollouts, %d failed, %d quarantined, %d fault events",
		rep.Retuned, rep.RolledOut, rep.RolloutFailures, rep.Quarantined, rep.FaultEvents)
	digest, err := recordLedger(c.Ledger(), out.values)
	fp := sha256.Sum256([]byte(rep.Fingerprint))
	out.digest = digest + " chaos " + hex.EncodeToString(fp[:8])
	return out, err
}

func (w *soakWorkload) golden(repOut) error { return nil }

// newChaos is the soak's fault engine: the default fault mix plus 1%
// day-long sensor blackouts.
func newChaos(seed uint64) *chaos.Engine {
	cfg := chaos.DefaultConfig()
	cfg.BlackoutPct = 0.01
	cfg.BlackoutSec = 86400
	return chaos.New(seed, cfg)
}

// table2 lists the paper's Table 2 services with the order of
// magnitude of their peak QPS.
var table2 = []struct {
	service string
	order   int
}{
	{"Web", 2}, {"Feed1", 3}, {"Feed2", 1}, {"Ads1", 1}, {"Ads2", 2}, {"Cache1", 5}, {"Cache2", 5},
}

// peakWorkload is the QoS-limited peak-load search of Table 2 on fresh
// production machines, the only workload that runs the request-level
// discrete-event engine. Set-up runs the seven windows and one
// reference pass.
type peakWorkload struct {
	seed     uint64
	services int // how many Table 2 rows to run
}

func newPeak(o options) runner {
	w := &peakWorkload{seed: o.seedOr(1), services: len(table2)}
	if o.smoke {
		w.services = 1
	}
	return w
}

func (w *peakWorkload) setup() (string, error) {
	sim.ResetCharacterizationCache()
	out, err := w.rep(nil, nil)
	return out.digest, err
}

func (w *peakWorkload) rep(_ *telemetry.Tracer, _ *telemetry.Span) (repOut, error) {
	h := sha256.New()
	var line strings.Builder
	orders := 0
	for _, row := range table2[:w.services] {
		prof, err := workload.ByName(row.service)
		if err != nil {
			return repOut{}, err
		}
		m, err := figures.MachineFor(row.service, prof.Platform, w.seed)
		if err != nil {
			return repOut{}, err
		}
		p := m.FindPeak(w.seed)
		if !p.Feasible {
			return repOut{}, fmt.Errorf("%s: no load meets its QoS limits", row.service)
		}
		qps := p.Result.QPS
		fmt.Fprintf(h, "%s %x\n", row.service, math.Float64bits(qps))
		fmt.Fprintf(&line, " %s %.4g", row.service, qps)
		if int(math.Floor(math.Log10(qps))) == row.order {
			orders++
		}
	}
	return repOut{
		digest: hex.EncodeToString(h.Sum(nil)),
		result: "peak QPS:" + line.String(),
		values: map[string]float64{"paper_qps_orders": float64(orders)},
	}, nil
}

func (w *peakWorkload) golden(out repOut) error {
	if got := out.values["paper_qps_orders"]; got != float64(len(table2)) {
		return fmt.Errorf("%v of %d services in Table 2's order of magnitude", got, len(table2))
	}
	return nil
}

// recordLedger hashes the ledger's JSONL and adds its counts to v: A/B
// trials and samples (per arm), arms the twin pruned and the share of
// proposed search arms that was, events, and JSONL size.
func recordLedger(l *decision.Ledger, v map[string]float64) (string, error) {
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		return "", err
	}
	var trials, samples, pruned, arms float64
	for _, e := range l.Events() {
		switch e.Kind {
		case decision.KindTrialMeasured:
			trials++
			samples += float64(e.Samples)
			if !strings.HasPrefix(e.Label, "final/") {
				arms++
			}
		case decision.KindTwinPruned:
			pruned++
			arms++
		}
	}
	v["abtest.trials"] = trials
	v["abtest.samples"] = samples
	v["twin.pruned"] = pruned
	v["twin.prune_ratio"] = 0
	if arms > 0 {
		v["twin.prune_ratio"] = pruned / arms
	}
	v["decision.events"] = float64(l.Len())
	v["decision.jsonl_kb"] = float64(buf.Len()) / 1024
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
