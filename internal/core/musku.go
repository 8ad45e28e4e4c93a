package core

import (
	"fmt"
	"io"

	"softsku/internal/abtest"
	"softsku/internal/chaos"
	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/loadgen"
	"softsku/internal/platform"
	"softsku/internal/rng"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
	"softsku/internal/twin"
	"softsku/internal/workload"
)

// Design-space telemetry: how much of the space each tuning run
// sweeps, tests, and prunes away as unrealizable.
var (
	mKnobsSwept = telemetry.Default.Counter("softsku_core_knobs_swept_total",
		"Knob sweeps performed across tuning runs.")
	mConfigsValidated = telemetry.Default.Counter("softsku_core_configs_validated_total",
		"Candidate configurations that passed SKU validation and were measured.")
	mConfigsPruned = telemetry.Default.Counter("softsku_core_configs_pruned_total",
		"Candidate configurations pruned as unrealizable on the SKU.")
	mConfigsTwinPruned = telemetry.Default.Counter("softsku_core_configs_twin_pruned_total",
		"Candidate configurations discarded on a tiered-fidelity prediction, no window spent.")
	mRuns = telemetry.Default.Counter("softsku_core_runs_total",
		"Complete µSKU tuning runs.")

	// Robustness telemetry: adversity the tuner absorbed while sweeping
	// a faulty fleet.
	mApplyRetries = telemetry.Default.Counter("softsku_core_knob_applies_retried_total",
		"Transient knob-apply failures absorbed by retry with backoff.")
	mKnobsSkipped = telemetry.Default.Counter("softsku_core_knobs_skipped_total",
		"Candidate settings skipped after persistent apply faults.")
	mGuardrailReverts = telemetry.Default.Counter("softsku_guardrail_reverts_total",
		"Treatment arms reverted to control after a guardrail trip.")
)

// Point is one evaluated knob setting in the design-space map.
type Point struct {
	Setting    knob.Setting
	Outcome    abtest.Outcome
	IsBaseline bool
	Chosen     bool
}

// KnobSweep is the design-space map for one knob: every candidate
// setting's A/B outcome against the production baseline.
type KnobSweep struct {
	Knob     knob.ID
	Baseline knob.Setting
	Points   []Point
}

// Best returns the chosen point, or nil if the baseline was kept.
func (k KnobSweep) Best() *Point {
	for i := range k.Points {
		if k.Points[i].Chosen {
			return &k.Points[i]
		}
	}
	return nil
}

// Result is a complete µSKU run: the design-space map, the composed
// soft SKU, and its validation against production and stock servers.
type Result struct {
	Service  string
	Platform string
	Sweep    SweepMode
	Metric   Metric

	Baseline knob.Config // hand-tuned production configuration
	Stock    knob.Config // off-the-shelf configuration
	SoftSKU  knob.Config // µSKU's composed configuration

	Map []KnobSweep

	VsProduction abtest.Outcome
	VsStock      abtest.Outcome

	Reboots      int     // server reboots the sweep required
	VirtualHours float64 // virtual measurement time consumed
	// ExhaustiveBest is the searcher's own estimate of the winner's
	// gain over the baseline, in percent (Searcher.Best): the best
	// single measurement for exhaustive, the accepted moves compounded
	// multiplicatively for hillclimb (each round measures against the
	// previous winner, so per-round deltas chain as factors — +2% on
	// +2% is +4.04%, not +4%). Zero for the independent sweep: its
	// knobs were each measured alone, so their deltas make no estimate
	// for the composition.
	ExhaustiveBest float64

	// Degradation record when running under fault injection: candidate
	// settings the sweep skipped after persistent apply faults, and
	// treatment arms reverted to control by the guardrail.
	Skipped int
	Reverts int
}

// Tool is one µSKU instance bound to a microservice/platform pair.
type Tool struct {
	in       Input
	prof     *workload.Profile
	sku      *platform.SKU
	baseline knob.Config
	space    *knob.Space
	load     *loadgen.Profile // deployment-validation load (Validate)
	vclock   float64
	reboots  int
	logW     io.Writer

	servers map[string]*platform.Server // treatment servers by config

	chaos   chaos.Injector // nil: fault-free tuning
	skipped int            // settings abandoned after persistent faults
	reverts int            // guardrail-driven treatment reverts

	tracer *telemetry.Tracer // nil disables tracing
	span   *telemetry.Span   // current parent for trial/machine spans

	rec       *decision.Ledger // nil disables decision recording
	decRoot   int              // run_started seq; -1 outside a recorded run
	decParent int              // causal parent for run_started (-1: ledger root)

	// eval is the tiered-fidelity ladder (DESIGN.md §16); nil measures
	// every validated arm.
	eval *twin.Evaluator
}

// New builds a µSKU tool from an input file. It rejects MIPS-metric
// runs against performance-introspective services (§4: MIPS is
// insufficient to measure Cache's throughput).
func New(in Input) (*Tool, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	base, err := workload.ByName(in.Microservice)
	if err != nil {
		return nil, err
	}
	platName := in.Platform
	if platName == "" {
		platName = base.Platform
	}
	sku, err := platform.ByName(platName)
	if err != nil {
		return nil, err
	}
	prof := workload.ForPlatform(base, sku.Name)
	return NewForService(in, prof, sku)
}

// NewForService builds a µSKU tool for an arbitrary (possibly
// user-defined) microservice profile on the given platform — the
// library's extension point for services beyond the paper's seven.
func NewForService(in Input, prof *workload.Profile, sku *platform.SKU) (*Tool, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if prof.IntrospectivePerf && in.Metric == MetricMIPS {
		return nil, fmt.Errorf(
			"core: %s is performance-introspective; MIPS is not proportional to its throughput — use metric = qps (§4)",
			prof.Name)
	}
	t := &Tool{
		in:        in,
		prof:      prof,
		sku:       sku,
		baseline:  sim.ProductionConfig(sku, prof),
		space:     BuildSpace(sku, prof, in.Knobs),
		load:      loadgen.NewDiurnal(rng.Derive(in.Seed, "load/validate")),
		servers:   make(map[string]*platform.Server),
		decRoot:   -1,
		decParent: -1,
	}
	return t, nil
}

// SetChaos attaches a fault injector to the whole tuning run: trial
// servers can fail knob applies and hang reboots, the A/B sampler can
// drop and corrupt reads, and the shared load profile grows injected
// traffic spikes. The tool degrades rather than aborts — applies are
// retried with capped exponential backoff, persistently faulted
// settings are skipped (Result.Skipped), and guardrail trips revert
// the treatment arm (Result.Reverts). nil (the default) runs the
// fault-free pipeline bit-for-bit.
func (t *Tool) SetChaos(inj chaos.Injector) {
	t.chaos = inj
	t.load.SetChaos(inj)
}

// SetRecorder attaches a decision ledger: Run appends every decision
// the tuner makes — trials measured with their multi-metric evidence
// panels, arms accepted and rejected, guardrail trips, reverts, skips
// — with causal parent links, as the flight record cmd/skutrace
// renders and replays. All appends happen on the run's serial phases
// (per-trial events buffer through decision.Buffer), so the ledger is
// byte-identical across worker counts. nil (the default) disables
// recording.
func (t *Tool) SetRecorder(l *decision.Ledger) {
	t.rec = l
	t.decRoot = -1
}

// SetRecorderParent makes the run's run_started event a child of seq
// instead of a ledger root — the fleet controller nests each retune
// under the epoch's drift_detected event, so one soak ledger replays as
// a single causal tree. -1 (the default) records a root.
func (t *Tool) SetRecorderParent(seq int) { t.decParent = seq }

// SetLogger directs progress logging (nil disables it).
func (t *Tool) SetLogger(w io.Writer) { t.logW = w }

// SetTracer attaches a span tracer to the tool: Run records a root
// span, one child span per knob sweep, and grandchildren per A/B trial
// and per simulated-machine build, each annotated with knob settings,
// sampled means, and confidence-test verdicts. nil disables tracing
// (the default); every instrumentation site is nil-safe.
func (t *Tool) SetTracer(tr *telemetry.Tracer) { t.tracer = tr }

func (t *Tool) logf(format string, args ...interface{}) {
	if t.logW != nil {
		fmt.Fprintf(t.logW, format+"\n", args...)
	}
}

// Space returns the configured design space (for inspection).
func (t *Tool) Space() *knob.Space { return t.space }

// Baseline returns the production configuration µSKU measures against.
func (t *Tool) Baseline() knob.Config { return t.baseline }

// Apply retry policy for trial deployments: transient faults are
// retried with exponential backoff (charged to the trial's virtual
// clock), capped per attempt and bounded in count.
const (
	applyRetries    = 4
	applyBackoffSec = 5.0
	applyBackoffCap = 60.0
)

// applyWithRetry deploys cfg onto a trial server, absorbing transient
// injected faults (failed applies, stuck reboots). Backoff is charged
// to the caller's clock — trial-local under the parallel runtime, so
// concurrent retries never contend. Validation errors and faults that
// persist past the retry budget are returned.
func (t *Tool) applyWithRetry(srv *platform.Server, cfg knob.Config, clock *float64) error {
	backoff := applyBackoffSec
	for try := 0; ; try++ {
		_, err := srv.Apply(cfg)
		if err == nil {
			return nil
		}
		if !chaos.IsFault(err) || try >= applyRetries {
			return err
		}
		mApplyRetries.Inc()
		*clock += backoff
		backoff *= 2
		if backoff > applyBackoffCap {
			backoff = applyBackoffCap
		}
	}
}

// skipFault records a candidate setting abandoned because its trial
// faulted persistently, and reports whether err was such a fault.
func (t *Tool) skipFault(err error, what string) bool {
	if !chaos.IsFault(err) {
		return false
	}
	t.skipped++
	mKnobsSkipped.Inc()
	t.logf("  %s skipped: %v", what, err)
	return true
}

// Run executes the configured sweep and composes the soft SKU.
func (t *Tool) Run() (*Result, error) {
	mRuns.Inc()
	root := t.tracer.StartSpan("musku.run", "tuning")
	root.Set("service", t.prof.Name)
	root.Set("platform", t.sku.Name)
	root.Set("sweep", t.in.Sweep.String())
	root.Set("metric", t.in.Metric.String())
	t.span = root
	defer func() {
		t.span = nil
		root.End()
	}()
	res := &Result{
		Service:  t.prof.Name,
		Platform: t.sku.Name,
		Sweep:    t.in.Sweep,
		Metric:   t.in.Metric,
		Baseline: t.baseline,
		Stock:    sim.StockConfig(t.sku),
	}
	if t.rec != nil {
		conf := t.in.AB.Confidence
		if conf <= 0 || conf >= 1 {
			conf = 0.95 // mirror abtest's zero-value patching
		}
		t.decRoot = t.rec.Record(t.decParent, decision.RunStarted(
			t.prof.Name, t.sku.Name, t.in.Sweep.String(), t.in.Metric.String(),
			t.in.Seed, conf, t.in.AB.GuardrailPct))
	}
	if t.in.Twin && t.eval == nil {
		t.eval = t.newTwinEvaluator()
	}
	if t.eval != nil {
		// Calibrate the ladder against the run's anchor windows
		// (production and stock) — windows the run measures anyway as
		// round-one control and the final validations, so arming the twin
		// costs zero net windows. Serial, before any round: the fit is a
		// pure function of (SKU, profile, seed, metric).
		if err := t.eval.Calibrate(); err != nil {
			return nil, err
		}
		t.logf("twin: calibrated for %s on %s (metric %s)", t.prof.Name, t.sku.Name, t.in.Metric)
	}
	var s Searcher
	var err error
	switch t.in.Sweep {
	case SweepIndependent:
		s = newIndependentSearcher(t, res)
	case SweepExhaustive:
		s, err = newExhaustiveSearcher(t)
	case SweepHillClimb:
		s = newHillSearcher(t)
	default:
		err = fmt.Errorf("core: unknown sweep mode %v", t.in.Sweep)
	}
	if err != nil {
		return nil, err
	}
	if err := t.runSearch(s); err != nil {
		return nil, err
	}
	composed, gain := s.Best()
	res.ExhaustiveBest = gain
	if err := t.sku.Validate(composed); err != nil {
		return nil, fmt.Errorf("core: composed soft SKU invalid: %w", err)
	}
	res.SoftSKU = composed
	// The sweep itself is what must fit between code pushes (§4); the
	// day-long deployment validations below are charged separately.
	res.VirtualHours = t.vclock / 3600

	// Final validation A/B tests: soft SKU vs hand-tuned production and
	// vs a stock re-install (§6.2, Fig 19). Knob benefits are
	// load-dependent (prefetching helps at the trough, hurts at the
	// bandwidth-saturated peak), so the final comparisons sample across
	// a full diurnal cycle rather than minutes at one phase — the
	// paper's "prolonged durations ... under diurnal load".
	vcfg := t.in.AB
	// The sweep's guardrail protects production from regressing trials;
	// the final deployment validations must instead measure the complete
	// delta across the diurnal cycle, so they never abort early.
	vcfg.GuardrailPct = 0
	if vcfg.MinSamples < 2000 {
		vcfg.MinSamples = 2000
	}
	if vcfg.MaxSamples < vcfg.MinSamples {
		vcfg.MaxSamples = vcfg.MinSamples
	}
	vcfg.SpacingSec = 86400.0 / float64(vcfg.MinSamples)
	save := t.in.AB
	t.in.AB = vcfg
	vspan := root.StartChild("validate.final", "tuning")
	specs := []trialSpec{
		t.newSpec(vspan, "final/production", t.baseline, composed),
		t.newSpec(vspan, "final/stock", res.Stock, composed),
	}
	t.in.AB = save
	// The final group measures the composed SKU; it chooses nothing,
	// and replay knows groups labeled "final" carry no winner.
	finSeq := -1
	if t.rec != nil {
		finSeq = t.rec.Record(t.decRoot, decision.SweepStarted("final", "", t.baseline.String()))
	}
	results := t.runTrials(specs)
	if res.VsProduction, err = t.mergeTrial(specs[0], results[0]); err != nil {
		vspan.End()
		return nil, err
	}
	t.recordTrial(finSeq, specs[0], results[0], "", "")
	if res.VsStock, err = t.mergeTrial(specs[1], results[1]); err != nil {
		vspan.End()
		return nil, err
	}
	t.recordTrial(finSeq, specs[1], results[1], "", "")
	vspan.Set("vs_production_pct", res.VsProduction.DeltaPct)
	vspan.Set("vs_stock_pct", res.VsStock.DeltaPct)
	vspan.End()
	if t.eval != nil {
		t.eval.CrossCheck(t.baseline)
		t.eval.CrossCheck(res.Stock)
		t.eval.CrossCheck(composed)
		if med := t.eval.MedianAbsErrPct(); med >= 0 {
			root.Set("twin_median_abs_err_pct", med)
			t.logf("  twin cross-check: median abs err %.2f%%", med)
		}
	}
	root.Set("soft_sku", composed.String())
	root.Set("reboots", t.reboots)
	res.Reboots = t.reboots
	res.Skipped = t.skipped
	res.Reverts = t.reverts
	if t.skipped > 0 || t.reverts > 0 {
		root.Set("skipped", t.skipped)
		root.Set("reverts", t.reverts)
		t.logf("  degradation: %d settings skipped, %d guardrail reverts", t.skipped, t.reverts)
	}
	if t.rec != nil {
		t.rec.Record(t.decRoot, decision.RunFinished(composed.String(),
			res.VsProduction.DeltaPct, res.VsStock.DeltaPct, t.skipped, t.reverts))
	}
	t.logf("soft SKU for %s on %s: %s", res.Service, res.Platform, composed)
	t.logf("  vs production: %s   vs stock: %s", res.VsProduction, res.VsStock)
	return res, nil
}

// FormatMap renders the design-space map as an aligned table.
func FormatMap(res *Result) string {
	var rows [][]string
	for _, sweep := range res.Map {
		for _, p := range sweep.Points {
			mark := ""
			if p.Chosen {
				mark = "<= chosen"
			}
			outcome := "baseline"
			if !p.IsBaseline {
				outcome = p.Outcome.String()
			}
			rows = append(rows, []string{sweep.Knob.String(), p.Setting.Name, outcome, mark})
		}
	}
	return formatTable([]string{"knob", "setting", "outcome", ""}, rows)
}

func formatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	emit := func(cells []string) {
		line := ""
		for i, c := range cells {
			for len(c) < widths[i] {
				c += " "
			}
			if i > 0 {
				line += "  "
			}
			line += c
		}
		for len(line) > 0 && line[len(line)-1] == ' ' {
			line = line[:len(line)-1]
		}
		out += line + "\n"
	}
	emit(header)
	for _, r := range rows {
		emit(r)
	}
	return out
}
