package twin

import (
	"fmt"
	"sort"

	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
	"softsku/internal/workload"
)

// Twin telemetry: how often each rung of the tiered-fidelity ladder
// answered, and the continuous cross-check of twin predictions against
// every real window the tuner measures (DESIGN.md §16). The error
// histogram is the twin's health signal — a drifting tail means the
// model no longer matches the simulator and pruning margins are stale.
var (
	mTwinScores = telemetry.Default.Counter("softsku_twin_scores_total",
		"Candidate scores served by the analytical twin rung.")
	mTwinCacheScores = telemetry.Default.Counter("softsku_twin_cache_scores_total",
		"Candidate scores served by the simcache-hit rung (exact, no window).")
	mTwinCrossChecks = telemetry.Default.Counter("softsku_twin_crosschecks_total",
		"Twin predictions compared against a measured window.")
	mTwinAbsErr = telemetry.Default.Histogram("softsku_twin_abs_err_pct",
		"Absolute twin prediction error vs the measured window, percent.")
)

// Ladder rungs, lowest fidelity first. Prune margins widen as fidelity
// drops: a simcache hit reprices exact measured rates (error is noise
// only), while the analytical twin carries model error and needs real
// headroom before its word is taken.
const (
	RungTwin   = "twin"
	RungCached = "cached"
)

// Evaluator is the tiered-fidelity ladder for one tuning run: it scores
// candidate configurations without running characterization windows,
// answering from the cheapest rung that can — the calibrated analytical
// twin, or an exact repricing of a window the process-wide simcache
// already holds. The search layer (core) holds one per twin-armed run;
// twin never imports core.
//
// Not safe for concurrent use. The search layer calls it only from
// serial phases (spec building, post-merge), which is also what makes
// its answers independent of -parallel: the simcache's contents at
// those points are fixed by the round structure, not by worker
// scheduling.
type Evaluator struct {
	sku    *platform.SKU
	prof   *workload.Profile
	seed   uint64
	util   float64
	metric func(sim.Operating) float64

	model *Model

	alpha, beta float64
	calibrated  bool

	checked map[string]bool
	errs    []float64
}

// NewEvaluator builds the ladder for a (SKU, profile) pair at the run's
// workload seed. metric extracts the scalar under optimization from an
// operating point (the same scalar the A/B trials sample); util is the
// utilization every prediction is priced at.
func NewEvaluator(sku *platform.SKU, prof *workload.Profile, seed uint64, util float64, metric func(sim.Operating) float64) *Evaluator {
	return &Evaluator{
		sku:     sku,
		prof:    prof,
		seed:    seed,
		util:    util,
		metric:  metric,
		model:   NewModel(sku, prof),
		checked: make(map[string]bool),
	}
}

// raw returns the uncalibrated twin metric for a configuration.
func (e *Evaluator) raw(cfg knob.Config) float64 {
	return e.metric(e.model.Predict(cfg, e.util).Op)
}

// exact reprices already-measured window rates through the simulator's
// own solve — zero model error, zero windows.
func (e *Evaluator) exact(r *sim.WindowRates, cfg knob.Config) float64 {
	return e.metric(sim.SolveRates(e.sku, e.prof, cfg, r, e.util))
}

// Calibrate fits the twin's affine residual correction y = α·x + β
// against real windows for the production and stock configurations —
// the two anchors every tuning run measures anyway (round-one control
// and the final validations), so calibration adds zero net windows: the
// windows it runs are simcache entries the run was about to create.
// The fit is a pure function of (SKU, profile, seed, metric), so the
// coefficients are bit-identical at any -parallel and under chaos.
func (e *Evaluator) Calibrate() error {
	anchors := []knob.Config{
		sim.ProductionConfig(e.sku, e.prof),
		sim.StockConfig(e.sku),
	}
	var xs, ys []float64
	seen := make(map[string]bool)
	for _, cfg := range anchors {
		key := cfg.String()
		if seen[key] || e.sku.Validate(cfg) != nil {
			continue
		}
		seen[key] = true
		srv, err := platform.NewServer(e.sku, cfg)
		if err != nil {
			return fmt.Errorf("twin: calibration server: %w", err)
		}
		m, err := sim.NewMachine(srv, e.prof, e.seed)
		if err != nil {
			return fmt.Errorf("twin: calibration machine: %w", err)
		}
		ys = append(ys, e.metric(m.Solve(e.util)))
		xs = append(xs, e.raw(cfg))
	}
	if len(xs) == 0 {
		return fmt.Errorf("twin: no valid calibration anchors")
	}
	e.alpha, e.beta = fit(xs, ys)
	e.calibrated = true
	return nil
}

// fit is the least-squares solve of y = α·x + β. With one point (or a
// degenerate spread) it falls back to a pure ratio correction, and to
// identity if even that is unusable — the twin must never flip the sign
// of a comparison.
func fit(xs, ys []float64) (alpha, beta float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	mean := sx / n
	if det > 1e-9*mean*mean*n && len(xs) > 1 {
		alpha = (n*sxy - sx*sy) / det
		beta = (sy - alpha*sx) / n
		if alpha > 0 {
			return alpha, beta
		}
	}
	if sx > 0 {
		return sy / sx, 0
	}
	return 1, 0
}

// Calibrated reports whether the twin rung is armed.
func (e *Evaluator) Calibrated() bool { return e.calibrated }

// Coefficients returns the fitted residual correction.
func (e *Evaluator) Coefficients() (alpha, beta float64) { return e.alpha, e.beta }

// Score predicts the optimization metric for a configuration from the
// cheapest rung that can answer: an exact repricing when the simcache
// already holds this exact window, the calibrated analytical twin
// otherwise. ok is false when no rung can answer (uncalibrated twin and
// no cached window).
func (e *Evaluator) Score(cfg knob.Config) (score float64, rung string, ok bool) {
	if r, hit := sim.CachedRates(e.sku, e.prof, cfg, 0, e.seed); hit {
		mTwinCacheScores.Inc()
		return e.exact(r, cfg), RungCached, true
	}
	if !e.calibrated {
		return 0, "", false
	}
	mTwinScores.Inc()
	return e.alpha*e.raw(cfg) + e.beta, RungTwin, true
}

// Margin returns the pruning safety margin (percent of the control
// score) a prediction from the given rung must clear before the search
// layer may discard a candidate without measuring it.
func (e *Evaluator) Margin(rung string) float64 {
	if rung == RungCached {
		return 0.25
	}
	return 2.5
}

// CrossCheck compares the twin's prediction against a configuration
// whose window the run just measured, feeding the continuous
// twin-vs-simulator error telemetry. Each distinct configuration is
// checked once per run. No-op before calibration or when the window is
// not (yet) in the simcache.
func (e *Evaluator) CrossCheck(cfg knob.Config) {
	if !e.calibrated {
		return
	}
	key := cfg.String()
	if e.checked[key] {
		return
	}
	r, hit := sim.CachedRates(e.sku, e.prof, cfg, 0, e.seed)
	if !hit {
		return
	}
	e.checked[key] = true
	meas := e.exact(r, cfg)
	pred := e.alpha*e.raw(cfg) + e.beta
	if meas == 0 {
		return
	}
	errPct := (pred - meas) / meas * 100
	if errPct < 0 {
		errPct = -errPct
	}
	e.errs = append(e.errs, errPct)
	mTwinCrossChecks.Inc()
	mTwinAbsErr.Observe(errPct)
}

// Errors returns the per-configuration absolute prediction errors
// (percent) accumulated by CrossCheck, in check order.
func (e *Evaluator) Errors() []float64 { return append([]float64(nil), e.errs...) }

// MedianAbsErrPct returns the median cross-check error, or -1 before
// any check ran.
func (e *Evaluator) MedianAbsErrPct() float64 {
	if len(e.errs) == 0 {
		return -1
	}
	s := append([]float64(nil), e.errs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// MetricFor maps a µSKU optimization-metric name onto its extractor
// from an operating point. Unknown names fall back to MIPS, mirroring
// the trial sampler's default.
func MetricFor(name string) func(sim.Operating) float64 {
	switch name {
	case "qps":
		return func(op sim.Operating) float64 { return op.QPS }
	case "perfwatt":
		return func(op sim.Operating) float64 { return op.MIPSPerWatt }
	default:
		return func(op sim.Operating) float64 { return op.MIPS }
	}
}
