package core

import "softsku/internal/twin"

// Evaluator returns the run's tiered-fidelity ladder (DESIGN.md §16):
// nil unless Input.Twin (`twin = on`) armed it. Search rounds score
// every candidate arm against the round's control and discard —
// without measuring — arms whose predicted regression clears the
// rung's safety margin, recording each discard as a twin_pruned ledger
// event. Every call happens on the run's serial phases, so its answers
// are identical at any -parallel and under chaos.
func (t *Tool) Evaluator() *twin.Evaluator { return t.eval }

// newTwinEvaluator builds the ladder — the analytical twin calibrated
// for this run's service, platform, seed, and metric.
func (t *Tool) newTwinEvaluator() *twin.Evaluator {
	return twin.NewEvaluator(t.sku, t.prof, t.in.Seed, t.prof.MaxCPUUtil,
		twin.MetricFor(t.in.Metric.String()))
}
