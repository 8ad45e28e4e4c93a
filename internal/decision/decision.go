// Package decision is the tuning pipeline's flight recorder: an
// append-only, seeded-deterministic ledger of every decision µSKU
// makes while composing a soft SKU — trials started and measured,
// arms accepted or rejected with their p-value and delta, guardrail
// trips, reverts, skips, rollout waves passing and failing — each
// with a causal parent link, exported as JSONL (one compact JSON
// object per line, stable field order).
//
// The ledger is bound by the repo's determinism contract (DESIGN.md
// §8): two runs with the same core.Input and seed must produce
// byte-identical ledgers at any worker count, with or without chaos.
// That rules out wall-clock timestamps and scheduler-dependent span
// ids; the link from a ledger event back to the telemetry trace is
// instead the EvidenceID, a label-derived deterministic id stamped
// into both the event and the trial's span arguments.
//
// Events must be built through the constructors in this file —
// softskulint's decisionevent analyzer rejects hand-rolled Event
// literals outside this package — so the schema consumed by
// cmd/skutrace, the replay engine, and /debug/decisions stays
// canonical.
package decision

import (
	"fmt"
	"math"
	"strconv"
)

// Kind names one decision-event class. The set is closed: replay and
// rendering switch on it.
type Kind string

// Event kinds, in rough causal order of a tuning run and a rollout.
const (
	KindRunStarted      Kind = "run_started"
	KindSweepStarted    Kind = "sweep_started"
	KindTrialStarted    Kind = "trial_started"
	KindTrialMeasured   Kind = "trial_measured"
	KindArmAccepted     Kind = "arm_accepted"
	KindArmRejected     Kind = "arm_rejected"
	KindGuardrailTrip   Kind = "guardrail_trip"
	KindRevert          Kind = "revert"
	KindSkip            Kind = "skip"
	KindConverged       Kind = "converged"
	KindBudgetExhausted Kind = "budget_exhausted"
	KindRunFinished     Kind = "run_finished"
	KindRolloutStarted  Kind = "rollout_started"
	KindWavePassed      Kind = "wave_passed"
	KindWaveFailed      Kind = "wave_failed"
	KindRollback        Kind = "rollback"
	KindRolloutDone     Kind = "rollout_done"

	// Fleet-controller kinds: the continuous tuning loop's epoch
	// lifecycle and its self-healing machinery (breakers, quarantine,
	// flap damping, degraded mode, watchdog abandons).
	KindEpochStarted    Kind = "epoch_started"
	KindEpochDone       Kind = "epoch_done"
	KindDriftDetected   Kind = "drift_detected"
	KindDegradedEnter   Kind = "degraded_enter"
	KindDegradedExit    Kind = "degraded_exit"
	KindBreakerOpen     Kind = "breaker_open"
	KindBreakerProbe    Kind = "breaker_probe"
	KindBreakerClosed   Kind = "breaker_closed"
	KindQuarantine      Kind = "quarantine"
	KindRepair          Kind = "repair"
	KindConfigFreeze    Kind = "config_freeze"
	KindWatchdogAbandon Kind = "watchdog_abandon"
	KindTwinPruned      Kind = "twin_pruned"
)

// Stat is the sufficient statistics of one arm's sample stream for
// one metric: enough to re-run Welch's t-test at replay time without
// the raw samples.
type Stat struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Var  float64 `json:"var"`
}

// Evidence is one metric's paired measurement panel for a trial. A
// trial carries one Evidence per candidate objective (mips, qps,
// perfwatt, p99), so a replay under a different objective has real
// moments to test — the counterfactual layer's raw material.
type Evidence struct {
	Metric    string `json:"metric"`
	Control   Stat   `json:"control"`
	Treatment Stat   `json:"treatment"`
}

// Event is one ledger entry. Seq and Parent are assigned by the
// ledger on append (Parent -1 marks a root); every other field is set
// by the constructor for its kind and zero elsewhere — omitempty
// keeps the JSONL compact and the schema greppable.
type Event struct {
	Seq    int    `json:"seq"`
	Parent int    `json:"parent"`
	Kind   Kind   `json:"kind"`
	Label  string `json:"label,omitempty"`

	// Run identity (run_started / rollout_started).
	Service      string  `json:"service,omitempty"`
	Platform     string  `json:"platform,omitempty"`
	Sweep        string  `json:"sweep,omitempty"`
	Metric       string  `json:"metric,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	Confidence   float64 `json:"confidence,omitempty"`
	GuardrailPct float64 `json:"guardrail_pct,omitempty"`

	// Knob decision payload (sweep/trial/arm events).
	Knob        string  `json:"knob,omitempty"`
	Setting     string  `json:"setting,omitempty"`
	Control     string  `json:"control,omitempty"`
	Treatment   string  `json:"treatment,omitempty"`
	DeltaPct    float64 `json:"delta_pct,omitempty"`
	PValue      float64 `json:"p_value,omitempty"`
	Significant bool    `json:"significant,omitempty"`
	Samples     int     `json:"samples,omitempty"`
	VirtualSec  float64 `json:"virtual_sec,omitempty"`

	// Rollout payload.
	Wave    int `json:"wave,omitempty"`
	Servers int `json:"servers,omitempty"`

	// Controller payload: the epoch an event belongs to (1-based; 0 is
	// omitted for non-controller events).
	Epoch int `json:"epoch,omitempty"`

	Detail string `json:"detail,omitempty"`

	// EvidenceID is the deterministic id linking this event to the
	// telemetry span that produced its measurements: both carry
	// hex(rng.Derive(runSeed, "evidence/"+label)).
	EvidenceID string     `json:"evidence_id,omitempty"`
	Evidence   []Evidence `json:"evidence,omitempty"`
}

// finite sanitizes a float for JSON: encoding/json rejects NaN and
// ±Inf, and the A/B tester's DeltaPct is ±Inf when the control mean
// is zero. Infinities clamp to ±MaxFloat64 (still "beyond any
// threshold" for every comparison replay makes); NaN becomes 0.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	default:
		return v
	}
}

// RunStarted opens a tuning run's ledger: the target, the objective,
// and the statistical policy every recorded verdict was made under.
func RunStarted(service, platform, sweep, metric string, seed uint64, confidence, guardrailPct float64) Event {
	return Event{
		Kind:         KindRunStarted,
		Service:      service,
		Platform:     platform,
		Sweep:        sweep,
		Metric:       metric,
		Seed:         seed,
		Confidence:   finite(confidence),
		GuardrailPct: finite(guardrailPct),
	}
}

// SweepStarted opens one decision group: a knob sweep, a hill-climb
// round, an exhaustive enumeration, or the final validations. knob is
// empty for multi-knob groups; baseline is the configuration (or
// setting) the group's candidates are measured against.
func SweepStarted(label, knob, baseline string) Event {
	return Event{Kind: KindSweepStarted, Label: label, Knob: knob, Control: baseline}
}

// TrialStarted records that an A/B comparison began, with the sample
// budget it was given. Emitted by abtest.Run through the trial's
// buffer, so it appears as a child of the trial_measured event.
func TrialStarted(confidence float64, minSamples, maxSamples int, guardrailPct float64) Event {
	return Event{
		Kind:         KindTrialStarted,
		Confidence:   finite(confidence),
		Samples:      maxSamples,
		GuardrailPct: finite(guardrailPct),
		Detail:       detailBudget(minSamples, maxSamples),
	}
}

func detailBudget(minSamples, maxSamples int) string {
	return "per-arm sample budget " + strconv.Itoa(minSamples) + ".." + strconv.Itoa(maxSamples)
}

// TrialOutcome carries a measured trial's verdict and evidence into
// TrialMeasured. It is a plain argument bundle, not a ledger event —
// hand-built literals are fine.
type TrialOutcome struct {
	DeltaPct    float64
	PValue      float64
	Significant bool
	Samples     int
	VirtualSec  float64
	EvidenceID  string
	Evidence    []Evidence
}

// TrialMeasured records one resolved A/B trial: the arms, the verdict
// under the run's objective, and the evidence panels a counterfactual
// replay re-judges under other objectives.
func TrialMeasured(label, knob, setting, control, treatment string, o TrialOutcome) Event {
	evs := make([]Evidence, len(o.Evidence))
	for i, e := range o.Evidence {
		e.Control.Mean = finite(e.Control.Mean)
		e.Control.Var = finite(e.Control.Var)
		e.Treatment.Mean = finite(e.Treatment.Mean)
		e.Treatment.Var = finite(e.Treatment.Var)
		evs[i] = e
	}
	return Event{
		Kind:        KindTrialMeasured,
		Label:       label,
		Knob:        knob,
		Setting:     setting,
		Control:     control,
		Treatment:   treatment,
		DeltaPct:    finite(o.DeltaPct),
		PValue:      finite(o.PValue),
		Significant: o.Significant,
		Samples:     o.Samples,
		VirtualSec:  finite(o.VirtualSec),
		EvidenceID:  o.EvidenceID,
		Evidence:    evs,
	}
}

// ArmAccepted records the winning candidate of a decision group.
// Parent it to the winning trial_measured event.
func ArmAccepted(knob, setting string, deltaPct float64) Event {
	return Event{Kind: KindArmAccepted, Knob: knob, Setting: setting, DeltaPct: finite(deltaPct)}
}

// BaselineKept records a group that chose no candidate: the baseline
// setting stays. Parent it to the group's sweep_started event.
func BaselineKept(knob, setting string) Event {
	return Event{Kind: KindArmAccepted, Knob: knob, Setting: setting, Detail: "baseline kept"}
}

// ArmRejected records a measured candidate that was not chosen, with
// the statistics that doomed it. Parent it to its trial_measured
// event.
func ArmRejected(knob, setting string, deltaPct, pValue float64, significant bool) Event {
	return Event{
		Kind:        KindArmRejected,
		Knob:        knob,
		Setting:     setting,
		DeltaPct:    finite(deltaPct),
		PValue:      finite(pValue),
		Significant: significant,
	}
}

// GuardrailTrip records an A/B trial aborted early because the
// treatment regressed past the guardrail. Emitted by abtest.Run
// through the trial's buffer.
func GuardrailTrip(deltaPct float64, samples int, guardrailPct float64) Event {
	return Event{
		Kind:         KindGuardrailTrip,
		DeltaPct:     finite(deltaPct),
		Samples:      samples,
		GuardrailPct: finite(guardrailPct),
	}
}

// Revert records a tripped treatment server restored to the control
// configuration.
func Revert(label, control string) Event {
	return Event{Kind: KindRevert, Label: label, Control: control}
}

// Skip records a candidate setting abandoned after persistent
// injected faults — the tuner degraded rather than aborting.
func Skip(label, setting, reason string) Event {
	return Event{Kind: KindSkip, Label: label, Setting: setting, Detail: reason}
}

// TwinPruned records a candidate arm discarded on a low-fidelity
// prediction before any window ran (the tiered-fidelity ladder,
// DESIGN.md §16). DeltaPct is the predicted delta vs the round's
// control, GuardrailPct the safety margin it had to clear, and the
// evidence panel carries the predicted absolute scores so a replay can
// re-derive the prune verdict. Parent it to the round's sweep_started
// event.
func TwinPruned(knob, setting, label string, predictedDeltaPct, marginPct float64, rung string, ctrlScore, armScore float64, metric string) Event {
	return Event{
		Kind:         KindTwinPruned,
		Knob:         knob,
		Setting:      setting,
		Label:        label,
		DeltaPct:     finite(predictedDeltaPct),
		GuardrailPct: finite(marginPct),
		Detail:       "rung=" + rung,
		Evidence: []Evidence{{
			Metric:    metric + "_twin_predicted",
			Control:   Stat{N: 1, Mean: finite(ctrlScore)},
			Treatment: Stat{N: 1, Mean: finite(armScore)},
		}},
	}
}

// Converged records a search round in which the optimizer decided to
// stop: a hill-climb round with no winning neighbour.
func Converged(detail string) Event {
	return Event{Kind: KindConverged, Detail: detail}
}

// BudgetExhausted records a search that ran out of round budget before
// its own convergence test fired — the terminal marker that
// distinguishes a truncated climb from a crashed run. Parent it to the
// run_started event.
func BudgetExhausted(search string, rounds int, best string) Event {
	return Event{
		Kind:   KindBudgetExhausted,
		Label:  search,
		Wave:   rounds,
		Detail: fmt.Sprintf("best so far %s", best),
	}
}

// RunFinished closes a tuning run: the composed soft SKU and its
// validated gains, plus the degradation totals.
func RunFinished(softSKU string, vsProductionPct, vsStockPct float64, skipped, reverts int) Event {
	return Event{
		Kind:      KindRunFinished,
		Treatment: softSKU,
		DeltaPct:  finite(vsProductionPct),
		Detail: fmt.Sprintf("vs_stock_pct=%+.2f skipped=%d reverts=%d",
			finite(vsStockPct), skipped, reverts),
	}
}

// RolloutStarted opens a fleet rollout's ledger entry.
func RolloutStarted(service, cfg string, servers, maxUnavailable int) Event {
	return Event{
		Kind:      KindRolloutStarted,
		Service:   service,
		Treatment: cfg,
		Servers:   servers,
		Detail:    fmt.Sprintf("max_unavailable=%d", maxUnavailable),
	}
}

// WavePassed records one deployment wave that passed its health check.
func WavePassed(wave, servers, rebooted int) Event {
	return Event{Kind: KindWavePassed, Wave: wave, Servers: servers, Detail: fmt.Sprintf("rebooted=%d", rebooted)}
}

// WaveFailed records a wave that failed its health check, aborting
// the rollout.
func WaveFailed(wave, servers int, reason string) Event {
	return Event{Kind: KindWaveFailed, Wave: wave, Servers: servers, Detail: reason}
}

// Rollback records the touched servers restored to the prior
// configuration after a failed wave.
func Rollback(servers int) Event {
	return Event{Kind: KindRollback, Servers: servers}
}

// RolloutDone closes a rollout that converged.
func RolloutDone(waves, rebooted int) Event {
	return Event{Kind: KindRolloutDone, Wave: waves, Detail: fmt.Sprintf("rebooted=%d", rebooted)}
}

// EpochStarted opens one controller epoch: the virtual time it covers
// and the fleet it governs.
func EpochStarted(epoch int, virtualSec float64, pools, servers int) Event {
	return Event{
		Kind:       KindEpochStarted,
		Epoch:      epoch,
		VirtualSec: finite(virtualSec),
		Servers:    servers,
		Detail:     fmt.Sprintf("pools=%d", pools),
	}
}

// EpochDone closes a controller epoch with its work tally.
func EpochDone(epoch, drifted, retuned, rolledOut, failures int) Event {
	return Event{
		Kind:  KindEpochDone,
		Epoch: epoch,
		Detail: fmt.Sprintf("drifted=%d retuned=%d rolled_out=%d rollout_failures=%d",
			drifted, retuned, rolledOut, failures),
	}
}

// DriftDetected records a pool whose sensed load moved past the drift
// threshold since its configuration was last tuned.
func DriftDetected(pool string, deltaPct, thresholdPct float64, samples int) Event {
	return Event{
		Kind:     KindDriftDetected,
		Service:  pool,
		DeltaPct: finite(deltaPct),
		Samples:  samples,
		Detail:   fmt.Sprintf("threshold=%.1f%%", finite(thresholdPct)),
	}
}

// DegradedEnter records a pool entering degraded mode: its sensor
// series is too sparse to trust (blackout), so the controller holds
// the last-known-good configuration instead of tuning blind.
func DegradedEnter(pool string, samples, minSamples int) Event {
	return Event{
		Kind:    KindDegradedEnter,
		Service: pool,
		Samples: samples,
		Detail:  fmt.Sprintf("min_samples=%d; holding last-known-good config", minSamples),
	}
}

// DegradedExit records a pool's sensor series recovering enough to
// resume drift detection.
func DegradedExit(pool string, samples int) Event {
	return Event{Kind: KindDegradedExit, Service: pool, Samples: samples}
}

// BreakerOpen records a pool's circuit breaker opening after repeated
// rollout failures: the pool is left alone for holdEpochs epochs.
func BreakerOpen(pool string, failures, holdEpochs int) Event {
	return Event{
		Kind:    KindBreakerOpen,
		Service: pool,
		Detail:  fmt.Sprintf("failures=%d hold_epochs=%d", failures, holdEpochs),
	}
}

// BreakerProbe records a half-open probe: one rollout allowed through
// an open breaker to test whether the pool has recovered.
func BreakerProbe(pool string) Event {
	return Event{Kind: KindBreakerProbe, Service: pool}
}

// BreakerClosed records a breaker closing after a successful probe.
func BreakerClosed(pool string) Event {
	return Event{Kind: KindBreakerClosed, Service: pool}
}

// Quarantine records a repeat-offender server pulled out of rotation.
func Quarantine(pool string, server, strikes int) Event {
	return Event{
		Kind:    KindQuarantine,
		Service: pool,
		Label:   fmt.Sprintf("%s/%d", pool, server),
		Detail:  fmt.Sprintf("strikes=%d", strikes),
	}
}

// Repair records a quarantined server restored to rotation on the
// pool's current configuration.
func Repair(pool string, server int) Event {
	return Event{Kind: KindRepair, Service: pool, Label: fmt.Sprintf("%s/%d", pool, server)}
}

// ConfigFreeze records flap damping: a pool that exhausted its
// rollback budget has its configuration frozen for holdEpochs epochs.
func ConfigFreeze(pool string, reverts, holdEpochs int) Event {
	return Event{
		Kind:    KindConfigFreeze,
		Service: pool,
		Detail:  fmt.Sprintf("reverts=%d hold_epochs=%d", reverts, holdEpochs),
	}
}

// WatchdogAbandon records a server whose stuck reboot exhausted the
// rollout watchdog budget and was abandoned rather than wedging the
// epoch.
func WatchdogAbandon(pool string, server int, budgetSec float64) Event {
	return Event{
		Kind:       KindWatchdogAbandon,
		Service:    pool,
		Label:      fmt.Sprintf("%s/%d", pool, server),
		VirtualSec: finite(budgetSec),
	}
}
