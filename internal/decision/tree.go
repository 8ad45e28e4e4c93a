package decision

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Summary renders one event as a single human line, used by the tree
// view and diffs.
func (e Event) Summary() string {
	switch e.Kind {
	case KindRunStarted:
		return fmt.Sprintf("run %s on %s (%s sweep, %s metric, seed %d, confidence %g, guardrail %g%%)",
			e.Service, e.Platform, e.Sweep, e.Metric, e.Seed, e.Confidence, e.GuardrailPct)
	case KindSweepStarted:
		if e.Knob != "" {
			return fmt.Sprintf("sweep %s (baseline %s)", e.Knob, e.Control)
		}
		return fmt.Sprintf("group %s (baseline %s)", e.Label, e.Control)
	case KindTrialStarted:
		return fmt.Sprintf("trial started (%s, guardrail %g%%)", e.Detail, e.GuardrailPct)
	case KindTrialMeasured:
		what := e.Setting
		if what == "" {
			what = e.Treatment
		}
		return fmt.Sprintf("measured %s: %+.3f%% (p=%.3g, sig=%v, n=%d)",
			what, e.DeltaPct, e.PValue, e.Significant, e.Samples)
	case KindArmAccepted:
		if e.Detail == "baseline kept" {
			return fmt.Sprintf("kept baseline %s for %s", e.Setting, e.Knob)
		}
		return fmt.Sprintf("accepted %s=%s (%+.3f%%)", e.Knob, e.Setting, e.DeltaPct)
	case KindArmRejected:
		return fmt.Sprintf("rejected %s=%s (%+.3f%%, p=%.3g, sig=%v)",
			e.Knob, e.Setting, e.DeltaPct, e.PValue, e.Significant)
	case KindGuardrailTrip:
		return fmt.Sprintf("guardrail trip: %+.3f%% past -%g%% after %d samples",
			e.DeltaPct, e.GuardrailPct, e.Samples)
	case KindRevert:
		return fmt.Sprintf("reverted %s to control %s", e.Label, e.Control)
	case KindSkip:
		return fmt.Sprintf("skipped %s (%s): %s", e.Setting, e.Label, e.Detail)
	case KindConverged:
		return "converged: " + e.Detail
	case KindBudgetExhausted:
		return fmt.Sprintf("%s budget exhausted after %d rounds (%s)", e.Label, e.Wave, e.Detail)
	case KindRunFinished:
		return fmt.Sprintf("finished: soft SKU %s, vs production %+.2f%% (%s)",
			e.Treatment, e.DeltaPct, e.Detail)
	case KindRolloutStarted:
		return fmt.Sprintf("rollout %s -> %s (%d servers, %s)", e.Service, e.Treatment, e.Servers, e.Detail)
	case KindWavePassed:
		return fmt.Sprintf("wave %d passed (%d servers, %s)", e.Wave, e.Servers, e.Detail)
	case KindWaveFailed:
		return fmt.Sprintf("wave %d FAILED (%d servers): %s", e.Wave, e.Servers, e.Detail)
	case KindRollback:
		return fmt.Sprintf("rolled back %d servers", e.Servers)
	case KindRolloutDone:
		return fmt.Sprintf("rollout done in %d waves (%s)", e.Wave, e.Detail)
	case KindEpochStarted:
		return fmt.Sprintf("epoch %d (t=%gs, %d servers, %s)", e.Epoch, e.VirtualSec, e.Servers, e.Detail)
	case KindEpochDone:
		return fmt.Sprintf("epoch %d done (%s)", e.Epoch, e.Detail)
	case KindDriftDetected:
		return fmt.Sprintf("drift on %s: %+.1f%% over %d samples (%s)", e.Service, e.DeltaPct, e.Samples, e.Detail)
	case KindDegradedEnter:
		return fmt.Sprintf("%s DEGRADED: %d samples (%s)", e.Service, e.Samples, e.Detail)
	case KindDegradedExit:
		return fmt.Sprintf("%s recovered (%d samples)", e.Service, e.Samples)
	case KindBreakerOpen:
		return fmt.Sprintf("breaker OPEN on %s (%s)", e.Service, e.Detail)
	case KindBreakerProbe:
		return fmt.Sprintf("breaker half-open probe on %s", e.Service)
	case KindBreakerClosed:
		return fmt.Sprintf("breaker closed on %s", e.Service)
	case KindQuarantine:
		return fmt.Sprintf("quarantined %s (%s)", e.Label, e.Detail)
	case KindRepair:
		return fmt.Sprintf("repaired %s", e.Label)
	case KindConfigFreeze:
		return fmt.Sprintf("froze config of %s (%s)", e.Service, e.Detail)
	case KindWatchdogAbandon:
		return fmt.Sprintf("watchdog abandoned %s after %gs", e.Label, e.VirtualSec)
	default:
		return string(e.Kind)
	}
}

// WriteTree renders events as an indented decision tree in sequence
// order: every event on one line under its causal parent, the
// skutrace `tree` view.
func WriteTree(w io.Writer, events []Event) error {
	depth := make([]int, len(events))
	for i, e := range events {
		d := 0
		if e.Parent >= 0 && e.Parent < i {
			d = depth[e.Parent] + 1
		}
		depth[i] = d
		if _, err := fmt.Fprintf(w, "%s#%-4d %s\n", strings.Repeat("  ", d), e.Seq, e.Summary()); err != nil {
			return err
		}
	}
	return nil
}

// Diff compares two ledgers event by event and returns one line per
// divergence (nil when identical). Comparison is on the canonical
// JSON encoding, so any field difference — verdicts, deltas, evidence
// moments — surfaces.
func Diff(a, b []Event) []string {
	var out []string
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		ja, _ := json.Marshal(a[i])
		jb, _ := json.Marshal(b[i])
		if string(ja) != string(jb) {
			out = append(out, fmt.Sprintf("#%d differs:\n  a: %s\n  b: %s", i, ja, jb))
		}
	}
	if len(a) != len(b) {
		out = append(out, fmt.Sprintf("length differs: a has %d events, b has %d", len(a), len(b)))
	}
	return out
}
