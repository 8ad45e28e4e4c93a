package core

import (
	"softsku/internal/abtest"
	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/telemetry"
)

// The pluggable search layer. A Searcher decides *which*
// configurations to measure; runSearch is the one driver that decides
// *how* — it owns the three-phase trial runtime (trial.go), SKU
// validation, the twin ladder, reboot accounting, span lifecycle, and
// every ledger append, so all searchers inherit the determinism
// contract for free:
//
//   - Propose runs on the serial phase, so any randomness a searcher
//     draws must come from rng streams derived from (run seed, search
//     label) — never from execution order or a global source.
//   - Trial labels seed the trials' own streams, so a searcher's label
//     scheme is part of its observable behaviour (DESIGN.md §10).
//   - Observe sees outcomes in arm order, exactly as a serial run
//     would have produced them, and returns its verdicts as data; the
//     driver replays them into spans, logs, and the ledger in one
//     fixed order.
//
// Every sweep mode is a Searcher: the one-round independent and
// exhaustive sweeps (searcher_sweep.go) and hillSearcher (search.go).
// Tool.Run picks one from SweepMode.

// SearchArm is one candidate configuration a searcher wants measured
// against the round's control.
type SearchArm struct {
	// Label uniquely names the trial within the run and seeds its rng
	// streams; changing a label scheme changes measured outcomes.
	Label  string
	Config knob.Config
	// Knob/Setting name the arm in ledger events: the moved knob and
	// setting for single-knob arms, or "" and a stable arm tag for
	// multi-knob arms.
	Knob    string
	Setting string
}

// SearchGroup is one ledger group and telemetry span within a round:
// a sweep_started event whose children are the group's trials, and the
// span those trials nest under. Hill proposes one group per round; the
// independent sweep proposes one per knob, so its knobs' trials still
// run as one batch while decision.Replay reads one winner per knob.
type SearchGroup struct {
	Span  string // telemetry span name, e.g. "sweep.round3"
	Label string // ledger group label, e.g. "hill/3"
	// Knob and Baseline fill sweep_started's knob and baseline fields;
	// an empty Baseline records the round's control configuration.
	Knob     string
	Baseline string
	Arms     []SearchArm
}

// SearchRound is one Propose result: groups of arms that may all run
// concurrently because no arm's spec depends on another's outcome.
type SearchRound struct {
	Control knob.Config // configuration every arm is measured against
	Groups  []SearchGroup
}

// ArmOutcome is one arm's measurement as seen by Observe. Exactly one
// of Pruned/TwinPruned/Skipped is set when Outcome is absent: pruned
// arms failed SKU validation and never ran; twin-pruned arms were
// discarded on a tiered-fidelity prediction before any window ran;
// skipped arms faulted persistently under chaos and were abandoned.
type ArmOutcome struct {
	Outcome    abtest.Outcome
	Pruned     bool
	TwinPruned bool
	Skipped    bool
}

// Measured reports whether the arm produced a usable outcome.
func (o ArmOutcome) Measured() bool { return !o.Pruned && !o.TwinPruned && !o.Skipped }

// SpanAttr is one key/value annotation for the round's span, applied
// in order.
type SpanAttr struct {
	Key   string
	Value interface{}
}

// Verdict is everything a searcher decided about one group of a
// round, returned as data so the driver can replay it
// deterministically.
type Verdict struct {
	// Accepted marks the arms kept by this group (hill's winning move,
	// a knob's winning setting); every other measured arm is recorded
	// as rejected. nil rejects all.
	Accepted []bool
	Attrs    []SpanAttr       // group-span annotations, in order
	Events   []decision.Event // extra ledger events under the group
	Logs     []string         // progress lines, emitted after the span ends
}

// Searcher is a pluggable design-space optimizer. The driver calls
// Propose/Observe in lockstep until Propose returns nil (round budget
// spent) or Done reports the searcher converged on its own terms.
type Searcher interface {
	// Name labels the searcher in logs and terminal ledger events.
	Name() string
	// Propose returns round r's arms, or nil when the searcher has no
	// more rounds to spend (converged, or out of budget).
	Propose(round int) *SearchRound
	// Observe receives one group's outcomes, indexed like the group's
	// Arms, and returns the searcher's verdicts. Called once per group
	// of every proposed round, in group order, on the serial merge
	// phase.
	Observe(round, group int, outs []ArmOutcome) Verdict
	// Done reports convergence. A nil Propose with Done()==false means
	// the round budget ran out first — the driver records a terminal
	// budget_exhausted event so the ledger never just truncates.
	Done() bool
	// Best returns the best configuration found so far and its gain
	// over the baseline in percent (compounded across moves for
	// searchers that chain rounds).
	Best() (knob.Config, float64)
}

// runSearch drives one Searcher to completion over the parallel trial
// runtime. Per round: build every group's specs serially in arm order
// (buildRound), run the whole round as one trial batch, then settle the
// groups in order — open the ledger group, merge and record its trials
// in arm order, hand the outcomes to Observe, and replay the verdict
// into the span, ledger, and log.
func (t *Tool) runSearch(s Searcher) error {
	rounds := 0
	for round := 0; ; round++ {
		rd := s.Propose(round)
		if rd == nil {
			break
		}
		rounds++
		groups, specs := t.buildRound(rd)
		results := t.runTrials(specs)
		for g, grp := range rd.Groups {
			gr := &groups[g]
			groupSeq := -1
			if t.rec != nil {
				from := grp.Baseline
				if from == "" {
					from = rd.Control.String()
				}
				groupSeq = t.rec.Record(t.decRoot, decision.SweepStarted(grp.Label, grp.Knob, from))
				for _, e := range gr.twinEvents {
					t.rec.Record(groupSeq, e)
				}
			}
			seqs := make([]int, len(grp.Arms))
			for i, arm := range grp.Arms {
				si := gr.specIdx[i]
				if si < 0 {
					continue
				}
				out, err := t.mergeTrial(specs[si], results[si])
				if err != nil {
					if t.skipFault(err, arm.Setting) {
						t.recordSkip(groupSeq, specs[si], arm.Setting, err)
						gr.outs[i].Skipped = true
						continue
					}
					for _, rest := range groups[g:] {
						rest.span.End()
					}
					return err
				}
				seqs[i] = t.recordTrial(groupSeq, specs[si], results[si], arm.Knob, arm.Setting)
				gr.outs[i].Outcome = out
			}
			if t.eval != nil {
				// Every window the group measured doubles as a cross-check
				// sample: the twin predicted these configurations
				// microseconds ago, the simulator just told the truth.
				t.eval.CrossCheck(rd.Control)
				for i, arm := range grp.Arms {
					if gr.outs[i].Measured() {
						t.eval.CrossCheck(arm.Config)
					}
				}
			}
			v := s.Observe(round, g, gr.outs)
			if t.rec != nil {
				for i, arm := range grp.Arms {
					switch o := gr.outs[i].Outcome; {
					case !gr.outs[i].Measured():
					case i < len(v.Accepted) && v.Accepted[i]:
						t.rec.Record(seqs[i], decision.ArmAccepted(arm.Knob, arm.Setting, o.DeltaPct))
					default:
						t.rec.Record(seqs[i], decision.ArmRejected(arm.Knob, arm.Setting,
							o.DeltaPct, o.PValue, o.Significant))
					}
				}
			}
			for _, a := range v.Attrs {
				gr.span.Set(a.Key, a.Value)
			}
			gr.span.End()
			if t.rec != nil {
				for _, e := range v.Events {
					t.rec.Record(groupSeq, e)
				}
			}
			for _, line := range v.Logs {
				t.logf("%s", line)
			}
		}
		if s.Done() {
			break
		}
	}
	if !s.Done() {
		// The round budget ran out before the searcher's own stopping
		// rule fired. Without a terminal event the ledger would just
		// truncate — indistinguishable from a crash in `skutrace tree`.
		best, _ := s.Best()
		if t.rec != nil {
			t.rec.Record(t.decRoot, decision.BudgetExhausted(s.Name(), rounds, best.String()))
		}
		t.logf("%s: round budget exhausted after %d rounds (best so far %s)", s.Name(), rounds, best)
	}
	return nil
}

// groupRun carries one group from buildRound to its settlement.
type groupRun struct {
	span       *telemetry.Span
	specIdx    []int // arm -> spec index; -1 when the arm never runs
	outs       []ArmOutcome
	twinEvents []decision.Event // twin_pruned events, recorded under the group
}

// buildRound is a round's serial spec phase: every group's arms, in
// order, are validated, offered to the twin ladder, charged their
// reboots, and turned into trial specs under the group's span.
func (t *Tool) buildRound(rd *SearchRound) ([]groupRun, []trialSpec) {
	// Tiered-fidelity ladder (DESIGN.md §16): score the round's
	// control once, then let predictions veto arms before a spec —
	// and hence a window — exists for them. All on the serial phase,
	// so the prune set is fixed by the round structure, never by
	// worker scheduling.
	var ctrlScore float64
	var ctrlRung string
	ctrlOK := false
	if t.eval != nil {
		ctrlScore, ctrlRung, ctrlOK = t.eval.Score(rd.Control)
		ctrlOK = ctrlOK && ctrlScore > 0
	}
	groups := make([]groupRun, len(rd.Groups))
	var specs []trialSpec
	for g, grp := range rd.Groups {
		gr := &groups[g]
		gr.span = t.span.StartChild(grp.Span, "sweep")
		gr.specIdx = make([]int, len(grp.Arms))
		gr.outs = make([]ArmOutcome, len(grp.Arms))
		for i, arm := range grp.Arms {
			gr.specIdx[i] = -1
			if err := t.sku.Validate(arm.Config); err != nil {
				mConfigsPruned.Inc()
				gr.outs[i].Pruned = true
				continue
			}
			if ctrlOK {
				if armScore, rung, ok := t.eval.Score(arm.Config); ok {
					margin := t.eval.Margin(rung)
					if m := t.eval.Margin(ctrlRung); m > margin {
						margin = m
					}
					delta := (armScore - ctrlScore) / ctrlScore * 100
					if delta < -margin {
						mConfigsTwinPruned.Inc()
						gr.outs[i].TwinPruned = true
						gr.twinEvents = append(gr.twinEvents, decision.TwinPruned(
							arm.Knob, arm.Setting, arm.Label, delta, margin, rung,
							ctrlScore, armScore, t.in.Metric.String()))
						continue
					}
				}
			}
			mConfigsValidated.Inc()
			for _, id := range knob.Diff(rd.Control, arm.Config) {
				if id.RequiresReboot() {
					t.reboots++
					break
				}
			}
			specs = append(specs, t.newSpec(gr.span, arm.Label, rd.Control, arm.Config))
			gr.specIdx[i] = len(specs) - 1
		}
	}
	return groups, specs
}
