package core

import (
	"fmt"

	"softsku/internal/decision"
	"softsku/internal/knob"
)

// independentSearcher is the sweep the paper deploys (§4): scale each
// knob alone against the production baseline, then compose every
// knob's most performant significant winner. Its one round races all
// knobs' candidates as one trial batch, one "sweep/<knob>" ledger group
// per knob, so decision.Replay picks one winner per knob. Observe fills
// the run's design-space map.
type independentSearcher struct {
	t        *Tool
	res      *Result
	knobs    []knob.ID
	composed knob.Config
	done     bool
}

func newIndependentSearcher(t *Tool, res *Result) *independentSearcher {
	return &independentSearcher{t: t, res: res, knobs: t.space.Knobs(), composed: t.baseline}
}

func (s *independentSearcher) Name() string { return "independent sweep" }

func (s *independentSearcher) Done() bool { return s.done }

// Best's gain is 0: each knob was measured alone against the baseline,
// so the deltas make no estimate for the composition.
func (s *independentSearcher) Best() (knob.Config, float64) { return s.composed, 0 }

func (s *independentSearcher) Propose(int) *SearchRound {
	if s.done {
		return nil
	}
	s.done = true
	rd := &SearchRound{Control: s.t.baseline}
	for _, id := range s.knobs {
		mKnobsSwept.Inc()
		base := s.t.baseline.Get(id)
		g := SearchGroup{Span: "sweep." + id.String(), Label: "sweep/" + id.String(), Knob: id.String(), Baseline: base.Name}
		for si, setting := range s.t.space.Values[id] {
			if setting != base {
				g.Arms = append(g.Arms, SearchArm{Label: fmt.Sprintf("sweep/%s/%d", id, si),
					Config: s.t.baseline.With(id, setting), Knob: id.String(), Setting: setting.Name})
			}
		}
		rd.Groups = append(rd.Groups, g)
	}
	return rd
}

// Observe settles knob g: the largest significant improvement wins
// (ties keep the earlier setting), or the baseline is kept.
func (s *independentSearcher) Observe(_, g int, outs []ArmOutcome) Verdict {
	id := s.knobs[g]
	values := s.t.space.Values[id]
	sweep := KnobSweep{Knob: id, Baseline: s.t.baseline.Get(id)}
	v := Verdict{
		Attrs: []SpanAttr{{Key: "knob", Value: id.String()},
			{Key: "baseline", Value: sweep.Baseline.Name}, {Key: "settings", Value: len(values)}},
		Logs: []string{fmt.Sprintf("sweeping %s (%d settings)", id, len(values))},
	}
	best, chosen := -1, -1 // indexes into outs and sweep.Points
	bestDelta := 0.0
	arm := 0
	for _, setting := range values {
		if setting == sweep.Baseline {
			sweep.Points = append(sweep.Points, Point{Setting: setting, IsBaseline: true})
			continue
		}
		o := outs[arm]
		arm++
		if !o.Measured() {
			continue
		}
		sweep.Points = append(sweep.Points, Point{Setting: setting, Outcome: o.Outcome})
		v.Logs = append(v.Logs, fmt.Sprintf("  %-12s %s", setting.Name, o.Outcome))
		if o.Outcome.Better() && o.Outcome.DeltaPct > bestDelta {
			best, chosen, bestDelta = arm-1, len(sweep.Points)-1, o.Outcome.DeltaPct
		}
	}
	if best < 0 {
		v.Events = []decision.Event{decision.BaselineKept(id.String(), sweep.Baseline.Name)}
		v.Attrs = append(v.Attrs, SpanAttr{Key: "chosen", Value: sweep.Baseline.Name + " (kept)"})
		v.Logs = append(v.Logs, "  -> keeping production "+sweep.Baseline.Name)
	} else {
		win := &sweep.Points[chosen]
		win.Chosen = true
		s.composed = s.composed.With(id, win.Setting)
		v.Accepted = make([]bool, len(outs))
		v.Accepted[best] = true
		v.Attrs = append(v.Attrs, SpanAttr{Key: "chosen", Value: win.Setting.Name}, SpanAttr{Key: "delta_pct", Value: bestDelta})
		v.Logs = append(v.Logs, fmt.Sprintf("  -> chose %s (%+.2f%%)", win.Setting.Name, bestDelta))
	}
	s.res.Map = append(s.res.Map, sweep)
	return v
}

// exhaustiveMaxPoints bounds the exhaustive sweep: the paper notes that
// exhaustive search over the full seven-knob space cannot finish
// between code pushes (§4).
const exhaustiveMaxPoints = 512

// exhaustiveSearcher is the cross-product sweep (§4, §7): one round
// that races every enumerated configuration against the baseline and
// keeps the best single significant improvement, uncompounded.
type exhaustiveSearcher struct {
	t       *Tool
	arms    []knob.Config // the round's configurations, indexed like Arms
	best    knob.Config
	bestPct float64
	done    bool
}

func newExhaustiveSearcher(t *Tool) (*exhaustiveSearcher, error) {
	if n := t.space.Size(); n > exhaustiveMaxPoints {
		return nil, fmt.Errorf(
			"core: exhaustive sweep over %d points cannot finish between code pushes; restrict 'knobs' (limit %d)",
			n, exhaustiveMaxPoints)
	}
	return &exhaustiveSearcher{t: t, best: t.baseline}, nil
}

func (s *exhaustiveSearcher) Name() string { return "exhaustive sweep" }

func (s *exhaustiveSearcher) Done() bool { return s.done }

func (s *exhaustiveSearcher) Best() (knob.Config, float64) { return s.best, s.bestPct }

// Propose labels each non-baseline point by its enumeration index.
func (s *exhaustiveSearcher) Propose(int) *SearchRound {
	if s.done {
		return nil
	}
	s.done = true
	g := SearchGroup{Span: "sweep.exhaustive", Label: "exhaustive"}
	enum := 0
	s.t.space.Enumerate(s.t.baseline, func(cfg knob.Config) bool {
		if cfg != s.t.baseline {
			s.arms = append(s.arms, cfg)
			g.Arms = append(g.Arms, SearchArm{Label: fmt.Sprintf("exhaustive/%d", enum), Config: cfg, Setting: cfg.String()})
		}
		enum++
		return true
	})
	return &SearchRound{Control: s.t.baseline, Groups: []SearchGroup{g}}
}

// Observe keeps the largest significant improvement (ties keep the
// earlier point), or the baseline.
func (s *exhaustiveSearcher) Observe(_, _ int, outs []ArmOutcome) Verdict {
	var v Verdict
	best := -1
	for i, o := range outs {
		if o.Measured() && o.Outcome.Better() && o.Outcome.DeltaPct > s.bestPct {
			best, s.best, s.bestPct = i, s.arms[i], o.Outcome.DeltaPct
		}
	}
	if best < 0 {
		v.Events = []decision.Event{decision.BaselineKept("", s.t.baseline.String())}
	} else {
		v.Accepted = make([]bool, len(outs))
		v.Accepted[best] = true
	}
	v.Logs = []string{fmt.Sprintf("exhaustive best: %s (%+.2f%%)", s.best, s.bestPct)}
	return v
}
