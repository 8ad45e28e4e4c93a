package core

import (
	"fmt"

	"softsku/internal/decision"
	"softsku/internal/knob"
)

// hillSearcher greedily walks the design space (§7: "better search
// heuristics (e.g., hill climbing) may be required"): from the
// production baseline, repeatedly move one knob one step in the
// direction of the best statistically significant improvement until no
// neighbour wins. It is the reference Searcher — the inline climber it
// replaced produced byte-for-byte this label scheme, event order, and
// log stream, and the equivalence tests hold it there.
type hillSearcher struct {
	t         *Tool
	current   knob.Config
	maxRounds int
	converged bool
	// compound accumulates accepted moves multiplicatively: a +2% move
	// on top of a +2% move is +4.04%, not +4% — per-round deltas are
	// measured against the previous round's winner, so they chain as
	// factors, never as a sum.
	compound float64
	arms     []SearchArm // last proposed round's moves
}

// hillMaxRounds bounds the climb: each round moves one knob one step,
// so the bound only binds on pathological spaces (oscillation cannot
// happen — every accepted move strictly improved on its predecessor).
const hillMaxRounds = 24

func newHillSearcher(t *Tool) *hillSearcher {
	return &hillSearcher{t: t, current: t.baseline, maxRounds: hillMaxRounds, compound: 1}
}

func (h *hillSearcher) Name() string { return "hill climb" }

func (h *hillSearcher) Done() bool { return h.converged }

// Best returns the configuration the climb stands on and the
// compounded gain of every accepted move, in percent.
func (h *hillSearcher) Best() (knob.Config, float64) {
	return h.current, (h.compound - 1) * 100
}

// Propose emits one round: every one-step neighbour of the current
// configuration, in design-space order. Unrealizable neighbours are
// included — the driver prunes them through sku.Validate so the
// pruned/validated telemetry stays accurate.
func (h *hillSearcher) Propose(round int) *SearchRound {
	if h.converged || round >= h.maxRounds {
		return nil
	}
	g := SearchGroup{Span: fmt.Sprintf("sweep.round%d", round), Label: fmt.Sprintf("hill/%d", round)}
	for _, id := range h.t.space.Knobs() {
		values := h.t.space.Values[id]
		cur := indexOfSetting(values, h.current.Get(id))
		for _, ni := range []int{cur - 1, cur + 1} {
			if ni < 0 || ni >= len(values) {
				continue
			}
			g.Arms = append(g.Arms, SearchArm{
				Label:   fmt.Sprintf("hill/%d/%s/%d", round, id, ni),
				Config:  h.current.With(id, values[ni]),
				Knob:    id.String(),
				Setting: values[ni].Name,
			})
		}
	}
	h.arms = g.Arms
	return &SearchRound{Control: h.current, Groups: []SearchGroup{g}}
}

// Observe picks the best significantly-improving neighbour, or
// converges when none wins. The winning move is selected in arm order
// — ties keep the earlier arm — so rounds chain identically to a
// serial climb.
func (h *hillSearcher) Observe(round, _ int, outs []ArmOutcome) Verdict {
	best := -1
	for i, o := range outs {
		if !o.Measured() {
			continue
		}
		if o.Outcome.Better() && (best < 0 || o.Outcome.DeltaPct > outs[best].Outcome.DeltaPct) {
			best = i
		}
	}
	var v Verdict
	if best < 0 {
		h.converged = true
		v.Attrs = []SpanAttr{{Key: "converged", Value: true}}
		v.Events = []decision.Event{decision.Converged(
			fmt.Sprintf("round %d: no neighbour improved on %s", round, h.current))}
		v.Logs = []string{fmt.Sprintf("hill climb converged after %d rounds", round)}
		return v
	}
	arm, delta := h.arms[best], outs[best].Outcome.DeltaPct
	v.Accepted = make([]bool, len(outs))
	v.Accepted[best] = true
	v.Attrs = []SpanAttr{
		{Key: "move", Value: fmt.Sprintf("%s -> %s", arm.Knob, arm.Setting)},
		{Key: "delta_pct", Value: delta},
	}
	v.Logs = []string{fmt.Sprintf("hill climb round %d: %s -> %s (%+.2f%%)", round, arm.Knob, arm.Setting, delta)}
	h.current = arm.Config
	h.compound *= 1 + delta/100
	return v
}

// indexOfSetting finds a setting's position in the candidate list, or
// the nearest candidate for values (like frequencies) that may sit
// between steps. Returns -1 only for an empty list.
func indexOfSetting(values []knob.Setting, s knob.Setting) int {
	for i, v := range values {
		if v == s {
			return i
		}
	}
	// Nearest by integer payload (frequencies, counts).
	best, bestDist := -1, 0
	for i, v := range values {
		d := v.Int - s.Int
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// BinarySearchSHP is the §5(7) extension: instead of the linear
// 100-page sweep, search the SHP count range with a ternary search
// over the (unimodal: rising to the demand point, falling with waste)
// response curve. Returns the best count found and the number of A/B
// tests spent.
func (t *Tool) BinarySearchSHP(lo, hi, step int) (int, int, error) {
	if t.prof.SHPDemandChunks() == 0 {
		return 0, 0, fmt.Errorf("core: %s does not use static huge pages", t.prof.Name)
	}
	if step < 1 {
		step = 1
	}
	quant := func(n int) int { return (n / step) * step }
	tests := 0
	// Ternary search is inherently adaptive — each probe depends on the
	// previous verdicts — so probes run through the sequential
	// runSingle path rather than the parallel pool.
	mean := func(n int) (float64, error) {
		cfg := t.baseline.With(knob.SHP, knob.IntSetting(fmt.Sprintf("%d", n), n))
		if err := t.sku.Validate(cfg); err != nil {
			return 0, err
		}
		mConfigsValidated.Inc()
		t.reboots++
		out, err := t.runSingle(t.span, fmt.Sprintf("shp-search/%d/%d", tests, n), t.baseline, cfg)
		if err != nil {
			return 0, err
		}
		tests++
		return out.Treatment.Mean(), nil
	}
	for hi-lo > 2*step {
		// Quantizing the third-points can collapse m1 onto lo whenever
		// 2·step < hi-lo < 3·step with lo step-aligned; a winning lower
		// probe then sets lo = m1 = lo, and with a deterministic response
		// curve the same probes return the same verdict forever. Clamp
		// both probes to step-multiples strictly inside (lo, hi):
		// rounding m1 up to the first multiple above lo keeps m1 ≤
		// lo+step, and the loop guard gives m2 ≤ m1+step < lo+2·step <
		// hi — so every verdict strictly narrows the interval and the
		// search terminates on any curve.
		m1 := quant(lo + (hi-lo)/3)
		if m1 <= lo {
			m1 = quant(lo) + step // first step-multiple strictly above lo
		}
		m2 := quant(lo + 2*(hi-lo)/3)
		if m2 <= m1 {
			m2 = m1 + step
		}
		v1, err := mean(m1)
		if err != nil {
			return 0, tests, err
		}
		v2, err := mean(m2)
		if err != nil {
			return 0, tests, err
		}
		if v1 < v2 {
			lo = m1
		} else {
			hi = m2
		}
	}
	best := quant((lo + hi) / 2)
	return best, tests, nil
}
