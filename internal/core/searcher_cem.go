package core

import (
	"fmt"
	"sort"
	"strconv"

	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/rng"
)

// cemSearcher is a cross-entropy-method population search over the
// discrete knob space: each generation samples configurations from
// independent per-knob categorical distributions, measures them
// against the baseline, and refits the distributions toward the elite
// fraction — so probability mass flows onto setting combinations that
// win together, which is exactly the cross-knob interaction structure
// the one-knob-at-a-time sweep cannot represent.
//
// Determinism: generation g draws every sample from the stream
// rng.Derive(seed, "search/cem/gen/<g>") on the serial phase; knobs
// are always iterated in Space.Knobs() presentation order (the probs
// map is never ranged over); ranking is a stable sort on (delta desc,
// sample order); and the refit is fixed-order float arithmetic — a
// pure function of the measured outcomes.
//
// The distributions start biased toward the baseline (it is known-
// realizable and production-tuned), which concentrates early
// generations near it; as generations converge, re-sampled repeat
// configurations cost no fresh characterization windows — the
// simcache key is (config, run seed) — so total fresh windows grow
// with the number of *distinct* configurations visited, not with
// generations × population.
type cemSearcher struct {
	t     *Tool
	probs map[knob.ID][]float64 // per-knob categorical, indexed like space.Values

	gens     int     // generation budget
	pop      int     // samples per generation
	elites   int     // refit fraction
	alpha    float64 // refit smoothing: p' = (1-α)p + α·eliteFreq
	patience int     // stalled generations before stopping

	arms     []knob.Config // current generation, indexed like Arms
	stalled  int
	best     knob.Config
	bestPct  float64
	haveBest bool
	done     bool
}

const (
	cemGenerations = 6
	cemPopulation  = 6
	cemElites      = 3
	cemAlpha       = 0.7
	cemPatience    = 2
	// cemBaselineWeight is the initial probability mass on each knob's
	// baseline setting; the remainder spreads uniformly.
	cemBaselineWeight = 0.5
	// cemImproveEps is the minimum best-delta improvement (percentage
	// points) that resets the stall counter.
	cemImproveEps = 0.05
)

func newCEMSearcher(t *Tool) *cemSearcher {
	c := &cemSearcher{
		t:        t,
		probs:    map[knob.ID][]float64{},
		gens:     cemGenerations,
		pop:      cemPopulation,
		elites:   cemElites,
		alpha:    cemAlpha,
		patience: cemPatience,
		best:     t.baseline,
	}
	for _, id := range t.space.Knobs() {
		values := t.space.Values[id]
		if len(values) == 0 {
			continue
		}
		p := make([]float64, len(values))
		if len(values) == 1 {
			p[0] = 1
		} else {
			rest := (1 - cemBaselineWeight) / float64(len(values)-1)
			for i := range p {
				p[i] = rest
			}
			bi := indexOfSetting(values, t.baseline.Get(id))
			if bi >= 0 {
				p[bi] = cemBaselineWeight
			}
		}
		c.probs[id] = p
	}
	return c
}

func (c *cemSearcher) Name() string { return "cem" }

func (c *cemSearcher) Done() bool { return c.done }

func (c *cemSearcher) Best() (knob.Config, float64) {
	if !c.haveBest {
		return c.t.baseline, 0
	}
	return c.best, c.bestPct
}

// sampleOne draws one configuration from the current distributions.
func (c *cemSearcher) sampleOne(src *rng.Source) knob.Config {
	cfg := c.t.baseline
	for _, id := range c.t.space.Knobs() {
		values := c.t.space.Values[id]
		p := c.probs[id]
		if len(values) == 0 || len(p) != len(values) {
			continue
		}
		r := src.Float64()
		pick := len(p) - 1 // float residue lands on the last bucket
		acc := 0.0
		for i, pi := range p {
			acc += pi
			if r < acc {
				pick = i
				break
			}
		}
		cfg = cfg.With(id, values[pick])
	}
	return cfg
}

func (c *cemSearcher) Propose(round int) *SearchRound {
	if c.done || round >= c.gens {
		return nil
	}
	src := rng.New(rng.Derive(c.t.in.Seed, "search/cem/gen/"+strconv.Itoa(round)))
	seen := map[knob.Config]bool{c.t.baseline: true}
	c.arms = c.arms[:0]
	if c.haveBest && !seen[c.best] {
		// Elitism: the incumbent re-races every generation on fresh
		// noise streams, so the final winner is never a config the
		// search stopped measuring generations ago.
		seen[c.best] = true
		c.arms = append(c.arms, c.best)
	}
	for tries := 0; len(c.arms) < c.pop && tries < c.pop*64; tries++ {
		cfg := c.sampleOne(src)
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		if c.t.sku.Validate(cfg) != nil {
			continue // unrealizable; resample rather than waste an arm
		}
		c.arms = append(c.arms, cfg)
	}
	if len(c.arms) == 0 {
		// Distribution mass collapsed onto the baseline/unrealizable
		// corner — nothing left to measure.
		c.done = true
		return nil
	}
	g := SearchGroup{Span: fmt.Sprintf("search.gen%d", round), Label: fmt.Sprintf("cem/gen%d", round)}
	for i, cfg := range c.arms {
		g.Arms = append(g.Arms, SearchArm{
			Label:   fmt.Sprintf("cem/%d/%d", round, i),
			Config:  cfg,
			Setting: fmt.Sprintf("arm%d", i),
		})
	}
	return &SearchRound{Control: c.t.baseline, Groups: []SearchGroup{g}}
}

func (c *cemSearcher) Observe(round, _ int, outs []ArmOutcome) Verdict {
	type scored struct {
		pos   int
		delta float64
	}
	var ranked []scored
	for pos, o := range outs {
		if !o.Measured() {
			continue
		}
		ranked = append(ranked, scored{pos: pos, delta: o.Outcome.DeltaPct})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].delta > ranked[j].delta })

	var v Verdict
	if len(ranked) == 0 {
		c.done = true
		v.Events = []decision.Event{decision.Converged(
			fmt.Sprintf("cem generation %d: no measurable arms; keeping %s", round, c.best))}
		v.Logs = []string{fmt.Sprintf("cem generation %d: no measurable arms", round)}
		return v
	}

	// Refit toward the elite fraction.
	ne := c.elites
	if ne > len(ranked) {
		ne = len(ranked)
	}
	elite := ranked[:ne]
	v.Accepted = make([]bool, len(outs))
	for _, e := range elite {
		v.Accepted[e.pos] = true
	}
	for _, id := range c.t.space.Knobs() {
		values := c.t.space.Values[id]
		p := c.probs[id]
		if len(values) == 0 || len(p) != len(values) {
			continue
		}
		counts := make([]float64, len(values))
		for _, e := range elite {
			if vi := indexOfSetting(values, c.arms[e.pos].Get(id)); vi >= 0 {
				counts[vi]++
			}
		}
		for i := range p {
			p[i] = (1-c.alpha)*p[i] + c.alpha*counts[i]/float64(ne)
		}
	}

	// Track the incumbent and the stall counter.
	top := ranked[0]
	improved := false
	if outs[top.pos].Outcome.Better() && (!c.haveBest || top.delta > c.bestPct) {
		if !c.haveBest || top.delta > c.bestPct+cemImproveEps {
			improved = true
		}
		c.best, c.bestPct, c.haveBest = c.arms[top.pos], top.delta, true
	}
	if improved {
		c.stalled = 0
	} else {
		c.stalled++
	}

	v.Attrs = []SpanAttr{
		{Key: "arms", Value: len(ranked)},
		{Key: "elites", Value: ne},
		{Key: "best_delta_pct", Value: top.delta},
	}
	v.Logs = []string{fmt.Sprintf("cem generation %d: %d arms, best %+.2f%% (incumbent %+.2f%%)",
		round, len(ranked), top.delta, c.bestPct)}
	if c.stalled >= c.patience || round == c.gens-1 {
		c.done = true
		why := fmt.Sprintf("stalled %d generations", c.stalled)
		if c.stalled < c.patience {
			why = "generation budget spent"
		}
		body := fmt.Sprintf("keeping baseline after %d generations (%s)", round+1, why)
		if c.haveBest {
			body = fmt.Sprintf("best %s (%+.2f%%) after %d generations (%s)",
				c.best, c.bestPct, round+1, why)
		}
		v.Events = []decision.Event{decision.Converged("cem: " + body)}
		v.Logs = append(v.Logs, "cem converged: "+body)
	}
	return v
}
