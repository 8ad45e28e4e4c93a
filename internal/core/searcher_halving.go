package core

import (
	"fmt"
	"sort"

	"softsku/internal/abtest"
	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/rng"
)

// halvingSearcher implements successive halving over a sampled
// population of cross-knob configurations (AutoTune-style
// early-stopping of clearly-losing arms): race every live arm against
// the baseline on a shortened characterization budget, keep the top
// half by measured delta, double the budget, repeat until one arm
// remains — which races at the run's full budget before it is
// accepted.
//
// The simcache (DESIGN.md §11) is what makes the revisits nearly free:
// its key is (config, run seed), not the sample budget, so an arm that
// survives into a longer rung re-uses both machines' characterization
// windows — only the cheap sampling loop re-runs. Fresh windows are
// therefore bounded by the population size, not by rungs × arms.
//
// Determinism: the population is drawn from rng.Derive(seed,
// "search/halving/population") on the serial phase, tiny spaces
// enumerate instead of sampling, ranking sorts stably on (delta desc,
// population order), and rung arithmetic is integer — so the searcher
// is a pure function of (Input, seed) like everything else.
type halvingSearcher struct {
	t       *Tool
	pop     []knob.Config // sampled population; index is the stable arm id
	live    []int         // arm ids still racing, in population order
	rungs   int           // total rungs: ceil(log2(len(pop))), min 1
	done    bool
	best    knob.Config
	bestPct float64
}

const (
	// halvingPopulation is the default population size. It is chosen to
	// keep fresh characterization windows below the independent sweep's
	// count on the benchmark spaces while still covering multi-knob
	// interactions the one-knob-at-a-time sweep cannot see.
	halvingPopulation = 16
	// halvingMinSamples floors a shortened rung's per-arm sample cap:
	// below this the Welch test is pure noise and abtest's zero-value
	// hardening would re-patch tiny MinSamples anyway.
	halvingMinSamples = 60
)

func newHalvingSearcher(t *Tool) *halvingSearcher {
	h := &halvingSearcher{t: t, best: t.baseline}
	h.pop = t.samplePopulation(halvingPopulation, "search/halving/population")
	for i := range h.pop {
		h.live = append(h.live, i)
	}
	h.rungs = 1
	for 1<<uint(h.rungs) < len(h.pop) {
		h.rungs++
	}
	if len(h.pop) == 0 {
		h.done = true
	}
	return h
}

func (h *halvingSearcher) Name() string { return "successive halving" }

func (h *halvingSearcher) Done() bool { return h.done }

func (h *halvingSearcher) Best() (knob.Config, float64) { return h.best, h.bestPct }

// rungAB shortens the run's A/B budget for rung r: the per-arm sample
// cap halves once per remaining rung, so rung 0 races the full field
// cheaply and the final rung measures the survivors at full budget.
func (h *halvingSearcher) rungAB(r int) *abtest.Config {
	ab := h.t.in.AB
	div := 1 << uint(h.rungs-1-r)
	if div > 1 && ab.MaxSamples > 0 {
		c := ab.MaxSamples / div
		if c < halvingMinSamples {
			c = halvingMinSamples
		}
		if c < ab.MaxSamples {
			ab.MaxSamples = c
		}
		// abtest's zero-value hardening clamps MinSamples to MaxSamples,
		// but patches MinSamples < 2 up to its 300 default — keep the
		// floor explicit so a shortened rung stays short.
		if ab.MinSamples > ab.MaxSamples || ab.MinSamples < 2 {
			ab.MinSamples = ab.MaxSamples
		}
	}
	return &ab
}

func (h *halvingSearcher) Propose(round int) *SearchRound {
	if h.done || round >= h.rungs || len(h.live) == 0 {
		return nil
	}
	g := SearchGroup{Span: fmt.Sprintf("search.rung%d", round), Label: fmt.Sprintf("halving/rung%d", round)}
	for _, id := range h.live {
		g.Arms = append(g.Arms, SearchArm{
			// The rung is part of the label, so a surviving arm's next
			// race draws fresh noise streams — survival must be confirmed
			// on new samples, not by replaying the lucky ones.
			Label:   fmt.Sprintf("halving/%d/%d", round, id),
			Config:  h.pop[id],
			Setting: fmt.Sprintf("arm%d", id),
		})
	}
	return &SearchRound{Control: h.t.baseline, Groups: []SearchGroup{g}, AB: h.rungAB(round)}
}

func (h *halvingSearcher) Observe(round, _ int, outs []ArmOutcome) Verdict {
	type scored struct {
		pos    int // index into outs / this rung's arms
		id     int // stable population id
		delta  float64
		better bool
	}
	var ranked []scored
	for pos, o := range outs {
		if !o.Measured() {
			continue
		}
		ranked = append(ranked, scored{
			pos: pos, id: h.live[pos],
			delta:  o.Outcome.DeltaPct,
			better: o.Outcome.Better(),
		})
	}
	// Stable: equal deltas keep population order, so the ranking is a
	// pure function of the outcomes.
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].delta > ranked[j].delta })

	var v Verdict
	budget := h.rungAB(round).MaxSamples
	if len(ranked) == 0 {
		// Every arm pruned or skipped (sustained chaos): keep the
		// baseline rather than promoting an unmeasured config.
		h.done, h.live = true, nil
		v.Attrs = []SpanAttr{{Key: "arms", Value: 0}}
		v.Events = []decision.Event{decision.Converged(
			fmt.Sprintf("halving rung %d: no measurable arms; keeping baseline", round))}
		v.Logs = []string{fmt.Sprintf("halving rung %d: no measurable arms; keeping baseline", round)}
		return v
	}
	final := round == h.rungs-1 || len(ranked) == 1
	keep := (len(ranked) + 1) / 2
	if final {
		keep = 1
	}
	v.Accepted = make([]bool, len(outs))
	h.live = h.live[:0]
	for _, s := range ranked[:keep] {
		v.Accepted[s.pos] = true
		h.live = append(h.live, s.id)
	}
	sort.Ints(h.live) // next rung races survivors in population order
	top := ranked[0]
	v.Attrs = []SpanAttr{
		{Key: "arms", Value: len(ranked)},
		{Key: "survivors", Value: keep},
		{Key: "best_delta_pct", Value: top.delta},
	}
	if !final {
		v.Events = []decision.Event{decision.RungAdvanced(round, len(ranked), keep, budget)}
		v.Logs = []string{fmt.Sprintf("halving rung %d: %d arms -> %d survivors (cap %d samples/arm, best %+.2f%%)",
			round, len(ranked), keep, budget, top.delta)}
		return v
	}
	h.done = true
	if top.better {
		h.best, h.bestPct = h.pop[top.id], top.delta
		v.Events = []decision.Event{
			decision.RungAdvanced(round, len(ranked), keep, budget),
			decision.Converged(fmt.Sprintf("halving: arm%d wins after %d rungs (%+.2f%%)", top.id, round+1, top.delta)),
		}
		v.Logs = []string{fmt.Sprintf("halving converged after %d rungs: arm%d %s (%+.2f%%)",
			round+1, top.id, h.best, top.delta)}
	} else {
		// The last survivor never beat the baseline significantly.
		v.Accepted = nil
		v.Events = []decision.Event{
			decision.RungAdvanced(round, len(ranked), 0, budget),
			decision.Converged(fmt.Sprintf("halving: no arm improved on the baseline after %d rungs", round+1)),
		}
		v.Logs = []string{fmt.Sprintf("halving converged after %d rungs: keeping baseline", round+1)}
	}
	return v
}

// samplePopulation draws up to target distinct, realizable, non-
// baseline configurations from the rng stream named by label. Spaces
// no bigger than the target skip sampling and enumerate — every
// realizable point races.
//
// Samples mutate the baseline on a geometric number of knobs (half
// the draws move one knob, a quarter two, and so on): the production
// baseline is expert-tuned, so most of the win lives a small edit
// away, while the multi-mutation tail still probes the cross-knob
// interactions the independent sweep cannot see. Uniform sampling
// over the full cross product would put nearly every arm three-plus
// knobs from the baseline — overwhelmingly losing configurations.
// Runs on the serial phase (constructor time) only.
func (t *Tool) samplePopulation(target int, label string) []knob.Config {
	var pop []knob.Config
	if t.space.Size() <= target+1 {
		t.space.Enumerate(t.baseline, func(cfg knob.Config) bool {
			if cfg != t.baseline && t.sku.Validate(cfg) == nil {
				pop = append(pop, cfg)
			}
			return true
		})
		return pop
	}
	src := rng.New(rng.Derive(t.in.Seed, label))
	ids := t.space.Knobs()
	seen := map[knob.Config]bool{t.baseline: true}
	order := make([]int, len(ids))
	for tries := 0; len(pop) < target && tries < target*64; tries++ {
		k := 1
		for k < len(ids) && src.Bool(0.5) {
			k++
		}
		// Partial Fisher-Yates: the first k entries of order pick which
		// knobs mutate.
		for i := range order {
			order[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + src.Intn(len(order)-i)
			order[i], order[j] = order[j], order[i]
		}
		cfg := t.baseline
		for _, oi := range order[:k] {
			id := ids[oi]
			values := t.space.Values[id]
			bi := indexOfSetting(values, t.baseline.Get(id))
			if len(values) < 2 {
				continue
			}
			// Draw among the non-baseline settings only.
			vi := src.Intn(len(values) - 1)
			if vi >= bi {
				vi++
			}
			cfg = cfg.With(id, values[vi])
		}
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		if t.sku.Validate(cfg) != nil {
			continue // unrealizable; doesn't consume a population slot
		}
		pop = append(pop, cfg)
	}
	return pop
}
