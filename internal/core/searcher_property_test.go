package core

import (
	"fmt"
	"testing"

	"softsku/internal/abtest"
	"softsku/internal/knob"
	"softsku/internal/rng"
)

// propertyMaxRounds bounds every searcher's round count: hill climbing
// has the largest round budget (hillMaxRounds); the sweeps take one
// round.
const propertyMaxRounds = 24

// randomSpace restricts the tool to a random small design space: each
// applicable knob survives with probability 0.6 and keeps one to three
// of its settings, in presentation order. The production baseline may
// or may not be among them.
func randomSpace(tool *Tool, src *rng.Source) {
	sp := knob.NewSpace()
	for _, id := range tool.space.Knobs() {
		if !src.Bool(0.6) {
			continue
		}
		values := tool.space.Values[id]
		keep := 1 + src.Intn(3)
		var picked []knob.Setting
		for i, v := range values {
			// Selection sampling: keep exactly min(keep, len) settings.
			if src.Intn(len(values)-i) < keep-len(picked) {
				picked = append(picked, v)
			}
		}
		sp.Set(id, picked...)
	}
	tool.space = sp
}

// driveSearcher plays runSearch's part without a simulator: it proposes
// rounds until the searcher returns nil or reports Done, answering
// every arm from a synthetic oracle — pruned when the SKU rejects the
// configuration, otherwise skipped or twin-pruned at random, else
// measured as effect(arm) - effect(control) plus noise. It fails the
// test on a reused trial label or an oversized round, and returns the
// rounds spent.
func driveSearcher(t *testing.T, tool *Tool, s Searcher, src *rng.Source,
	effect func(knob.Config) float64) (rounds int) {
	t.Helper()
	maxArms := tool.space.Size() + tool.space.IndependentPoints()
	labels := map[string]bool{}
	for round := 0; round <= propertyMaxRounds; round++ {
		rd := s.Propose(round)
		if rd == nil {
			return rounds
		}
		if round == propertyMaxRounds {
			t.Fatalf("%s proposed round %d; bound is %d rounds", s.Name(), round, propertyMaxRounds)
		}
		rounds++
		inRound := 0
		for g, grp := range rd.Groups {
			outs := make([]ArmOutcome, len(grp.Arms))
			for i, arm := range grp.Arms {
				if labels[arm.Label] {
					t.Fatalf("%s round %d: trial label %q reused", s.Name(), round, arm.Label)
				}
				labels[arm.Label] = true
				switch r := src.Float64(); {
				case tool.sku.Validate(arm.Config) != nil:
					outs[i].Pruned = true
				case r < 0.05:
					outs[i].Skipped = true
				case r < 0.10:
					outs[i].TwinPruned = true
				default:
					delta := effect(arm.Config) - effect(rd.Control) + src.Norm(0, 0.3)
					outs[i].Outcome = abtest.Outcome{DeltaPct: delta, Significant: delta > 0.5 || delta < -0.5}
				}
			}
			inRound += len(grp.Arms)
			s.Observe(round, g, outs)
		}
		if inRound > maxArms {
			t.Fatalf("%s round %d proposed %d arms; bound is %d", s.Name(), round, inRound, maxArms)
		}
		if s.Done() {
			return rounds
		}
	}
	return rounds
}

// TestSearchersTerminate is the termination property for every sweep
// mode, on random small knob spaces across the paper's services and
// platforms: each Searcher returns a nil round or reports Done within
// propertyMaxRounds rounds, proposes at most Size+IndependentPoints
// arms per round, and never reuses a trial label (labels seed the
// trials' rng streams). An endless loop like the SHP ternary search's
// hazard band (TestBinarySearchSHPHazardBand) fails here, not as a
// package timeout.
func TestSearchersTerminate(t *testing.T) {
	services := []string{"Web", "Feed1", "Feed2", "Ads1", "Ads2", "Cache1", "Cache2"}
	platforms := []string{"Skylake18", "Skylake20", "Broadwell16"}
	modes := []SweepMode{SweepIndependent, SweepExhaustive, SweepHillClimb}
	most := map[SweepMode]int{}
	for c := 0; c < 120; c++ {
		src := rng.New(rng.Derive(7, fmt.Sprintf("property/%d", c)))
		in := DefaultInput(services[c%len(services)], platforms[(c/len(services))%len(platforms)])
		in.Metric = MetricQPS
		in.Seed = uint64(c + 1)
		for _, mode := range modes {
			tool, err := New(in)
			if err != nil {
				t.Fatal(err)
			}
			caseSrc := src.Split(mode.String())
			randomSpace(tool, caseSrc)
			// A fixed per-setting effect, so an accepted move is a real
			// improvement and the oracle rewards consistent directions.
			weights := map[string]float64{}
			for _, id := range tool.space.Knobs() {
				for _, v := range tool.space.Values[id] {
					weights[id.String()+"="+v.Name] = caseSrc.Norm(0, 2)
				}
			}
			effect := func(cfg knob.Config) float64 {
				sum := 0.0
				for _, id := range tool.space.Knobs() {
					sum += weights[id.String()+"="+cfg.Get(id).Name]
				}
				return sum
			}
			name := fmt.Sprintf("case %d %s on %s, %s, %d points", c, in.Microservice, in.Platform, mode, tool.space.Size())
			var res Result
			var s Searcher
			switch mode {
			case SweepIndependent:
				s = newIndependentSearcher(tool, &res)
			case SweepExhaustive:
				if s, err = newExhaustiveSearcher(tool); err != nil {
					if tool.space.Size() <= exhaustiveMaxPoints {
						t.Fatalf("%s: refused: %v", name, err)
					}
					continue
				}
			case SweepHillClimb:
				s = newHillSearcher(tool)
			}
			rounds := driveSearcher(t, tool, s, caseSrc, effect)
			if rounds > most[mode] {
				most[mode] = rounds
			}
			if mode == SweepIndependent || mode == SweepExhaustive {
				if rounds > 1 || !s.Done() {
					t.Fatalf("%s: one-round sweep ran %d rounds (done %v)", name, rounds, s.Done())
				}
			}
			if mode == SweepIndependent && len(res.Map) != len(tool.space.Knobs()) {
				t.Fatalf("%s: design-space map has %d knobs, space %d", name, len(res.Map), len(tool.space.Knobs()))
			}
		}
	}
	for _, mode := range modes {
		t.Logf("%s: at most %d rounds", mode, most[mode])
	}
}
