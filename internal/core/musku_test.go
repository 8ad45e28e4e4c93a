package core

import (
	"bytes"
	"strings"
	"testing"

	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/workload"
)

func TestBuildSpaceFullSeven(t *testing.T) {
	sku := platform.Skylake18()
	web, _ := workload.ByName("Web")
	s := BuildSpace(sku, web, nil)
	ids := s.Knobs()
	if len(ids) != 7 {
		t.Fatalf("Web on Skylake should expose all 7 knobs, got %v", ids)
	}
	// Paper ranges: 1.6–2.2 GHz core = 7 steps; 1.4–1.8 uncore = 5;
	// CDP off + 10 splits of 11 ways; 5 prefetch configs; 3 THP; 7 SHP.
	if n := len(s.Values[knob.CoreFreq]); n != 7 {
		t.Errorf("core freq settings = %d", n)
	}
	if n := len(s.Values[knob.UncoreFreq]); n != 5 {
		t.Errorf("uncore settings = %d", n)
	}
	if n := len(s.Values[knob.CDP]); n != 11 {
		t.Errorf("CDP settings = %d, want off + 10 splits", n)
	}
	if n := len(s.Values[knob.Prefetch]); n != 5 {
		t.Errorf("prefetch settings = %d", n)
	}
	if n := len(s.Values[knob.THP]); n != 3 {
		t.Errorf("THP settings = %d", n)
	}
	if n := len(s.Values[knob.SHP]); n != 7 {
		t.Errorf("SHP settings = %d, want 0..600 step 100", n)
	}
}

func TestBuildSpaceDisablesInapplicableKnobs(t *testing.T) {
	// Ads1 never allocates SHPs (§4) and its load-balancer design
	// cannot tolerate reboots (§6.1(3)) — so SHP and core count are out.
	sku := platform.Skylake18()
	ads1, _ := workload.ByName("Ads1")
	s := BuildSpace(sku, ads1, nil)
	for _, id := range s.Knobs() {
		if id == knob.SHP {
			t.Error("SHP must be disabled for Ads1")
		}
		if id == knob.CoreCount {
			t.Error("core count (reboot) must be disabled for Ads1")
		}
	}
}

func TestBuildSpaceKnobRestriction(t *testing.T) {
	sku := platform.Skylake18()
	web, _ := workload.ByName("Web")
	s := BuildSpace(sku, web, []knob.ID{knob.THP})
	ids := s.Knobs()
	if len(ids) != 1 || ids[0] != knob.THP {
		t.Fatalf("restricted space = %v", ids)
	}
}

func TestNewRejectsMIPSForCache(t *testing.T) {
	// §4: MIPS is not proportional to Cache's throughput.
	if _, err := New(DefaultInput("Cache1", "")); err == nil {
		t.Fatal("Cache1 with MIPS metric must be rejected")
	}
	in := DefaultInput("Cache1", "")
	in.Metric = MetricQPS
	if _, err := New(in); err != nil {
		t.Fatalf("Cache1 with QPS metric should work: %v", err)
	}
}

func TestNewDefaultsPlatformFromProfile(t *testing.T) {
	tool, err := New(DefaultInput("Ads2", ""))
	if err != nil {
		t.Fatal(err)
	}
	if tool.sku.Name != "Skylake20" {
		t.Fatalf("Ads2 should default to Skylake20, got %s", tool.sku.Name)
	}
}

// fastInput restricts knobs and shrinks the A/B budget so unit tests
// run in seconds.
func fastInput(svc, plat string, ids ...knob.ID) Input {
	in := DefaultInput(svc, plat)
	in.Knobs = ids
	in.AB.MinSamples = 150
	in.AB.MaxSamples = 1500
	return in
}

func TestIndependentSweepTHPSHP(t *testing.T) {
	tool, err := New(fastInput("Web", "Skylake18", knob.THP, knob.SHP))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Map) != 2 {
		t.Fatalf("expected 2 knob sweeps, got %d", len(res.Map))
	}
	// Fig 18: THP always wins; SHP sweet spot at 300 beats the 200
	// production reservation.
	thp := res.Map[0]
	if best := thp.Best(); best == nil || best.Setting.THP != knob.THPAlways {
		t.Errorf("THP sweep should choose always: %+v", thp)
	}
	shp := res.Map[1]
	if best := shp.Best(); best == nil || best.Setting.Int != 300 {
		got := "baseline"
		if best != nil {
			got = best.Setting.Name
		}
		t.Errorf("SHP sweep should choose 300, got %s", got)
	}
	if res.SoftSKU.THP != knob.THPAlways || res.SoftSKU.SHPCount != 300 {
		t.Errorf("composed soft SKU wrong: %v", res.SoftSKU)
	}
	if !res.VsProduction.Better() {
		t.Errorf("soft SKU must beat production: %v", res.VsProduction)
	}
	if res.Reboots == 0 {
		t.Error("SHP sweeps require reboots")
	}
	if res.VirtualHours <= 0 {
		t.Error("virtual tuning time must accumulate")
	}
}

func TestSweepKeepsProductionFrequency(t *testing.T) {
	// Fig 14: maximum core frequency is already optimal — µSKU should
	// match expert tuning and keep 2.2 GHz.
	tool, err := New(fastInput("Web", "Skylake18", knob.CoreFreq))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SoftSKU.CoreFreqMHz != 2200 {
		t.Fatalf("chose %d MHz, expert choice is 2200", res.SoftSKU.CoreFreqMHz)
	}
	// Every below-max setting must have been measured as a regression.
	for _, p := range res.Map[0].Points {
		if p.IsBaseline {
			continue
		}
		if !p.Outcome.Worse() {
			t.Errorf("setting %s should be significantly worse: %v", p.Setting.Name, p.Outcome)
		}
	}
}

// goldenExhaustiveLedger is the SHA-256 of TestExhaustiveSweepSmallSpace's
// ledger, recorded on the hand-written exhaustive loop before it moved
// behind the Searcher driver (see goldenLedgerPlain).
const goldenExhaustiveLedger = "6f9b1917221b90427993a541264911ffaeab68e8288072255f207eaed6714b80"

func TestExhaustiveSweepSmallSpace(t *testing.T) {
	in := fastInput("Web", "Skylake18", knob.THP)
	in.Sweep = SweepExhaustive
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	led := decision.NewLedger()
	tool.SetRecorder(led)
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SoftSKU.THP != knob.THPAlways {
		t.Fatalf("exhaustive sweep should find THP always, got %v", res.SoftSKU.THP)
	}
	var b bytes.Buffer
	if err := led.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if got := ledgerDigest(b.Bytes()); got != goldenExhaustiveLedger {
		t.Fatalf("exhaustive ledger digest %s, want %s", got, goldenExhaustiveLedger)
	}
}

func TestExhaustiveSweepRefusesHugeSpace(t *testing.T) {
	in := DefaultInput("Web", "Skylake18")
	in.Sweep = SweepExhaustive // full 7-knob cross product
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tool.Run(); err == nil ||
		!strings.Contains(err.Error(), "code pushes") {
		t.Fatalf("huge exhaustive space must be refused, got %v", err)
	}
}

func TestHillClimbImproves(t *testing.T) {
	in := fastInput("Web", "Skylake18", knob.THP, knob.SHP)
	in.Sweep = SweepHillClimb
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.VsProduction.Better() {
		t.Fatalf("hill climb should find an improvement: %v", res.VsProduction)
	}
}

func TestBinarySearchSHP(t *testing.T) {
	in := fastInput("Web", "Skylake18", knob.SHP)
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	best, tests, err := tool.BinarySearchSHP(0, 600, 50)
	if err != nil {
		t.Fatal(err)
	}
	if best < 200 || best > 450 {
		t.Fatalf("binary search found %d, expected near the 300 sweet spot", best)
	}
	if tests >= 13 {
		t.Fatalf("binary search should beat the 13-point linear sweep: %d tests", tests)
	}
}

func TestBinarySearchSHPRejectsNonUsers(t *testing.T) {
	tool, err := New(fastInput("Ads1", "Skylake18", knob.THP))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tool.BinarySearchSHP(0, 600, 50); err == nil {
		t.Fatal("Ads1 does not use SHPs; search must refuse")
	}
}

func TestValidateDeployment(t *testing.T) {
	in := fastInput("Web", "Skylake18", knob.THP)
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	soft := tool.Baseline().With(knob.THP, knob.THPSetting(knob.THPAlways)).
		With(knob.SHP, knob.IntSetting("300", 300))
	v, err := tool.Validate(soft, 3, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Pushes) != 3 {
		t.Fatalf("pushes = %d", len(v.Pushes))
	}
	if !v.StableAdvantage || v.MeanDeltaPct <= 0 {
		t.Fatalf("soft SKU advantage should be stable across code pushes: %+v", v.Pushes)
	}
	// ODS must hold both QPS series per push, plus the mirrored
	// telemetry series that share the store.
	qps, mirrored := 0, 0
	for _, n := range v.Store.Names() {
		switch {
		case strings.HasPrefix(n, "push"):
			qps++
		case strings.HasPrefix(n, "telemetry/"):
			mirrored++
		}
	}
	if qps != 6 {
		t.Fatalf("QPS series = %d, want 6 (%v)", qps, v.Store.Names())
	}
	if mirrored == 0 {
		t.Fatalf("no telemetry series mirrored into ODS: %v", v.Store.Names())
	}
	if v.Store.Len("push0/softsku.qps") != 48 {
		t.Fatalf("samples per push = %d", v.Store.Len("push0/softsku.qps"))
	}
	// Mirrored series carry one point per push.
	if got := v.Store.Len("telemetry/softsku_sim_events_total"); got != 3 {
		t.Fatalf("mirrored points = %d, want 3", got)
	}
}

func TestFormatMap(t *testing.T) {
	tool, err := New(fastInput("Web", "Skylake18", knob.THP))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatMap(res)
	if !strings.Contains(out, "thp") || !strings.Contains(out, "always") {
		t.Fatalf("map table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "<= chosen") {
		t.Fatalf("map table missing chosen marker:\n%s", out)
	}
}

func TestPerfPerWattMetric(t *testing.T) {
	// §7 extension: optimizing MIPS/W instead of MIPS flips the core
	// frequency choice for memory-bound Web — µSKU trades peak
	// performance for efficiency.
	in := fastInput("Web", "Skylake18", knob.CoreFreq)
	in.Metric = MetricPerfPerWatt
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SoftSKU.CoreFreqMHz >= 2200 {
		t.Fatalf("perf/watt tuning should pick a lower frequency, got %d MHz",
			res.SoftSKU.CoreFreqMHz)
	}
	if !res.VsProduction.Better() {
		t.Fatalf("efficiency soft SKU should beat production on MIPS/W: %v", res.VsProduction)
	}
}

func TestParsePerfWattMetric(t *testing.T) {
	in, err := ParseInput("microservice = Web\nmetric = perfwatt\n")
	if err != nil || in.Metric != MetricPerfPerWatt {
		t.Fatalf("parse perfwatt: %+v %v", in, err)
	}
}
