package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"softsku/internal/fleet/controller"
)

// childEnv makes the test binary act as the benchmark, so the smoke
// test can run the harness that starts one child process per workload.
const childEnv = "SOFTSKU_BENCH_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSpecSchema(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	workloads := map[string]bool{}
	for i, w := range s.Workloads {
		check(w.Name)
		workloads[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if i >= len(workloadDefs) || workloadDefs[i].name != w.Name {
			t.Errorf("workload %d is %s in %s but not in workloadDefs", i, w.Name, specFile)
		}
	}
	if len(workloadDefs) != len(s.Workloads) {
		t.Errorf("%d workloads in code, %d in %s", len(workloadDefs), len(s.Workloads), specFile)
	}
	maxBound := 0.0
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setup, ok := s.metric("setup_s"); !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound < maxBound {
		t.Errorf("setup_s must be in seconds, lower is better, with the largest bound: %+v", setup)
	}
	for _, m := range s.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
		e, ok := layerEffects[m.Name]
		if !ok || len(e.moves) == 0 || len(e.on) == 0 {
			t.Errorf("per-layer metric %s names no end-to-end metric or workload it should move", m.Name)
		}
		for _, x := range e.moves {
			if !isEndToEnd(s, x) && !isOutput(x) {
				t.Errorf("%s should move %s, which is no end-to-end metric", m.Name, x)
			}
		}
		for _, w := range e.on {
			if !workloads[w] {
				t.Errorf("%s names workload %s, which does not exist", m.Name, w)
			}
		}
	}
	for name := range layerEffects {
		if m, ok := s.metric(name); !ok || isEndToEnd(s, m.Name) || isOutput(m.Name) {
			t.Errorf("layerEffects has %s, which is no per-layer metric of %s", name, specFile)
		}
	}
	for name := range exact {
		if _, ok := s.metric(name); !ok {
			t.Errorf("exact names unknown metric %s", name)
		}
	}
}

// metric looks a metric up by name among the end-to-end metrics, the
// per-layer metrics and the workload-specific outputs.
func (s *spec) metric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer, outputs} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

func isEndToEnd(s *spec, name string) bool {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

func isOutput(name string) bool {
	for _, m := range outputs {
		if m.Name == name {
			return true
		}
	}
	return false
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: tail must sort
		}
		return v
	}
	if _, ok := tail(xs(99), 0.9); ok {
		t.Error("p90 of 99 samples has 9.9 beyond it; must not be reported")
	}
	if v, ok := tail(xs(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tail(xs(999), 0.99); ok {
		t.Error("p99 of 999 samples must not be reported")
	}
	if v, ok := tail(xs(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) for each case.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	runS := metricSpec{Name: "run_s", Better: "lower", Bound: 0.1}
	layer := metricSpec{Name: "sim.window_ms", Better: "lower"}
	ten := func(base float64, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	for _, c := range []struct {
		name         string
		ms           metricSpec
		exact        bool
		base, change []float64
		want         string
	}{
		{"identical", runS, false, ten(10, 0.1), ten(10, 0.1), "same"},
		{"clearly faster", runS, false, ten(10, 0.1), ten(8, 0.1), "better"},
		{"faster but only five pairs", runS, false, ten(10, 0.1)[:5], ten(8, 0.1)[:5], "same"},
		{"faster by less than the base's spread", runS, false, ten(10, 0.2), ten(9.9, 0.2), "same"},
		{"past the bound", runS, false, ten(10, 0.1), ten(11.5, 0.1), "worse"},
		{"within the bound", runS, false, ten(10, 0.1), ten(10.5, 0.1), "same"},
		{"spread wider than the bound", runS, false, ten(10, 1), ten(10.2, 1), "unresolved"},
		{"wide spread but every run better", runS, false, []float64{10, 12, 14}, []float64{9, 9.1, 9.2}, "same"},
		{"unbounded and clearly slower", layer, false, ten(10, 0.1), ten(12, 0.1), "worse"},
		{"unbounded and slightly slower", layer, false, ten(10, 0.1), ten(10.1, 0.1), "same"},
		{"higher is better", metricSpec{Better: "higher", Bound: 0.1}, false, ten(10, 0.1), ten(8, 0.1), "worse"},
		{"exact and equal", layer, true, []float64{21, 21}, []float64{21}, "same"},
		{"exact and one bit off", layer, true, []float64{3.748}, []float64{math.Nextafter(3.748, 4)}, "changed"},
		{"missing side", runS, false, nil, []float64{1}, "missing"},
	} {
		if got := verdict(c.ms, c.exact, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRunOneByOne: the soak workload times each epoch through Run(1);
// that must record the same ledger bytes as one Run of every epoch.
func TestRunOneByOne(t *testing.T) {
	w := newSoak(options{workers: 2}).(*soakWorkload)
	w.specs = []controller.PoolSpec{
		{Service: "Web", Region: "use", Servers: 8},
		{Service: "Cache1", Region: "use", Servers: 8},
		{Service: "Web", Region: "use-bw", SKU: "Broadwell16", Servers: 8},
	}
	soak := func(steps int) ([]byte, *controller.Report) {
		c, err := controller.New(w.cfg, w.specs)
		if err != nil {
			t.Fatal(err)
		}
		c.SetChaos(newChaos(w.chaosSeed))
		var rep *controller.Report
		for done := 0; done < w.epochs; done += steps {
			if rep, err = c.Run(steps); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := c.Ledger().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep
	}
	oneByOne, repA := soak(1)
	allAtOnce, repB := soak(w.epochs)
	if !bytes.Equal(oneByOne, allAtOnce) {
		t.Fatalf("ledger from Run(1) x%d differs from Run(%d)", w.epochs, w.epochs)
	}
	if *repA != *repB {
		t.Fatalf("reports differ:\n%+v\n%+v", repA, repB)
	}
}

// TestSmoke runs every workload at tiny scale through the full harness
// (one child process each, a result file, compare), then one traced
// workload with its probes and Chrome trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	dir := t.TempDir()
	t.Setenv(childEnv, "1")
	result := filepath.Join(dir, "result.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke", "-reps", "1", "-o", result}, &out, &errOut); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s\n%s", code, out.String(), errOut.String())
	}
	var res resultFile
	data, err := os.ReadFile(result)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range s.Workloads {
		rec := res.Runs[0][wl.Name]
		if rec == nil || !rec.Correct || rec.Digest == "" {
			t.Fatalf("%s: bad record %+v", wl.Name, rec)
		}
		for _, m := range s.EndToEnd {
			if _, ok := rec.Metrics[m.Name]; !ok {
				t.Errorf("%s: no %s", wl.Name, m.Name)
			}
		}
	}
	out.Reset()
	if code := run([]string{"compare", result, result}, &out, &errOut); code != 0 {
		t.Fatalf("compare of a result with itself exited %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "DIFFER") {
		t.Fatalf("a result compared with itself must not differ:\n%s", out.String())
	}

	trace := filepath.Join(dir, "trace.json")
	out.Reset()
	if code := run([]string{"-smoke", "-workload", "soak-chaos", "-trace", trace}, &out, &errOut); code != 0 {
		t.Fatalf("traced smoke run exited %d:\n%s\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool                       `json:"correct"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, m := range s.PerLayer {
		if _, ok := last.Metrics[m.Name]; !ok {
			t.Errorf("traced run reports no %s", m.Name)
		}
	}
	data, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, e := range ct.TraceEvents {
		spans[e.Name] = true
	}
	for _, want := range []string{"bench.workload", "bench.rep", "bench.epoch", "bench.probe/sim.window", "bench.probe/fleet.rollout"} {
		if !spans[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}

// TestNoLintSuppressions keeps the benchmark clean under softskulint,
// which scripts/check.sh runs over ./... including this directory,
// without suppression directives.
func TestNoLintSuppressions(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("//lint:"+"ignore")) {
			t.Errorf("%s carries a lint suppression", f)
		}
	}
}
