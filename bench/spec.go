package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specFile is BENCHMARK.json at the repository root: the single source
// of the workload list, every reported metric's name, unit and
// direction, and the regression bound of each end-to-end metric.
const specFile = "BENCHMARK.json"

// spec mirrors BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric's entry. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads the nearest BENCHMARK.json in the working directory or
// one of its parents.
func loadSpec() (*spec, error) {
	path, err := findSpec()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func findSpec() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, specFile)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or its parents", specFile)
		}
		dir = parent
	}
}

// outputs are end-to-end results that only some workloads produce, so
// they cannot sit in BENCHMARK.json's end_to_end list (which every
// workload reports). They appear in the printed report and the result
// files; compare judges them with the same rules, and the exact ones
// must repeat bit for bit.
var outputs = []metricSpec{
	{Name: "fresh_windows", Unit: "count", Better: "lower"},
	{Name: "gain_pct", Unit: "%", Better: "higher"},
	{Name: "virtual_hours", Unit: "h", Better: "lower"},
	{Name: "paper_qps_orders", Unit: "count", Better: "higher"},
	{Name: "epochs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "epoch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "epoch_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "fail_pct", Unit: "%", Better: "lower"},
}

// exact names the metrics that are simulated results or counts rather
// than host timings: for a fixed seed they repeat bit for bit, so any
// difference between two runs is a change in behaviour, not noise.
var exact = map[string]bool{
	"fresh_windows": true, "gain_pct": true, "virtual_hours": true,
	"paper_qps_orders": true, "fail_pct": true,
	"sim.windows": true, "sim.cache_hits": true, "sim.cache_hit_ratio": true,
	"sim.window_accesses":  true,
	"cache.l1d_miss_ratio": true, "cache.llc_miss_ratio": true,
	"tlb.miss_ratio": true, "prefetch.useful_ratio": true,
	"abtest.trials": true, "abtest.samples": true,
	"twin.pruned": true, "twin.prune_ratio": true, "twin.err_pct": true,
	"decision.events": true, "decision.jsonl_kb": true,
	"controller.retunes": true, "controller.rollouts": true,
	"controller.rollout_failures": true, "controller.quarantined": true,
	"controller.degraded_epochs": true,
}

// layerEffect records, before anything is measured, which end-to-end
// metrics a change to a layer should move and on which workloads.
type layerEffect struct {
	moves []string
	on    []string
}

var (
	tunes    = []string{"tune-cold", "tune-twin"}
	everyone = []string{"tune-cold", "tune-twin", "soak-chaos", "peak"}
)

// layerEffects covers every per-layer metric in BENCHMARK.json
// (TestSpecSchema keeps the two in step).
var layerEffects = map[string]layerEffect{
	"sim.window_ms":               {[]string{"run_s", "setup_s"}, everyone},
	"sim.windows":                 {[]string{"fresh_windows", "run_s"}, tunes},
	"sim.cache_hits":              {[]string{"fresh_windows", "run_s"}, tunes},
	"sim.cache_hit_ratio":         {[]string{"fresh_windows", "run_s"}, tunes},
	"sim.machine_build_ms":        {[]string{"epoch_p90_ms", "run_s"}, []string{"soak-chaos", "peak"}},
	"sim.machine_build_mb":        {[]string{"alloc_gb"}, []string{"soak-chaos"}},
	"sim.solve_us":                {[]string{"epoch_p50_ms", "run_s"}, []string{"soak-chaos", "tune-twin"}},
	"sim.findpeak_ms":             {[]string{"run_s"}, []string{"peak"}},
	"sim.engine_events_per_s":     {[]string{"run_s"}, []string{"peak"}},
	"workload.generate_ns":        {[]string{"run_s", "setup_s"}, everyone},
	"cache.access_ns":             {[]string{"run_s", "setup_s"}, everyone},
	"tlb.access_ns":               {[]string{"run_s", "setup_s"}, everyone},
	"prefetch.onaccess_ns":        {[]string{"run_s", "setup_s"}, everyone},
	"cache.l1d_miss_ratio":        {[]string{"gain_pct"}, tunes},
	"cache.llc_miss_ratio":        {[]string{"gain_pct"}, tunes},
	"tlb.miss_ratio":              {[]string{"gain_pct"}, tunes},
	"prefetch.useful_ratio":       {[]string{"gain_pct"}, tunes},
	"sim.window_accesses":         {[]string{"run_s"}, []string{"tune-cold"}},
	"sim.window_other_ms":         {[]string{"run_s"}, []string{"tune-cold"}},
	"emon.sample_us":              {[]string{"epoch_p50_ms", "run_s"}, []string{"soak-chaos", "tune-twin"}},
	"abtest.pair_ns":              {[]string{"epoch_p50_ms", "run_s"}, []string{"soak-chaos", "tune-twin"}},
	"abtest.trials":               {[]string{"virtual_hours", "run_s"}, tunes},
	"abtest.samples":              {[]string{"virtual_hours", "run_s"}, tunes},
	"twin.predict_us":             {[]string{"run_s"}, []string{"tune-twin"}},
	"twin.score_us":               {[]string{"run_s"}, []string{"tune-twin"}},
	"twin.calibrate_ms":           {[]string{"run_s"}, []string{"tune-twin"}},
	"twin.pruned":                 {[]string{"fresh_windows"}, []string{"tune-twin"}},
	"twin.prune_ratio":            {[]string{"fresh_windows"}, []string{"tune-twin"}},
	"twin.err_pct":                {[]string{"gain_pct"}, []string{"tune-twin"}},
	"decision.record_ns":          {[]string{"epoch_p50_ms", "alloc_gb"}, []string{"soak-chaos"}},
	"decision.events":             {[]string{"epoch_p50_ms", "alloc_gb"}, []string{"soak-chaos"}},
	"decision.jsonl_kb":           {[]string{"alloc_gb"}, []string{"soak-chaos"}},
	"core.retune_ms":              {[]string{"epoch_p90_ms"}, []string{"soak-chaos"}},
	"fleet.rollout_ms":            {[]string{"epoch_p90_ms"}, []string{"soak-chaos"}},
	"controller.retunes":          {[]string{"epoch_p50_ms", "epoch_p90_ms"}, []string{"soak-chaos"}},
	"controller.rollouts":         {[]string{"epoch_p50_ms", "epoch_p90_ms"}, []string{"soak-chaos"}},
	"controller.rollout_failures": {[]string{"epoch_p50_ms", "epoch_p90_ms"}, []string{"soak-chaos"}},
	"controller.quarantined":      {[]string{"epoch_p50_ms", "epoch_p90_ms"}, []string{"soak-chaos"}},
	"controller.degraded_epochs":  {[]string{"epoch_p50_ms", "epoch_p90_ms"}, []string{"soak-chaos"}},
	"runtime.gc_cycles":           {[]string{"run_s", "epoch_p90_ms"}, everyone},
	"runtime.gc_pause_ms":         {[]string{"run_s", "epoch_p90_ms"}, everyone},
	"attrib.window_pct":           {[]string{"run_s"}, everyone},
	"attrib.sample_pct":           {[]string{"run_s"}, everyone},
	"attrib.build_pct":            {[]string{"run_s"}, everyone},
	"attrib.other_pct":            {[]string{"run_s"}, everyone},
	// Tracing is off in every end-to-end run; this bounds what turning
	// it on would add to run_s.
	"telemetry.trace_overhead_pct": {[]string{"run_s"}, everyone},
}
