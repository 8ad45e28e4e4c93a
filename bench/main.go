// Command bench is softsku's benchmark: four closed-loop workloads
// timed end to end, and probes that time each layer from outside
// through its package's public functions. BENCHMARK.json at the
// repository root names the workloads and metrics and fixes each
// end-to-end metric's regression bound; README.md is the glossary.
//
//	go -C bench run .                         # every workload, 5 reps each, one fresh process per workload
//	go -C bench run . -workload peak          # one workload in this process
//	go -C bench run . -trace out/trace.json   # traced reps, every layer probe, a Chrome trace
//	go -C bench run . compare A.json B.json   # verdicts against BENCHMARK.json's bounds
//	bash bench/run.sh -workload peak -seconds 15 -trace 0   # build into .bench_build, then run
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"softsku/internal/sim"
	"softsku/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the flags of one invocation.
type options struct {
	workload string
	seed     *uint64 // nil: each workload's default seeds
	seconds  float64 // measuring time per workload; 0 counts reps instead
	reps     int
	trace    traceFlag
	workers  int
	smoke    bool
	record   string
	out      string
	runs     int
}

// seedOr returns the -seed override, or def without one.
func (o options) seedOr(def uint64) uint64 {
	if o.seed != nil {
		return *o.seed
	}
	return def
}

// traceFlag is -trace: "0" untraced, "1" traced, or the path of a
// Chrome trace to write (traced).
type traceFlag struct {
	on   bool
	path string
}

func (t *traceFlag) String() string {
	switch {
	case t.path != "":
		return t.path
	case t.on:
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(s string) error {
	switch s {
	case "0", "false":
		*t = traceFlag{}
	case "1", "true":
		*t = traceFlag{on: true}
	default:
		*t = traceFlag{on: true, path: s}
	}
	return nil
}

type seedFlag struct{ o *options }

func (s seedFlag) String() string {
	if s.o == nil || s.o.seed == nil {
		return "default"
	}
	return strconv.FormatUint(*s.o.seed, 10)
}

func (s seedFlag) Set(v string) error {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return err
	}
	s.o.seed = &n
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, each in a fresh child process)")
	fs.Var(seedFlag{&o}, "seed", "override the workloads' seeds, all but the soak's controller seed (default: each workload's own)")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure each workload for this many seconds (0: a fixed number of reps)")
	fs.IntVar(&o.reps, "reps", 0, "reps per workload when -seconds is 0 (default 5; with -trace, 1 traced and 1 untraced)")
	fs.Var(&o.trace, "trace", "0, 1, or a Chrome trace file: add traced reps and every layer probe, and report per-layer metrics")
	fs.IntVar(&o.workers, "workers", 2, "trial workers and GOMAXPROCS, capped at the CPU count")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny scale: the thp,shp tune, 24 servers for 2 epochs, one peak service, one set-up pass; no default-seed checks")
	fs.StringVar(&o.record, "record", "", "write the workload's full record as JSON to this file")
	fs.StringVar(&o.out, "o", "", "result file of a run of every workload (default out/result-<time>.json)")
	fs.IntVar(&o.runs, "runs", 1, "run every workload this many times into one result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workers > runtime.NumCPU() {
		o.workers = runtime.NumCPU()
	}
	if o.workers < 1 {
		o.workers = 1
	}
	runtime.GOMAXPROCS(o.workers)
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "bench: warning: %d CPU; timings will not match a 2-CPU host\n", runtime.NumCPU())
	}
	if o.reps <= 0 {
		o.reps = 5
		if o.trace.on {
			o.reps = 1
		}
	}
	s, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.workload == "" {
		return runAll(o, s, stdout, stderr)
	}
	rec, err := runWorkload(o, s, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.record != "" {
		if err := writeJSON(o.record, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := writeResultLine(stdout, s, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// record is everything one workload run measured.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"digest"`
	Result     string             `json:"result"`
	RepSeconds []float64          `json:"rep_seconds"`
	Metrics    map[string]float64 `json:"metrics"`
	Provenance provenance         `json:"provenance"`
}

// provenance pins down what produced a record.
type provenance struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // also the trial worker count
	CPU        string `json:"cpu"`
	Revision   string `json:"revision"`
	Seed       string `json:"seed"`
}

func newProvenance(o options) provenance {
	p := provenance{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: runtime.GOARCH, Revision: "unknown", Seed: seedFlag{&o}.String(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		p.Revision += dirty
	}
	return p
}

// repSample is one successful rep.
type repSample struct {
	sec     float64
	allocB  float64
	gc      float64
	gcPause time.Duration
	out     repOut
}

// runWorkload sets the workload up, runs its reps closed-loop until
// the reps or seconds are spent, checks every rep, and (traced) runs
// the layer probes.
func runWorkload(o options, s *spec, stdout, stderr io.Writer) (*record, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	w := def.build(o)
	rec := &record{Workload: def.name, Seed: o.seedOr(def.seed), Traced: o.trace.on,
		Metrics: map[string]float64{}, Provenance: newProvenance(o)}
	checkGolden := !o.smoke && rec.Seed == def.seed

	var ref string
	setupS := make([]float64, def.setups)
	if o.smoke {
		setupS = setupS[:1]
	}
	for i := range setupS {
		t0 := time.Now()
		d, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setupS[i] = time.Since(t0).Seconds()
		if i > 0 && d != ref {
			return nil, fmt.Errorf("%s set-up %d: decisions %s differ from the first set-up's %s", def.name, i, d, ref)
		}
		ref = d
	}
	rec.Metrics["setup_s"] = median(setupS)

	var tr *telemetry.Tracer
	var root *telemetry.Span
	if o.trace.on {
		tr = telemetry.NewTracer()
		root = tr.StartSpan("bench.workload", "bench")
		root.Set("workload", def.name)
		defer root.End()
	}
	hits := telemetry.Default.Counter("softsku_sim_cache_hits_total", "")
	var plain, traced []repSample
	start := time.Now()
	// A failed check ends the run: its result is wrong whatever follows.
	for n := 0; rec.Failed == 0; n++ {
		if len(plain) > 0 && (!o.trace.on || len(traced) > 0) {
			if o.seconds > 0 && time.Since(start).Seconds() >= o.seconds ||
				o.seconds <= 0 && len(plain) >= o.reps && (!o.trace.on || len(traced) >= o.reps) {
				break
			}
		}
		traceRep := o.trace.on && n%2 == 1
		var rtr *telemetry.Tracer
		var sp *telemetry.Span
		if traceRep {
			rtr = tr
			sp = root.StartChild("bench.rep", "bench")
			sp.Set("rep", n)
		}
		w0, h0 := sim.WindowsExecuted(), hits.Value()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := w.rep(rtr, sp)
		sec := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		sp.End()
		rec.Attempted++
		if err == nil && ref == "" {
			ref = out.digest
		}
		if err == nil && out.digest != ref {
			err = fmt.Errorf("decisions differ from the reference: digest %s, want %s", out.digest, ref)
		}
		if err == nil && checkGolden {
			err = w.golden(out)
		}
		if err != nil {
			rec.Failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("rep %d: %v", n, err))
			continue
		}
		rec.Digest, rec.Result = out.digest, out.result
		out.values["sim.windows"] = sim.WindowsExecuted() - w0
		out.values["sim.cache_hits"] = hits.Value() - h0
		r := repSample{sec: sec, allocB: float64(m1.TotalAlloc - m0.TotalAlloc),
			gc: float64(m1.NumGC - m0.NumGC), gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs), out: out}
		if traceRep {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	m := rec.Metrics
	rec.RepSeconds = secsOf(plain)
	m["run_s"] = median(rec.RepSeconds)
	m["alloc_gb"] = medianOf(plain, func(r repSample) float64 { return r.allocB / 1e9 })
	m["max_rss_mb"] = maxRSSMB()
	m["fail_pct"] = 100 * float64(rec.Failed) / float64(rec.Attempted)
	for _, out := range outputs {
		if reported(plain, out.Name) {
			m[out.Name] = medianOf(plain, func(r repSample) float64 { return r.out.values[out.Name] })
		}
	}
	var steps []float64
	for _, r := range plain {
		steps = append(steps, r.out.stepsMS...)
	}
	if len(steps) > 0 {
		m["epochs_per_s"] = medianOf(plain, func(r repSample) float64 { return float64(len(r.out.stepsMS)) / r.sec })
		m["epoch_p50_ms"] = median(steps)
		if p90, ok := tail(steps, 0.9); ok {
			m["epoch_p90_ms"] = p90
		}
	}

	rec.Correct = rec.Failed == 0
	if o.trace.on && rec.Correct {
		if err := layerMetrics(o, root, plain, traced, m); err != nil {
			return nil, err
		}
	}
	printReport(stdout, s, rec, len(steps))
	if tr != nil {
		root.End()
		printSelfTimes(stdout, selfTimes(tr.Tree()))
		if o.trace.path != "" {
			if err := writeChromeTrace(o.trace.path, tr); err != nil {
				return nil, err
			}
		}
	}
	return rec, nil
}

// layerMetrics adds the per-layer metrics: each plain rep's counts, the
// probes' unit costs, the rep time they account for, and what tracing
// adds.
func layerMetrics(o options, root *telemetry.Span, plain, traced []repSample, m map[string]float64) error {
	for name := range layerEffects {
		if reported(plain, name) {
			m[name] = medianOf(plain, func(r repSample) float64 { return r.out.values[name] })
		}
	}
	for _, name := range []string{"controller.retunes", "controller.rollouts", "controller.rollout_failures",
		"controller.quarantined", "controller.degraded_epochs", "twin.pruned", "twin.prune_ratio", "twin.err_pct",
		"abtest.trials", "abtest.samples", "decision.events", "decision.jsonl_kb"} {
		if _, ok := m[name]; !ok {
			m[name] = 0 // this workload has no such layer
		}
	}
	m["sim.cache_hit_ratio"] = 0
	if n := m["sim.windows"] + m["sim.cache_hits"]; n > 0 {
		m["sim.cache_hit_ratio"] = m["sim.cache_hits"] / n
	}
	m["runtime.gc_cycles"] = medianOf(plain, func(r repSample) float64 { return r.gc })
	m["runtime.gc_pause_ms"] = medianOf(plain, func(r repSample) float64 { return float64(r.gcPause) / 1e6 })
	plainS := median(secsOf(plain))
	m["telemetry.trace_overhead_pct"] = 100 * (median(secsOf(traced)) - plainS) / plainS

	env, err := newProbeEnv(o)
	if err != nil {
		return err
	}
	if err := runProbes(env, root, m); err != nil {
		return err
	}
	// Shares of the rep's host time, from counts × probe unit costs. One
	// A/B sample pair reads two EMON samples. With several workers the
	// shares are of one CPU's time and can sum past 100%.
	repMS := plainS * 1e3
	window := m["sim.windows"] * m["sim.window_ms"]
	sample := m["abtest.samples"] * (2*m["emon.sample_us"]/1e3 + m["abtest.pair_ns"]/1e6)
	build := m["sim.cache_hits"] * m["sim.machine_build_ms"]
	m["attrib.window_pct"] = 100 * window / repMS
	m["attrib.sample_pct"] = 100 * sample / repMS
	m["attrib.build_pct"] = 100 * build / repMS
	m["attrib.other_pct"] = 100 - m["attrib.window_pct"] - m["attrib.sample_pct"] - m["attrib.build_pct"]
	return nil
}

// reported says whether the reps report a value of that name.
func reported(rs []repSample, name string) bool {
	if len(rs) == 0 {
		return false
	}
	_, ok := rs[0].out.values[name]
	return ok
}

func medianOf(rs []repSample, f func(repSample) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func secsOf(rs []repSample) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.sec
	}
	return xs
}

// maxRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func printReport(w io.Writer, s *spec, rec *record, epochs int) {
	p := rec.Provenance
	fmt.Fprintf(w, "== %s  seed %d  %d/%d reps ok  (%s, %d workers and GOMAXPROCS, nproc %d, %s)\n",
		rec.Workload, rec.Seed, rec.Attempted-rec.Failed, rec.Attempted, p.Go, p.GOMAXPROCS, p.NProc, p.CPU)
	fmt.Fprintf(w, "  %s\n  digest %s\n", rec.Result, rec.Digest)
	fmt.Fprintf(w, "  rep seconds %.4g", rec.RepSeconds)
	if epochs > 0 {
		fmt.Fprintf(w, "  (%d epochs timed)", epochs)
	}
	fmt.Fprintln(w)
	row := func(ms metricSpec, note string) {
		if v, ok := rec.Metrics[ms.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s %s\n", ms.Name, v, ms.Unit, note)
		}
	}
	for _, ms := range s.EndToEnd {
		row(ms, "")
	}
	for _, ms := range outputs {
		row(ms, "")
	}
	for _, ms := range s.PerLayer {
		e := layerEffects[ms.Name]
		row(ms, fmt.Sprintf("moves %s on %s", strings.Join(e.moves, ","), strings.Join(e.on, ",")))
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// valueUnit is one metric in the last line of output.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResultLine prints the run's summary as the last line of
// standard output: every end-to-end metric of BENCHMARK.json, or every
// per-layer one when traced.
func writeResultLine(w io.Writer, s *spec, rec *record) error {
	list := s.EndToEnd
	if rec.Traced {
		list = s.PerLayer
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]valueUnit{}}
	for _, ms := range list {
		v, ok := rec.Metrics[ms.Name]
		if !ok && rec.Correct {
			return fmt.Errorf("%s: metric %s was not measured", rec.Workload, ms.Name)
		}
		line.Metrics[ms.Name] = valueUnit{v, ms.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func writeChromeTrace(path string, tr *telemetry.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultFile is what a run of every workload writes: each run maps
// workload names to their records.
type resultFile struct {
	Provenance provenance           `json:"provenance"`
	Runs       []map[string]*record `json:"runs"`
}

// runAll runs every workload of BENCHMARK.json -runs times, each in a
// fresh child process so caches, heap and RSS start cold, and writes
// the records to one result file.
func runAll(o options, s *spec, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.out == "" {
		o.out = filepath.Join("out", "result-"+time.Now().Format("20060102-150405")+".json")
	}
	dir := filepath.Dir(o.out)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := resultFile{Provenance: newProvenance(o)}
	status := 0
	var names, traces []string
	for i := 0; i < o.runs; i++ {
		recs := map[string]*record{}
		for _, wl := range s.Workloads {
			recPath := filepath.Join(dir, ".record-"+wl.Name+".json")
			trace := o.trace.String()
			if o.trace.path != "" {
				trace = "1"
				if i == 0 { // the first run's traces are merged into o.trace.path
					trace = filepath.Join(dir, ".trace-"+wl.Name+".json")
					names, traces = append(names, wl.Name), append(traces, trace)
				}
			}
			args := []string{"-workload", wl.Name, "-record", recPath, "-trace", trace,
				"-workers", strconv.Itoa(o.workers), "-reps", strconv.Itoa(o.reps),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
			if o.seed != nil {
				args = append(args, "-seed", strconv.FormatUint(*o.seed, 10))
			}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", wl.Name, err)
				status = 1
			}
			var rec record
			data, err := os.ReadFile(recPath)
			if err == nil {
				err = json.Unmarshal(data, &rec)
				os.Remove(recPath)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: no record: %v\n", wl.Name, err)
				status = 1
				continue
			}
			recs[wl.Name] = &rec
		}
		res.Runs = append(res.Runs, recs)
	}
	if len(traces) > 0 {
		err := mergeTraces(o.trace.path, names, traces)
		for _, p := range traces {
			os.Remove(p)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote trace %s\n", o.trace.path)
	}
	if err := writeJSON(o.out, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printSummary(stdout, s, res)
	fmt.Fprintf(stdout, "wrote %s\n", o.out)
	return status
}

// printSummary prints every metric's median over the runs, one column
// per workload.
func printSummary(w io.Writer, s *spec, res resultFile) {
	p := res.Provenance
	fmt.Fprintf(w, "\n== summary: %d run(s), %s, revision %s, nproc %d, GOMAXPROCS %d, %s\n",
		len(res.Runs), p.Go, p.Revision, p.NProc, p.GOMAXPROCS, p.CPU)
	fmt.Fprintf(w, "%-30s %-6s", "metric", "unit")
	for _, wl := range s.Workloads {
		fmt.Fprintf(w, " %14s", wl.Name)
	}
	fmt.Fprintln(w)
	var all []metricSpec
	all = append(append(append(all, s.EndToEnd...), outputs...), s.PerLayer...)
	for _, ms := range all {
		line := fmt.Sprintf("%-30s %-6s", ms.Name, ms.Unit)
		any := false
		for _, wl := range s.Workloads {
			xs := samplesOf(res, wl.Name, ms.Name)
			if len(xs) == 0 {
				line += fmt.Sprintf(" %14s", "-")
				continue
			}
			any = true
			line += fmt.Sprintf(" %14.6g", median(xs))
		}
		if any {
			fmt.Fprintln(w, line)
		}
	}
}

// samplesOf returns a metric's value in every run of one workload.
func samplesOf(res resultFile, workload, metric string) []float64 {
	var xs []float64
	for _, r := range res.Runs {
		if rec := r[workload]; rec != nil {
			if v, ok := rec.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}
