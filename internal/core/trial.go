package core

import (
	"fmt"
	"runtime"

	"softsku/internal/abtest"
	"softsku/internal/chaos"
	"softsku/internal/decision"
	"softsku/internal/emon"
	"softsku/internal/knob"
	"softsku/internal/loadgen"
	"softsku/internal/platform"
	"softsku/internal/rng"
	"softsku/internal/sim"
	"softsku/internal/stats"
	"softsku/internal/telemetry"
)

// The parallel sweep runtime. A sweep is executed in three phases:
//
//  1. spec build (serial): walk the design space in its canonical
//     order, prune/validate, count reboots, and emit one trialSpec per
//     surviving candidate. Chaos child injectors are split off here so
//     their creation order is deterministic.
//  2. trial execution (parallel): runTrials shards the specs across a
//     bounded worker pool. Every trial is hermetic — its servers,
//     machines, samplers, load profile, fault streams, and virtual
//     clock derive purely from (run seed, trial label), never from
//     execution order.
//  3. merge (serial): results are folded into the Tool in spec order —
//     virtual-clock accounting, degradation counters, log lines, and
//     winner selection all see the exact sequence a serial run would
//     have produced.
//
// Phases 1 and 3 touch Tool state and must stay on the caller's
// goroutine; phase 2 may only read immutable Tool fields (in, prof,
// sku, baseline) and the trial's own spec.

// trialSpec is one A/B trial, fully specified before execution so
// trials can run in any order on any worker.
type trialSpec struct {
	label     string // unique within the run; seeds the trial's streams
	control   knob.Config
	treatment knob.Config
	ab        abtest.Config
	inj       chaos.Injector   // per-trial fault injector (nil: fault-free)
	parent    *telemetry.Span  // span the trial's spans nest under
	dec       *decision.Buffer // trial-local decision events (nil: not recording)
}

// trialResult is everything a trial hands back to the merge phase.
type trialResult struct {
	out      abtest.Outcome
	err      error
	elapsed  float64          // virtual seconds the trial consumed
	srv      *platform.Server // treatment server (nil on error)
	reverted bool             // guardrail tripped and treatment reverted
	logs     []string         // progress lines, replayed in merge order

	evid   []decision.Evidence // per-metric moment panels (recording only)
	evidID string              // deterministic ledger<->trace link id
}

// newSpec builds a trial spec from the tool's current A/B
// configuration. When the run is under a seeded chaos engine, the
// trial gets its own child injector — split off serially, here — so
// concurrent trials never contend for one fault stream; custom
// injectors are shared (workers() serializes those runs).
func (t *Tool) newSpec(parent *telemetry.Span, label string, control, treatment knob.Config) trialSpec {
	sp := trialSpec{
		label:     label,
		control:   control,
		treatment: treatment,
		ab:        t.in.AB,
		inj:       t.chaos,
		parent:    parent,
	}
	if eng, ok := t.chaos.(*chaos.Engine); ok {
		sp.inj = eng.Split("trial/" + label)
	}
	sp.ab.Chaos = sp.inj
	if t.rec != nil {
		// Each trial buffers its own decision events (abtest's
		// trial_started, guardrail_trip); the merge phase drains them
		// into the shared ledger in spec order, keeping the ledger
		// byte-identical at any worker count.
		sp.dec = &decision.Buffer{}
		sp.ab.Record = sp.dec
	}
	return sp
}

// workers resolves the worker count for this run. Zero or negative
// means GOMAXPROCS. Custom injectors (anything that is neither a
// seeded *chaos.Engine nor chaos.Disabled) may carry unsynchronized,
// order-dependent state, so those runs are pinned to one worker.
func (t *Tool) workers() int {
	if t.chaos != nil && t.chaos != chaos.Disabled {
		if _, ok := t.chaos.(*chaos.Engine); !ok {
			return 1
		}
	}
	if t.in.Parallel <= 0 {
		//lint:ignore detflow worker count is result-invariant: trials merge by index order, so the pool size never reaches a verdict (pinned by the equivalence tests)
		return runtime.GOMAXPROCS(0)
	}
	return t.in.Parallel
}

// metric maps the configured optimization metric onto a sampler.
func (t *Tool) metric(es *emon.Sampler) abtest.Sampler {
	switch t.in.Metric {
	case MetricQPS:
		return es.QPS
	case MetricPerfPerWatt:
		return es.MIPSPerWatt
	default:
		return es.MIPS
	}
}

// runTrial executes one hermetic A/B trial. Both arms run the same
// workload (shared workload seed, §4: "two identical servers ... that
// differ only in their knob configuration") against one shared load
// profile; everything stochastic — the load realization, the diurnal
// phase the trial starts at, and each arm's measurement-noise stream —
// derives from (run seed, trial label), so the trial's outcome is a
// pure function of its spec.
func (t *Tool) runTrial(spec trialSpec) trialResult {
	var res trialResult
	sp := spec.parent.StartChild("trial", "abtest")
	sp.Set("label", spec.label)
	sp.Set("control", spec.control.String())
	sp.Set("treatment", spec.treatment.String())
	defer sp.End()

	seed := rng.Derive(t.in.Seed, "trial/"+spec.label)
	load := loadgen.NewDiurnal(rng.Derive(seed, "load"))
	load.SetChaos(spec.inj)
	// Successive production experiments start wherever the diurnal cycle
	// happens to be; a per-trial phase draw models that without coupling
	// trials through a shared clock.
	start := rng.New(rng.Derive(seed, "phase")).Float64() * load.Period
	clock := start

	build := func(arm string, cfg knob.Config, deploy bool) (*emon.Sampler, *platform.Server, error) {
		ms := sp.StartChild("sim.machine", "sim")
		ms.Set("config", cfg.String())
		defer ms.End()
		var srv *platform.Server
		var err error
		if deploy && spec.inj != nil {
			// Treatment servers come from the production fleet: boot at
			// the control configuration, then deploy the candidate through
			// Apply — the path that can fault under injection.
			if srv, err = platform.NewServer(t.sku, spec.control); err == nil {
				srv.SetChaos(spec.inj)
				err = t.applyWithRetry(srv, cfg, &clock)
			}
		} else {
			srv, err = platform.NewServer(t.sku, cfg)
		}
		if err != nil {
			return nil, nil, err
		}
		m, err := sim.NewMachine(srv, t.prof, t.in.Seed)
		if err != nil {
			return nil, nil, err
		}
		return emon.NewSampler(m, load, rng.Derive(seed, "noise/"+arm)), srv, nil
	}

	cs, _, err := build("control", spec.control, false)
	if err == nil {
		var ts *emon.Sampler
		if ts, res.srv, err = build("treatment", spec.treatment, true); err == nil {
			var out abtest.Outcome
			out, clock = abtest.Run(spec.ab, t.metric(cs), t.metric(ts), clock)
			res.out = out
			if spec.dec != nil {
				// Evidence panels are captured before any guardrail revert
				// so they measure the configuration the trial actually ran.
				res.evidID = fmt.Sprintf("%016x", rng.Derive(t.in.Seed, "evidence/"+spec.label))
				sp.Set("evidence_id", res.evidID)
				res.evid = evidencePanels(cs.Machine(), ts.Machine(), seed, start, clock)
			}
			if out.GuardrailTripped {
				sp.Set("guardrail_tripped", true)
				res.reverted = true
				res.logs = append(res.logs,
					fmt.Sprintf("  guardrail tripped on %s: reverting to control", spec.treatment))
				t.revertServer(res.srv, spec.control, spec.inj, &clock, &res.logs)
			}
			sp.Set("samples_per_arm", out.Samples)
			sp.Set("control_mean", out.Control.Mean())
			sp.Set("treatment_mean", out.Treatment.Mean())
			sp.Set("delta_pct", out.DeltaPct)
			sp.Set("p_value", out.PValue)
			sp.Set("significant", out.Significant)
			sp.Set("virtual_sec", out.ElapsedSec)
		}
	}
	res.err = err
	res.elapsed = clock - start
	return res
}

// revertServer restores the control configuration on a tripped
// treatment server: a regressing configuration must not keep serving
// production traffic. The revert is break-glass — if injected faults
// block it past the retry budget, it is forced past the injector.
func (t *Tool) revertServer(srv *platform.Server, control knob.Config,
	inj chaos.Injector, clock *float64, logs *[]string) {
	if srv == nil {
		return
	}
	if err := t.applyWithRetry(srv, control, clock); err != nil {
		srv.SetChaos(nil)
		if _, ferr := srv.Apply(control); ferr != nil {
			// With the injector detached only validation can fail, and
			// control is the already-validated baseline — but if it does,
			// the treatment arm is still live and must be reported.
			*logs = append(*logs, fmt.Sprintf("  forced revert to control failed: %v", ferr))
		}
		srv.SetChaos(inj)
	}
}

// evidenceReads is the paired sample count per evidence panel: enough
// moments for a replayed Welch test to resolve multi-percent effects,
// cheap enough that recording stays nearly free next to a trial's
// hundreds-to-thousands of live samples.
const evidenceReads = 32

// evidencePanels re-measures both arms across the trial's virtual
// window on every candidate objective (mips, qps, perfwatt, p99) and
// returns the per-metric moment panels a counterfactual replay
// re-judges. Fresh load and noise streams are derived from the trial
// seed: the trial's own samplers have consumed an outcome-dependent
// number of draws, and its load profile's random walk cannot rewind to
// the window start — re-deriving keeps the panels a pure function of
// the spec. Injected load spikes are deliberately excluded so panel
// capture never perturbs the trial's chaos streams.
func evidencePanels(cm, tm *sim.Machine, seed uint64, start, end float64) []decision.Evidence {
	load := loadgen.NewDiurnal(rng.Derive(seed, "load"))
	cs := emon.NewSampler(cm, load, rng.Derive(seed, "evidence/control"))
	ts := emon.NewSampler(tm, load, rng.Derive(seed, "evidence/treatment"))
	window := end - start
	if window <= 0 {
		window = 1
	}
	var c, tr [4]stats.Sample
	for i := 0; i < evidenceReads; i++ {
		at := start + window*(float64(i)+0.5)/evidenceReads
		cp, tp := cs.ReadPanel(at), ts.ReadPanel(at)
		for j, v := range [4]float64{cp.MIPS, cp.QPS, cp.PerfWatt, cp.P99} {
			c[j].Add(v)
		}
		for j, v := range [4]float64{tp.MIPS, tp.QPS, tp.PerfWatt, tp.P99} {
			tr[j].Add(v)
		}
	}
	names := [4]string{"mips", "qps", "perfwatt", "p99"}
	out := make([]decision.Evidence, len(names))
	for j, n := range names {
		out[j] = decision.Evidence{
			Metric:    n,
			Control:   decision.Stat{N: c[j].N(), Mean: c[j].Mean(), Var: c[j].Variance()},
			Treatment: decision.Stat{N: tr[j].N(), Mean: tr[j].Mean(), Var: tr[j].Variance()},
		}
	}
	return out
}

// recordTrial appends one merged trial to the decision ledger: the
// trial_measured event with its evidence panels, the trial's buffered
// events (trial_started, guardrail_trip) rebased under it, and the
// revert if the guardrail fired. Must run on the serial merge phase.
// Returns the trial_measured sequence number, or -1 when not
// recording.
func (t *Tool) recordTrial(parent int, spec trialSpec, r trialResult, knobName, setting string) int {
	if t.rec == nil {
		return -1
	}
	seq := t.rec.Record(parent, decision.TrialMeasured(
		spec.label, knobName, setting, spec.control.String(), spec.treatment.String(),
		decision.TrialOutcome{
			DeltaPct:    r.out.DeltaPct,
			PValue:      r.out.PValue,
			Significant: r.out.Significant,
			Samples:     r.out.Samples,
			VirtualSec:  r.out.ElapsedSec,
			EvidenceID:  r.evidID,
			Evidence:    r.evid,
		}))
	if spec.dec != nil {
		spec.dec.DrainTo(t.rec, seq)
	}
	if r.reverted {
		t.rec.Record(seq, decision.Revert(spec.label, spec.control.String()))
	}
	return seq
}

// recordSkip appends a candidate abandoned after persistent faults,
// draining whatever the trial buffered before it died.
func (t *Tool) recordSkip(parent int, spec trialSpec, setting string, err error) {
	if t.rec == nil {
		return
	}
	seq := t.rec.Record(parent, decision.Skip(spec.label, setting, err.Error()))
	if spec.dec != nil {
		spec.dec.DrainTo(t.rec, seq)
	}
}

// runTrials executes every spec across the worker pool, returning
// results indexed like specs. Result slots are written by index, so
// the output is independent of scheduling.
func (t *Tool) runTrials(specs []trialSpec) []trialResult {
	results := make([]trialResult, len(specs))
	ParallelFor(t.workers(), len(specs), func(i int) {
		results[i] = t.runTrial(specs[i])
	})
	return results
}

// mergeTrial folds one trial's result into the tool, in spec order:
// virtual-clock accounting, buffered log replay, server registration,
// and guardrail bookkeeping. Must only be called from the merge phase.
func (t *Tool) mergeTrial(spec trialSpec, r trialResult) (abtest.Outcome, error) {
	t.vclock += r.elapsed
	for _, line := range r.logs {
		t.logf("%s", line)
	}
	if r.err != nil {
		return abtest.Outcome{}, r.err
	}
	t.servers[spec.treatment.String()] = r.srv
	if r.reverted {
		t.reverts++
		mGuardrailReverts.Inc()
	}
	return r.out, nil
}

// runSingle is the sequential build→run→merge path for call sites that
// need one outcome before deciding the next trial (ternary search, and
// any future adaptive strategy).
func (t *Tool) runSingle(parent *telemetry.Span, label string, control, treatment knob.Config) (abtest.Outcome, error) {
	spec := t.newSpec(parent, label, control, treatment)
	r := t.runTrial(spec)
	out, err := t.mergeTrial(spec, r)
	if err == nil {
		t.recordTrial(t.decRoot, spec, r, "", treatment.String())
	}
	return out, err
}
