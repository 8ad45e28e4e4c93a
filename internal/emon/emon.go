// Package emon produces EMON-style performance-counter samples from a
// simulated server (§2.2, §4): time-multiplexed counter reads with
// measurement noise, taken under whatever load the fleet is facing at
// that moment. µSKU's A/B tester consumes these samples; its warm-up
// discard and independence spacing live in internal/abtest.
package emon

import (
	"softsku/internal/cache"
	"softsku/internal/rng"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
)

// Counter-read volume: every EMON sample (single-metric or full
// multiplexed group) increments one of these, so operators can see how
// much measurement traffic a tuning run generates (§2.2).
var (
	mSampleReads = telemetry.Default.Counter("softsku_emon_sample_reads_total",
		"Single-metric EMON samples taken (MIPS, QPS, MIPS/W).")
	mGroupReads = telemetry.Default.Counter("softsku_emon_group_reads_total",
		"Full multiplexed counter-group snapshots taken.")
)

// LoadSource supplies the load factor at a virtual time;
// loadgen.Profile is the production implementation.
type LoadSource interface {
	Factor(t float64) float64
}

// measurementNoise is the relative standard deviation of one counter
// sample: EMON multiplexes counter groups, so individual samples carry
// a little error (§2.2 "with minimal error").
const measurementNoise = 0.015

// Sampler reads performance counters from one machine under a shared
// load profile. Two samplers sharing one loadgen.Profile observe the
// same traffic — the paper's "same fleet, facing the same load" A/B
// setup.
type Sampler struct {
	m     *sim.Machine
	load  LoadSource
	noise *rng.Source
}

// NewSampler builds a sampler. The load profile may be shared between
// samplers; the measurement-noise stream is private per sampler.
func NewSampler(m *sim.Machine, load LoadSource, seed uint64) *Sampler {
	return &Sampler{m: m, load: load, noise: rng.New(seed)}
}

// Machine returns the sampled machine.
func (s *Sampler) Machine() *sim.Machine { return s.m }

// operating solves the machine at the load-modulated utilization.
func (s *Sampler) operating(t float64) (sim.Operating, float64) {
	mSampleReads.Inc()
	factor := 1.0
	if s.load != nil {
		factor = s.load.Factor(t)
	}
	return s.m.Solve(s.m.Profile().MaxCPUUtil * factor), factor
}

// MIPS returns one MIPS sample at virtual time t — µSKU's throughput
// metric (§4). For performance-introspective services (Cache), MIPS
// inflates under overload because exception-handler instructions
// retire without doing useful work — the reason the paper deems MIPS
// unsuitable for Cache.
func (s *Sampler) MIPS(t float64) float64 {
	op, factor := s.operating(t)
	mips := op.MIPS
	if s.m.Profile().IntrospectivePerf && factor > 1.02 {
		// QoS headroom exhausted: exception handlers add instructions.
		mips *= 1 + 1.5*(factor-1.02)
	}
	return mips * (1 + s.noise.Norm(0, measurementNoise))
}

// MIPSPerWatt returns one energy-efficiency sample at virtual time t
// (the §7 extension: optimizing perf/watt rather than performance).
func (s *Sampler) MIPSPerWatt(t float64) float64 {
	op, _ := s.operating(t)
	return op.MIPSPerWatt * (1 + s.noise.Norm(0, measurementNoise))
}

// QPS returns one queries-per-second sample at virtual time t, the
// ODS-visible ground-truth throughput.
func (s *Sampler) QPS(t float64) float64 {
	op, factor := s.operating(t)
	qps := op.QPS
	if s.m.Profile().IntrospectivePerf && factor > 1.02 {
		// Under QoS violations the service sheds work: true throughput
		// drops even as MIPS inflates.
		qps *= 1 - 2.2*(factor-1.02)
	}
	return qps * (1 + s.noise.Norm(0, measurementNoise))
}

// Panel is one paired read of every candidate tuning objective at a
// single virtual time: the evidence a decision ledger stores per trial
// so a counterfactual replay can re-judge it under any of them.
type Panel struct {
	MIPS     float64
	QPS      float64
	PerfWatt float64
	P99      float64 // seconds; lower is better
}

// ReadPanel samples all four objectives from one operating point. P99
// comes from an analytic tail model: per-query service time (path
// length over per-core IPS) amplified by queueing headroom — when
// utilization approaches saturation the tail blows up as svc/(1-util),
// and ln(100) places the 99th percentile of the exponential wait.
// Introspective services degrade the tail fastest under overload.
func (s *Sampler) ReadPanel(t float64) Panel {
	mGroupReads.Inc()
	op, factor := s.operating(t)
	mips, qps, pw := op.MIPS, op.QPS, op.MIPSPerWatt
	var svc float64
	if op.QPS > 0 && op.CoreIPS > 0 {
		svc = op.TotalIPS / op.QPS / op.CoreIPS
	}
	head := 1 - op.Util
	if head < 0.02 {
		head = 0.02
	}
	p99 := svc / head * 4.605 // ln(100)
	if s.m.Profile().IntrospectivePerf && factor > 1.02 {
		over := factor - 1.02
		mips *= 1 + 1.5*over
		qps *= 1 - 2.2*over
		p99 *= 1 + 5*over
	}
	return Panel{
		MIPS:     mips * (1 + s.noise.Norm(0, measurementNoise)),
		QPS:      qps * (1 + s.noise.Norm(0, measurementNoise)),
		PerfWatt: pw * (1 + s.noise.Norm(0, measurementNoise)),
		P99:      p99 * (1 + s.noise.Norm(0, measurementNoise)),
	}
}

// Counters is a multiplexed counter-group snapshot, the EMON view the
// characterization CLI prints.
type Counters struct {
	IPC           float64
	MIPS          float64
	L1CodeMPKI    float64
	L1DataMPKI    float64
	L2CodeMPKI    float64
	L2DataMPKI    float64
	LLCCodeMPKI   float64
	LLCDataMPKI   float64
	ITLBMPKI      float64
	DTLBLoadMPKI  float64
	DTLBStoreMPKI float64
	MemBWGBs      float64
	MemLatencyNS  float64
}

// ReadCounters samples the full counter set at virtual time t.
func (s *Sampler) ReadCounters(t float64) Counters {
	mGroupReads.Inc()
	op, _ := s.operating(t)
	r := op.Rates
	l1c, l1d := r.CacheMPKI(cache.L1)
	l2c, l2d := r.CacheMPKI(cache.L2)
	llcc, llcd := r.CacheMPKI(cache.LLC)
	itlb, dl, ds := r.TLBMPKI()
	return Counters{
		IPC:           op.IPC,
		MIPS:          op.MIPS,
		L1CodeMPKI:    l1c,
		L1DataMPKI:    l1d,
		L2CodeMPKI:    l2c,
		L2DataMPKI:    l2d,
		LLCCodeMPKI:   llcc,
		LLCDataMPKI:   llcd,
		ITLBMPKI:      itlb,
		DTLBLoadMPKI:  dl,
		DTLBStoreMPKI: ds,
		MemBWGBs:      op.MemBWGBs,
		MemLatencyNS:  op.MemLatencyNS,
	}
}
