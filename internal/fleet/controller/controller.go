// Package controller runs µSKU as a continuous, self-healing fleet
// control loop — the paper's @scale story made operational. A one-shot
// tuning run (internal/core) finds a soft SKU for one service on one
// machine; the controller keeps a sharded fleet of pools across mixed
// SKUs converged while load drifts, sensors black out, and hardware
// flakes, epoch after epoch (ROADMAP item 1; AutoTune's continuous
// end-to-end tuning posture).
//
// Each epoch the loop:
//
//  1. samples every pool's request rate into an ODS series (diurnal
//     load × a seeded per-pool drift walk × injected spikes), minus
//     whatever a sensor blackout swallows,
//  2. detects drift per pool by comparing the epoch-window mean
//     against the load level the pool was last tuned at (`ods.Query`
//     over the window),
//  3. re-tunes only the drifted pools with the full µSKU pipeline
//     (simcache makes the repeat characterizations nearly free), and
//  4. rolls the new soft SKU out through the health-checked,
//     watchdogged deployment waves of internal/fleet.
//
// The robustness machinery is the point. Per-pool circuit breakers
// open after consecutive rollout failures and retry through half-open
// probes with deterministic, label-jittered exponential holds. Repeat
// offender servers (crash or watchdog-abandon strikes) are quarantined
// out of rotation and repaired epochs later. A rollback budget freezes
// a flapping pool's configuration outright. And when sensor blackout
// starves drift detection below a sample floor, the pool enters a
// degraded mode that holds the last-known-good configuration instead
// of acting on garbage.
//
// Determinism contract: given the same seed and fleet spec, a soak is
// bit-identical — same decision ledger bytes, same chaos fingerprint —
// at any -parallel count. The epoch loop itself is serial over pools
// in sorted name order; only the trials inside a retune parallelize,
// and those already guarantee order-independent merges. All randomness
// is label-derived (rng.Derive) from the one seed.
package controller

import (
	"fmt"
	"io"
	"math"
	"sort"

	"softsku/internal/abtest"
	"softsku/internal/chaos"
	"softsku/internal/core"
	"softsku/internal/decision"
	"softsku/internal/fleet"
	"softsku/internal/knob"
	"softsku/internal/loadgen"
	"softsku/internal/ods"
	"softsku/internal/platform"
	"softsku/internal/rng"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
	"softsku/internal/workload"
)

// Control-loop telemetry: how much drift the fleet saw and how much
// defensive machinery engaged while absorbing it.
var (
	mEpochs = telemetry.Default.Counter("softsku_controller_epochs_total",
		"Control epochs executed.")
	mDrifts = telemetry.Default.Counter("softsku_controller_drifts_total",
		"Workload drifts detected across pools.")
	mRetunes = telemetry.Default.Counter("softsku_controller_retunes_total",
		"µSKU re-tuning runs triggered by drift.")
	mDegraded = telemetry.Default.Counter("softsku_controller_degraded_epochs_total",
		"Pool-epochs spent in degraded mode holding last-known-good config.")
	mBreakerOpens = telemetry.Default.Counter("softsku_controller_breaker_opens_total",
		"Circuit breakers opened after consecutive rollout failures.")
	mFreezes = telemetry.Default.Counter("softsku_controller_config_freezes_total",
		"Pool configurations frozen after exhausting the rollback budget.")
)

// Config tunes the control loop. DefaultConfig returns the values the
// soak tests and cmd/fleetd use; zero values are not patched — start
// from DefaultConfig and override.
type Config struct {
	Seed uint64

	// EpochSec is the virtual duration of one control epoch. The
	// default is a full diurnal period so the epoch-window mean cancels
	// the diurnal swing and drift detection reacts to real workload
	// change, not time of day.
	EpochSec        float64
	SamplesPerEpoch int // rate samples written per pool per epoch

	// DriftPct triggers a re-tune when the epoch-window mean rate
	// diverges from the level the pool was last tuned at by more than
	// this percentage.
	DriftPct float64
	// DriftRate is the per-pool per-epoch probability of a real
	// workload shift (a step in the hidden drift walk the controller
	// must detect and chase).
	DriftRate float64

	// MinSamples is the degraded-mode floor: with fewer epoch-window
	// samples than this (sensor blackout), the pool holds its
	// last-known-good configuration instead of acting.
	MinSamples int

	// MaxUnavailPct bounds each rollout wave to this fraction of the
	// pool (at least one server).
	MaxUnavailPct float64
	// MaxRetunesPerEpoch caps re-tuning work per epoch; drifted pools
	// past the cap stay drifted and are picked up next epoch.
	MaxRetunesPerEpoch int
	// WatchdogSec arms the rollout stuck-reboot watchdog.
	WatchdogSec float64

	// BreakerFailures consecutive rollout failures open a pool's
	// circuit breaker; it half-opens for a probe after a hold of
	// BreakerBaseHold epochs, doubling per reopen up to BreakerMaxHold,
	// plus a label-derived jitter epoch.
	BreakerFailures int
	BreakerBaseHold int
	BreakerMaxHold  int

	// QuarantineStrikes crash/abandon strikes against one server pull
	// it out of rotation; RepairEpochs epochs later it is repaired and
	// rejoins at the pool's current configuration.
	QuarantineStrikes int
	RepairEpochs      int

	// FreezeReverts rollbacks exhaust a pool's flap budget and freeze
	// its configuration for FreezeHoldEpochs epochs.
	FreezeReverts    int
	FreezeHoldEpochs int

	// Re-tune pipeline shape: which knobs to sweep, trial worker count,
	// and A/B sampling bounds (small: drift chasing wants cheap
	// directional answers, not publication-grade confidence).
	Knobs            []knob.ID
	Parallel         int
	TuneMinSamples   int
	TuneMaxSamples   int
	TuneGuardrailPct float64
	// TuneConfidence is the A/B significance level for drift-chasing
	// trials. Lower than the offline default on purpose: the controller
	// wants cheap directional answers every epoch, and a wrong accept
	// is bounded by the guardrail plus next epoch's re-tune.
	TuneConfidence float64
	// TuneSweep selects the re-tune optimizer. The zero value is
	// core.SweepIndependent (the paper's mode and the historical
	// behavior); the adaptive searchers (hillclimb, halving, cem) trade
	// more trial rounds for cross-knob coverage.
	TuneSweep core.SweepMode
	// TuneTwin arms the analytical-twin fidelity ladder inside every
	// re-tune (DESIGN.md §16), whatever TuneSweep is — the default
	// independent sweep included: predicted-losing arms are pruned
	// before they cost a characterization window, which matters at the
	// controller's cadence of up to MaxRetunesPerEpoch tunes per pool
	// per epoch.
	TuneTwin bool
}

// DefaultConfig returns the control-loop defaults.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		EpochSec:           86400, // one diurnal period
		SamplesPerEpoch:    24,    // hourly rate samples
		DriftPct:           8,
		DriftRate:          0.05,
		MinSamples:         8,
		MaxUnavailPct:      0.2,
		MaxRetunesPerEpoch: 2,
		WatchdogSec:        120,
		BreakerFailures:    3,
		BreakerBaseHold:    2,
		BreakerMaxHold:     8,
		QuarantineStrikes:  3,
		RepairEpochs:       4,
		FreezeReverts:      4,
		FreezeHoldEpochs:   3,
		Knobs:              []knob.ID{knob.UncoreFreq, knob.THP},
		TuneMinSamples:     150,
		TuneMaxSamples:     900,
		TuneGuardrailPct:   2,
		TuneConfidence:     0.8,
	}
}

// PoolSpec places one pool: a workload on a SKU in a region. Pool
// names are "<Service>@<Region>" and must be unique.
type PoolSpec struct {
	Service string // workload profile name (workload.ByName)
	Region  string
	SKU     string // platform name; "" means the service's default
	Servers int
}

// DefaultFleetSpec spreads total servers across the paper's seven
// services in three regions on their Table 1 platforms, plus Web on
// Broadwell16 (§5) — 24 pools over all three fleet SKUs.
func DefaultFleetSpec(total int) []PoolSpec {
	regions := []string{"use", "usw", "eu"}
	var specs []PoolSpec
	for _, svc := range workload.All() {
		for _, r := range regions {
			specs = append(specs, PoolSpec{Service: svc.Name, Region: r})
		}
	}
	for _, r := range regions {
		specs = append(specs, PoolSpec{Service: "Web", Region: r + "-bw", SKU: "Broadwell16"})
	}
	per := total / len(specs)
	if per < 1 {
		per = 1
	}
	rem := total - per*len(specs)
	for i := range specs {
		specs[i].Servers = per
		if i < rem {
			specs[i].Servers++
		}
	}
	return specs
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
)

// poolState is the controller's per-pool memory between epochs.
type poolState struct {
	name   string
	series string

	load      *loadgen.Profile // stateful diurnal profile (monotone t)
	drift     *rng.Source      // hidden workload-shift walk
	driftMult float64
	nominal   float64 // rated request rate at driftMult 1
	tunedLoad float64 // epoch-mean rate at the last successful tune

	pendingLoad float64 // epoch-mean rate behind the current drift detection

	breaker    breakerState
	probing    bool   // this epoch's re-tune is a half-open probe
	failures   int    // consecutive rollout failures while closed
	opens      int    // times opened (drives exponential hold)
	holdUntil  int    // epoch when an open breaker half-opens
	jitterSeed uint64 // label-derived jitter stream for holds

	reverts     int // rollbacks since the last freeze (flap budget)
	frozenUntil int // epoch when a frozen config thaws

	degraded bool
	lastGood knob.Config

	strikes     map[int]int // crash/abandon strikes by stable server id
	quarantined map[int]int // server id -> epoch quarantined
}

// Controller is the fleet control loop.
type Controller struct {
	cfg    Config
	fleet  *fleet.Fleet
	store  *ods.Store
	ledger *decision.Ledger
	chaos  *chaos.Engine // nil: fault-free soak
	pools  []*poolState
	epoch  int
	now    float64 // virtual seconds
	logW   io.Writer

	report Report
}

// Report aggregates one soak.
type Report struct {
	Epochs  int `json:"epochs"`
	Pools   int `json:"pools"`
	Servers int `json:"servers"`

	Drifted         int `json:"drifted"`
	Retuned         int `json:"retuned"`
	RolledOut       int `json:"rolled_out"`
	RolloutFailures int `json:"rollout_failures"`

	Quarantined    int `json:"quarantined"`
	Repaired       int `json:"repaired"`
	BreakerOpens   int `json:"breaker_opens"`
	Freezes        int `json:"freezes"`
	DegradedEpochs int `json:"degraded_pool_epochs"`

	MixedPools int  `json:"mixed_pools"`
	Converged  bool `json:"converged"`

	VirtualSec  float64 `json:"virtual_sec"`
	FaultEvents int     `json:"fault_events"`
	Fingerprint string  `json:"fault_fingerprint,omitempty"`
}

// New builds a controller over the given fleet spec. Pools are
// provisioned at their production configuration; every pool gets its
// own label-derived load, drift, and jitter streams so the soak is a
// pure function of cfg.Seed.
func New(cfg Config, specs []PoolSpec) (*Controller, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("controller: empty fleet spec")
	}
	c := &Controller{
		cfg:    cfg,
		fleet:  fleet.New(),
		store:  ods.NewStore(),
		ledger: decision.NewLedger(),
	}
	seen := make(map[string]bool)
	for _, sp := range specs {
		base, err := workload.ByName(sp.Service)
		if err != nil {
			return nil, err
		}
		skuName := sp.SKU
		if skuName == "" {
			skuName = base.Platform
		}
		sku, err := platform.ByName(skuName)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s@%s", sp.Service, sp.Region)
		if seen[name] {
			return nil, fmt.Errorf("controller: duplicate pool %s", name)
		}
		seen[name] = true
		// The pool runs a region-named clone of the service profile:
		// pool identity must be distinct for the fleet, the ledger, and
		// the simcache key.
		clone := *base
		clone.Name = name
		cfg0 := sim.ProductionConfig(sku, &clone)
		if err := c.fleet.AddPool(&clone, sku, sp.Servers, cfg0); err != nil {
			return nil, err
		}
		c.pools = append(c.pools, &poolState{
			name:        name,
			series:      "fleet.qps." + name,
			load:        loadgen.NewDiurnal(rng.Derive(cfg.Seed, "load/"+name)),
			drift:       rng.New(rng.Derive(cfg.Seed, "drift/"+name)),
			driftMult:   1,
			nominal:     1000,
			tunedLoad:   1000,
			jitterSeed:  rng.Derive(cfg.Seed, "breaker/"+name),
			lastGood:    cfg0,
			strikes:     make(map[int]int),
			quarantined: make(map[int]int),
		})
	}
	sort.Slice(c.pools, func(i, j int) bool { return c.pools[i].name < c.pools[j].name })
	c.fleet.SetRecorder(c.ledger)
	c.fleet.SetWatchdog(cfg.WatchdogSec)
	return c, nil
}

// SetChaos attaches a fault engine to the whole soak: sensor blackouts
// starve drift detection, load spikes masquerade as drift, and the
// rollout path (a per-fleet child stream) crashes servers and wedges
// reboots. nil (the default) runs fault-free.
func (c *Controller) SetChaos(e *chaos.Engine) {
	c.chaos = e
	if e == nil {
		c.fleet.SetChaos(nil)
		return
	}
	c.fleet.SetChaos(e.Split("fleet"))
	for _, ps := range c.pools {
		ps.load.SetChaos(e) // LoadSpike is pure in (seed, t): fleet-wide spikes
	}
}

// SetLogger directs per-epoch progress lines (nil disables).
func (c *Controller) SetLogger(w io.Writer) { c.logW = w }

// Fleet returns the controlled fleet.
func (c *Controller) Fleet() *fleet.Fleet { return c.fleet }

// Ledger returns the soak's decision ledger.
func (c *Controller) Ledger() *decision.Ledger { return c.ledger }

// Store returns the ODS store holding the per-pool rate series.
func (c *Controller) Store() *ods.Store { return c.store }

func (c *Controller) logf(format string, args ...interface{}) {
	if c.logW != nil {
		fmt.Fprintf(c.logW, format+"\n", args...)
	}
}

// Run executes n control epochs and returns the soak report. The
// convergence accounting at the end counts pools with any in-rotation
// server off the pool configuration — the "no pool left mixed"
// acceptance bar.
func (c *Controller) Run(n int) (*Report, error) {
	for i := 0; i < n; i++ {
		if err := c.step(); err != nil {
			return nil, err
		}
	}
	c.report.Epochs = c.epoch
	c.report.Pools = len(c.pools)
	c.report.Servers = 0
	c.report.MixedPools = 0
	for _, ps := range c.pools {
		pool, err := c.fleet.Pool(ps.name)
		if err != nil {
			return nil, err
		}
		c.report.Servers += pool.Size() + len(pool.QuarantinedIDs())
		if pool.OffConfig() > 0 {
			c.report.MixedPools++
		}
	}
	c.report.Converged = c.report.MixedPools == 0
	c.report.VirtualSec = c.now
	if c.chaos != nil {
		c.report.FaultEvents = len(c.chaos.Events())
		c.report.Fingerprint = c.chaos.Fingerprint()
	}
	return &c.report, nil
}

// step runs one control epoch: repair, sample, detect, re-tune, roll
// out. Strictly serial over pools in sorted name order — determinism
// comes from this order plus label-derived streams, not from luck.
func (c *Controller) step() error {
	servers := 0
	for _, ps := range c.pools {
		pool, err := c.fleet.Pool(ps.name)
		if err != nil {
			return err
		}
		servers += pool.Size()
	}
	epochSeq := c.ledger.Record(-1, decision.EpochStarted(c.epoch, c.now, len(c.pools), servers))
	mEpochs.Inc()

	c.repairs(epochSeq)
	c.sample()

	drifted, retuned, rolledOut, failures := 0, 0, 0, 0
	for _, ps := range c.pools {
		act, driftSeq := c.detect(ps, epochSeq)
		if !act {
			continue
		}
		drifted++
		if retuned >= c.cfg.MaxRetunesPerEpoch {
			c.logf("epoch %d: %s drifted but re-tune budget exhausted; deferred", c.epoch, ps.name)
			continue
		}
		retuned++
		ok, err := c.retune(ps, driftSeq)
		if err != nil {
			return err
		}
		if ok {
			rolledOut++
		} else {
			failures++
		}
	}

	c.ledger.Record(epochSeq, decision.EpochDone(c.epoch, drifted, retuned, rolledOut, failures))
	c.logf("epoch %d: drifted=%d retuned=%d rolled_out=%d failures=%d",
		c.epoch, drifted, retuned, rolledOut, failures)
	c.now += c.cfg.EpochSec
	c.epoch++
	return nil
}

// repairs returns quarantined servers that have served their time,
// break-glass reconfigured to the pool's current soft SKU.
func (c *Controller) repairs(epochSeq int) {
	for _, ps := range c.pools {
		if len(ps.quarantined) == 0 {
			continue
		}
		ids := make([]int, 0, len(ps.quarantined))
		for id, since := range ps.quarantined {
			if c.epoch-since >= c.cfg.RepairEpochs {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			if err := c.fleet.Repair(ps.name, id); err != nil {
				continue
			}
			delete(ps.quarantined, id)
			ps.strikes[id] = 0
			c.ledger.Record(epochSeq, decision.Repair(ps.name, id))
			c.report.Repaired++
		}
	}
}

// sample writes this epoch's rate series for every pool: nominal rate
// × the hidden drift walk × the diurnal/spike load factor. A sensor
// blackout silently swallows the point — exactly the starvation
// degraded mode exists for.
func (c *Controller) sample() {
	dt := c.cfg.EpochSec / float64(c.cfg.SamplesPerEpoch)
	for _, ps := range c.pools {
		// The hidden workload shift this controller exists to chase: a
		// seeded step walk, one draw per epoch.
		if ps.drift.Bool(c.cfg.DriftRate) {
			step := 0.15 + 0.35*ps.drift.Float64()
			if ps.drift.Bool(0.5) {
				ps.driftMult *= 1 + step
			} else {
				ps.driftMult *= 1 - step
			}
			if ps.driftMult < 0.3 {
				ps.driftMult = 0.3
			}
			if ps.driftMult > 3 {
				ps.driftMult = 3
			}
		}
		for k := 0; k < c.cfg.SamplesPerEpoch; k++ {
			t := c.now + (float64(k)+0.5)*dt
			v := ps.nominal * ps.driftMult * ps.load.Factor(t)
			if c.chaos != nil && c.chaos.DropSensor(ps.series, t) {
				continue
			}
			if err := c.store.Append(ps.series, t, v); err != nil {
				// Non-decreasing t is guaranteed by construction; an
				// append failure here is a programming error worth seeing.
				panic(err)
			}
		}
	}
}

// detect decides whether a pool needs a re-tune this epoch, recording
// degraded-mode transitions, drift detections, and breaker probes. It
// returns the ledger seq the re-tune should nest under.
func (c *Controller) detect(ps *poolState, epochSeq int) (bool, int) {
	pts, err := c.store.Query(ps.series, c.now, c.now+c.cfg.EpochSec)
	n := 0
	if err == nil {
		n = len(pts)
	}
	if n < c.cfg.MinSamples {
		// Sensor blackout starved the window: drift estimates from a
		// handful of points are noise, so hold last-known-good.
		if !ps.degraded {
			ps.degraded = true
			c.ledger.Record(epochSeq, decision.DegradedEnter(ps.name, n, c.cfg.MinSamples))
		}
		c.report.DegradedEpochs++
		mDegraded.Inc()
		return false, -1
	}
	if ps.degraded {
		ps.degraded = false
		c.ledger.Record(epochSeq, decision.DegradedExit(ps.name, n))
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.V
	}
	cur := sum / float64(n)
	deltaPct := (cur - ps.tunedLoad) / ps.tunedLoad * 100
	if math.Abs(deltaPct) <= c.cfg.DriftPct {
		return false, -1
	}
	driftSeq := c.ledger.Record(epochSeq, decision.DriftDetected(ps.name, deltaPct, c.cfg.DriftPct, n))
	c.report.Drifted++
	mDrifts.Inc()
	ps.pendingLoad = cur
	if c.epoch < ps.frozenUntil {
		c.logf("epoch %d: %s drifted %+.1f%% but config is frozen until epoch %d",
			c.epoch, ps.name, deltaPct, ps.frozenUntil)
		return false, -1
	}
	if ps.breaker == breakerOpen {
		if c.epoch < ps.holdUntil {
			c.logf("epoch %d: %s drifted %+.1f%% but breaker is open until epoch %d",
				c.epoch, ps.name, deltaPct, ps.holdUntil)
			return false, -1
		}
		// Half-open: this epoch's re-tune is the probe.
		c.ledger.Record(driftSeq, decision.BreakerProbe(ps.name))
		ps.probing = true
	}
	return true, driftSeq
}

// retune runs the µSKU pipeline for one drifted pool and rolls the
// result out, feeding the breaker / quarantine / freeze machinery with
// the outcome. Returns whether the pool ended the epoch on the new
// (or confirmed) configuration.
func (c *Controller) retune(ps *poolState, driftSeq int) (bool, error) {
	pool, err := c.fleet.Pool(ps.name)
	if err != nil {
		return false, err
	}
	metric := core.MetricMIPS
	if pool.Service.IntrospectivePerf {
		metric = core.MetricQPS
	}
	ab := abtest.DefaultConfig()
	ab.MinSamples = c.cfg.TuneMinSamples
	ab.MaxSamples = c.cfg.TuneMaxSamples
	ab.GuardrailPct = c.cfg.TuneGuardrailPct
	if c.cfg.TuneConfidence > 0 {
		ab.Confidence = c.cfg.TuneConfidence
	}
	in := core.Input{
		Microservice: ps.name,
		Platform:     pool.SKU.Name,
		Sweep:        c.cfg.TuneSweep,
		Metric:       metric,
		Knobs:        c.cfg.Knobs,
		// Constant per-pool seed: repeat re-tunes of an unchanged pool
		// replay the same trial schedule, so the simcache absorbs them.
		Seed:     rng.Derive(c.cfg.Seed, "tune/"+ps.name),
		Parallel: c.cfg.Parallel,
		Twin:     c.cfg.TuneTwin,
		AB:       ab,
	}
	tool, err := core.NewForService(in, pool.Service, pool.SKU)
	if err != nil {
		return false, err
	}
	tool.SetRecorder(c.ledger)
	tool.SetRecorderParent(driftSeq)
	tool.SetParallel(c.cfg.Parallel)
	if c.chaos != nil {
		tool.SetChaos(c.chaos.Split(fmt.Sprintf("tune/%s/%d", ps.name, c.epoch)))
	}
	res, err := tool.Run()
	if err != nil {
		return false, fmt.Errorf("controller: re-tune of %s failed: %w", ps.name, err)
	}
	c.report.Retuned++
	mRetunes.Inc()

	target := res.SoftSKU
	if target == pool.Config() {
		// Drift confirmed the current soft SKU; nothing to roll out.
		c.success(ps, driftSeq)
		return true, nil
	}
	maxUnavail := int(float64(pool.Size()) * c.cfg.MaxUnavailPct)
	if maxUnavail < 1 {
		maxUnavail = 1
	}
	c.fleet.SetRecorderParent(driftSeq)
	r, err := c.fleet.Rollout(ps.name, target, maxUnavail)
	if err == nil {
		c.report.RolledOut++
		ps.lastGood = target
		c.success(ps, driftSeq)
		return true, nil
	}
	c.failure(ps, driftSeq, r)
	return false, nil
}

// success books a converged re-tune: the pool is tuned for the load it
// just measured, its failure streak resets, and a probing breaker
// closes.
func (c *Controller) success(ps *poolState, driftSeq int) {
	ps.tunedLoad = ps.pendingLoad
	ps.failures = 0
	if ps.probing {
		ps.probing = false
		ps.breaker = breakerClosed
		ps.opens = 0
		c.ledger.Record(driftSeq, decision.BreakerClosed(ps.name))
	}
}

// failure books a failed rollout: strike crashed/abandoned servers
// toward quarantine, charge the flap budget, and trip or re-trip the
// breaker.
func (c *Controller) failure(ps *poolState, driftSeq int, r fleet.Rollout) {
	c.report.RolloutFailures++
	for _, id := range append(append([]int(nil), r.Crashed...), r.Abandoned...) {
		ps.strikes[id]++
		if ps.strikes[id] < c.cfg.QuarantineStrikes {
			continue
		}
		if _, gone := ps.quarantined[id]; gone {
			continue
		}
		if err := c.fleet.Quarantine(ps.name, id); err != nil {
			continue // last server: keep it, keep striking
		}
		ps.quarantined[id] = c.epoch
		c.ledger.Record(driftSeq, decision.Quarantine(ps.name, id, ps.strikes[id]))
		c.report.Quarantined++
	}
	if r.RolledBack {
		ps.reverts++
		if ps.reverts >= c.cfg.FreezeReverts {
			ps.frozenUntil = c.epoch + 1 + c.cfg.FreezeHoldEpochs
			c.ledger.Record(driftSeq, decision.ConfigFreeze(ps.name, ps.reverts, c.cfg.FreezeHoldEpochs))
			c.report.Freezes++
			mFreezes.Inc()
			ps.reverts = 0
		}
	}
	if ps.probing {
		// The half-open probe failed: reopen with a doubled hold.
		ps.probing = false
		c.open(ps, driftSeq)
		return
	}
	ps.failures++
	if ps.failures >= c.cfg.BreakerFailures {
		c.open(ps, driftSeq)
	}
}

// open trips a pool's breaker: exponential hold in epochs, capped,
// plus a deterministic label-derived jitter epoch so same-pool holds
// do not synchronize across seeds.
func (c *Controller) open(ps *poolState, driftSeq int) {
	ps.opens++
	hold := c.cfg.BreakerBaseHold
	for i := 1; i < ps.opens; i++ {
		hold *= 2
		if hold >= c.cfg.BreakerMaxHold {
			hold = c.cfg.BreakerMaxHold
			break
		}
	}
	hold += int(rng.Fold(ps.jitterSeed, uint64(ps.opens)) % 2)
	ps.breaker = breakerOpen
	ps.holdUntil = c.epoch + 1 + hold
	ps.failures = 0
	c.ledger.Record(driftSeq, decision.BreakerOpen(ps.name, c.cfg.BreakerFailures, hold))
	c.report.BreakerOpens++
	mBreakerOpens.Inc()
}
