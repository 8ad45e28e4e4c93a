// Package chaos is the fault model for the operational half of the
// paper (§4): µSKU experiments on live production servers, so the
// tuner must tolerate machine failures, corrupted counter samples,
// sampler dropouts, and load drift without ever hurting serving
// capacity. This package injects exactly those faults — deterministic
// per seed — at the points the sim/platform/fleet layers consult:
// knob applications and reboots (platform.Server), A/B samples
// (abtest.Run), rollout waves (fleet.Rollout), the load profile
// (loadgen.Profile), and fleet sensor reads (fleet/controller's drift
// detector, via sensor-blackout episodes).
//
// Determinism contract: an Engine draws every fault class from its own
// seeded rng sub-stream, so two runs with the same seed that make the
// same sequence of calls experience the same fault schedule, fault for
// fault (asserted by tests via Events/Fingerprint). Load spikes are a
// pure function of (seed, t), so they are identical even across
// differently-interleaved runs.
//
// The zero cost of disabled injection matters: consumers hold a nil
// Injector by default and skip every hook, so chaos-off runs are
// bit-identical to — and as fast as — runs built before this layer
// existed (EXPERIMENTS.md records the overhead).
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"softsku/internal/rng"
	"softsku/internal/telemetry"
)

// Injected-fault telemetry: every fault the engine deals out is
// counted, so a chaos run's metrics export shows exactly how much
// adversity the defensive machinery absorbed.
var (
	mApplyFailures = telemetry.Default.Counter("softsku_chaos_apply_failures_total",
		"Transient knob-apply failures injected into Server.Apply.")
	mStuckReboots = telemetry.Default.Counter("softsku_chaos_stuck_reboots_total",
		"Stuck reboots injected into Server.Apply.")
	mSampleDropouts = telemetry.Default.Counter("softsku_chaos_sample_dropouts_total",
		"EMON sampler dropouts injected into A/B trials.")
	mSampleOutliers = telemetry.Default.Counter("softsku_chaos_sample_outliers_total",
		"Corrupted (outlier) samples injected into A/B trials.")
	mServerCrashes = telemetry.Default.Counter("softsku_chaos_server_crashes_total",
		"Server crashes injected into rollout waves.")
	mSlowWaves = telemetry.Default.Counter("softsku_chaos_slow_waves_total",
		"Slow deployment waves injected into rollouts.")
	mLoadSpikes = telemetry.Default.Counter("softsku_chaos_load_spikes_total",
		"Load-spike windows injected into the load profile.")
	mSensorBlackouts = telemetry.Default.Counter("softsku_chaos_sensor_blackouts_total",
		"Sensor-blackout episodes injected into ODS sampling.")
)

// Injector is consulted by the layers that can fault. A nil Injector
// (the default everywhere) means a fault-free world; Disabled is an
// explicit no-op for call sites that want a non-nil value.
type Injector interface {
	// ApplyFault returns a non-nil *FaultError when this knob
	// application should transiently fail, leaving server state
	// untouched.
	ApplyFault(target string) error
	// StuckReboot reports whether a required reboot hangs; the apply
	// attempt fails without state change and must be retried.
	StuckReboot(target string) bool
	// DropSample reports whether this sampler read is lost (the EMON
	// collector missed its multiplexing window).
	DropSample(arm string) bool
	// CorruptSample returns the possibly-perturbed value of one sample
	// and whether it was corrupted into an outlier.
	CorruptSample(arm string, v float64) (float64, bool)
	// CrashServer reports whether a server crashes during a rollout
	// wave, failing the wave's health check.
	CrashServer(target string) bool
	// WaveDelay returns extra virtual seconds a deployment wave takes
	// (0 for a healthy wave).
	WaveDelay(wave int) float64
	// LoadSpike returns the multiplicative load factor at virtual time
	// t (1 when no spike is active). Pure in (seed, t).
	LoadSpike(t float64) float64
	// DropSensor reports whether an ODS sensor read for series at
	// virtual time t is silently lost to a sensor-blackout episode.
	// Once an episode starts for a series it persists for BlackoutSec
	// of virtual time, so drift detectors see a sustained gap rather
	// than isolated missing points.
	DropSensor(series string, t float64) bool
}

// Disabled is the explicit no-op injector.
var Disabled Injector = disabled{}

type disabled struct{}

func (disabled) ApplyFault(string) error                           { return nil }
func (disabled) StuckReboot(string) bool                           { return false }
func (disabled) DropSample(string) bool                            { return false }
func (disabled) CorruptSample(_ string, v float64) (float64, bool) { return v, false }
func (disabled) CrashServer(string) bool                           { return false }
func (disabled) WaveDelay(int) float64                             { return 0 }
func (disabled) LoadSpike(float64) float64                         { return 1 }
func (disabled) DropSensor(string, float64) bool                   { return false }

// FaultError is a transient, injected failure. Consumers distinguish
// it from real validation errors with IsFault and retry with backoff.
type FaultError struct {
	Kind   string // "apply-fail" | "stuck-reboot"
	Target string
}

// Error describes the fault.
func (e *FaultError) Error() string {
	return fmt.Sprintf("chaos: injected %s on %s (transient)", e.Kind, e.Target)
}

// IsFault reports whether err is (or wraps) an injected transient
// fault, as opposed to a real error that retrying cannot fix.
func IsFault(err error) bool {
	for err != nil {
		if _, ok := err.(*FaultError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Config sets per-fault-class rates. The zero value injects nothing;
// DefaultConfig is the "default chaos" the -chaos CLI flag enables.
type Config struct {
	ApplyFailPct   float64 // P(one Server.Apply attempt transiently fails)
	StuckRebootPct float64 // P(a required reboot hangs), per attempt
	DropPct        float64 // P(one sampler read is lost)
	OutlierPct     float64 // P(one sample is corrupted into an outlier)
	OutlierMag     float64 // outlier multiplier (applied up or down)
	CrashPct       float64 // P(a server crashes), per server per wave
	SlowWavePct    float64 // P(a deployment wave is slow)
	SlowWaveSec    float64 // extra virtual seconds for a slow wave
	SpikePct       float64 // P(a load-spike window contains a spike)
	SpikeMag       float64 // spike amplitude (0.5 → +50% load)
	SpikeWindowSec float64 // spike scheduling window length
	BlackoutPct    float64 // P(one sensor read starts a blackout episode)
	BlackoutSec    float64 // virtual seconds a blackout episode persists
}

// DefaultConfig is the fault mix a production fleet actually serves
// up: occasional apply failures and stuck reboots, rare sampler
// dropouts and corrupted counter reads, the odd crashed machine, and
// transient load spikes on top of the diurnal cycle.
func DefaultConfig() Config {
	return Config{
		ApplyFailPct:   0.05,
		StuckRebootPct: 0.02,
		DropPct:        0.01,
		OutlierPct:     0.005,
		OutlierMag:     4.0,
		CrashPct:       0.02,
		SlowWavePct:    0.10,
		SlowWaveSec:    30,
		SpikePct:       0.25,
		SpikeMag:       0.35,
		SpikeWindowSec: 1800,
		BlackoutPct:    0.002,
		BlackoutSec:    1800,
	}
}

// Event is one injected fault, recorded in order within its class so
// tests can assert that equal seeds yield equal schedules.
type Event struct {
	Seq    int    // global record order (informational)
	Kind   string // fault class
	Target string // server / arm / wave the fault hit
}

// Engine is the seeded fault injector. Each fault class draws from an
// independent rng sub-stream (derived with rng.Split), so the number
// of draws in one class never perturbs another class's schedule.
// Engine is safe for concurrent use.
type Engine struct {
	cfg  Config
	seed uint64

	mu       sync.Mutex
	apply    *rng.Source
	reboot   *rng.Source
	drop     *rng.Source
	corrupt  *rng.Source
	crash    *rng.Source
	wave     *rng.Source
	blackout *rng.Source
	events   []Event
	spiked   map[int64]bool     // spike windows already recorded
	dark     map[string]float64 // series -> blackout episode end time
	children []*Engine          // per-trial injectors, in creation order
}

// New builds an engine dealing faults from cfg at the given seed.
func New(seed uint64, cfg Config) *Engine {
	root := rng.New(seed ^ 0xc4a05) // keep chaos streams clear of workload seeds
	return &Engine{
		cfg:      cfg,
		seed:     seed,
		apply:    root.Split("apply"),
		reboot:   root.Split("reboot"),
		drop:     root.Split("drop"),
		corrupt:  root.Split("corrupt"),
		crash:    root.Split("crash"),
		wave:     root.Split("wave"),
		blackout: root.Split("blackout"),
		spiked:   make(map[int64]bool),
		dark:     make(map[string]float64),
	}
}

// Seed returns the engine's fault seed.
func (e *Engine) Seed() uint64 { return e.seed }

// Split derives a child injector whose per-class fault streams are
// independent of the parent's and of every sibling's, keyed by label.
// Parallel trials each draw from their own child, so the number of
// draws one trial makes never perturbs another trial's schedule — the
// property that keeps sweep results bit-identical at any worker count.
// The child keeps the parent's seed for LoadSpike (the spike schedule
// is fleet-wide, pure in (seed, t)) and reports through the parent:
// Events, Fingerprint, Counts and Summary cover the whole family, with
// children appended in creation order. Create children serially (while
// building trial specs, not inside workers) so that order — and thus
// the fingerprint — is deterministic.
func (e *Engine) Split(label string) *Engine {
	child := New(rng.Derive(e.seed, label), e.cfg)
	child.seed = e.seed // LoadSpike stays pure in the fleet-wide (seed, t)
	e.mu.Lock()
	e.children = append(e.children, child)
	e.mu.Unlock()
	return child
}

func (e *Engine) record(kind, target string) {
	e.events = append(e.events, Event{Seq: len(e.events), Kind: kind, Target: target})
}

// ApplyFault implements Injector.
func (e *Engine) ApplyFault(target string) error {
	if e.cfg.ApplyFailPct <= 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.apply.Bool(e.cfg.ApplyFailPct) {
		return nil
	}
	e.record("apply-fail", target)
	mApplyFailures.Inc()
	return &FaultError{Kind: "apply-fail", Target: target}
}

// StuckReboot implements Injector.
func (e *Engine) StuckReboot(target string) bool {
	if e.cfg.StuckRebootPct <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.reboot.Bool(e.cfg.StuckRebootPct) {
		return false
	}
	e.record("stuck-reboot", target)
	mStuckReboots.Inc()
	return true
}

// DropSample implements Injector.
func (e *Engine) DropSample(arm string) bool {
	if e.cfg.DropPct <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.drop.Bool(e.cfg.DropPct) {
		return false
	}
	e.record("sample-dropout", arm)
	mSampleDropouts.Inc()
	return true
}

// CorruptSample implements Injector.
func (e *Engine) CorruptSample(arm string, v float64) (float64, bool) {
	if e.cfg.OutlierPct <= 0 {
		return v, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.corrupt.Bool(e.cfg.OutlierPct) {
		return v, false
	}
	e.record("sample-outlier", arm)
	mSampleOutliers.Inc()
	mag := e.cfg.OutlierMag
	if mag <= 1 {
		mag = 4
	}
	if e.corrupt.Bool(0.5) {
		return v * mag, true
	}
	return v / mag, true
}

// CrashServer implements Injector.
func (e *Engine) CrashServer(target string) bool {
	if e.cfg.CrashPct <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.crash.Bool(e.cfg.CrashPct) {
		return false
	}
	e.record("server-crash", target)
	mServerCrashes.Inc()
	return true
}

// WaveDelay implements Injector.
func (e *Engine) WaveDelay(wave int) float64 {
	if e.cfg.SlowWavePct <= 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.wave.Bool(e.cfg.SlowWavePct) {
		return 0
	}
	e.record("slow-wave", fmt.Sprintf("wave%d", wave))
	mSlowWaves.Inc()
	sec := e.cfg.SlowWaveSec
	if sec <= 0 {
		sec = 30
	}
	return sec
}

// LoadSpike implements Injector. It is a pure function of (seed, t):
// virtual time is divided into SpikeWindowSec windows, each window
// independently seeded, so the spike schedule is identical across runs
// regardless of how consumers interleave their draws.
func (e *Engine) LoadSpike(t float64) float64 {
	if e.cfg.SpikePct <= 0 || e.cfg.SpikeWindowSec <= 0 {
		return 1
	}
	win := int64(math.Floor(t / e.cfg.SpikeWindowSec))
	src := rng.New(rng.Fold(e.seed^0x591ce, uint64(win)))
	if !src.Bool(e.cfg.SpikePct) {
		return 1
	}
	// The spike occupies a random sub-interval of its window.
	w := e.cfg.SpikeWindowSec
	start := (float64(win) + 0.5*src.Float64()) * w
	dur := (0.15 + 0.35*src.Float64()) * w
	if t < start || t >= start+dur {
		return 1
	}
	e.mu.Lock()
	if !e.spiked[win] {
		e.spiked[win] = true
		e.record("load-spike", fmt.Sprintf("window%d", win))
		mLoadSpikes.Inc()
	}
	e.mu.Unlock()
	return 1 + e.cfg.SpikeMag
}

// DropSensor implements Injector. Episodes draw from the blackout
// stream: the first drawn start is recorded once as a sensor-blackout
// event, and every read of the same series before the episode's end
// time is silently dropped without touching the stream — so a long
// blackout consumes exactly one draw and the schedule other series
// see is unperturbed.
func (e *Engine) DropSensor(series string, t float64) bool {
	if e.cfg.BlackoutPct <= 0 || e.cfg.BlackoutSec <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if until, ok := e.dark[series]; ok && t < until {
		return true
	}
	if !e.blackout.Bool(e.cfg.BlackoutPct) {
		return false
	}
	e.dark[series] = t + e.cfg.BlackoutSec
	e.record("sensor-blackout", series)
	mSensorBlackouts.Inc()
	return true
}

// Events returns a copy of every fault injected so far — the engine's
// own, then each child's (recursively), in child creation order — with
// Seq renumbered over the merged view.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	evs := append([]Event(nil), e.events...)
	kids := append([]*Engine(nil), e.children...)
	e.mu.Unlock()
	for _, c := range kids {
		evs = append(evs, c.Events()...)
	}
	for i := range evs {
		evs[i].Seq = i
	}
	return evs
}

// Fingerprint renders the fault schedule as one string — the cheap way
// for tests to assert that two runs saw identical schedules.
func (e *Engine) Fingerprint() string {
	var b strings.Builder
	for _, ev := range e.Events() {
		fmt.Fprintf(&b, "%s:%s;", ev.Kind, ev.Target)
	}
	return b.String()
}

// Counts tallies injected faults by kind.
func (e *Engine) Counts() map[string]int {
	counts := make(map[string]int)
	for _, ev := range e.Events() {
		counts[ev.Kind]++
	}
	return counts
}

// Summary renders the fault tally for CLI output.
func (e *Engine) Summary() string {
	counts := e.Counts()
	if len(counts) == 0 {
		return "no faults injected"
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	total := 0
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
		total += counts[k]
	}
	return fmt.Sprintf("%d faults injected (%s)", total, strings.Join(parts, ", "))
}
