package telemetry

import "time"

// The process wall clock behind every telemetry timestamp. The
// sim-facing packages are forbidden (softskulint's detflow analyzer)
// from reaching time.Now: simulation results must depend only on
// virtual time and the run's seed. Observability-only timing — span
// durations, sim-seconds-per-wall-second throughput — flows through
// this injectable clock instead, so it can never leak into a verdict
// and tests can freeze it. Detflow's call graph has no edge through a
// function value, so the indirection below is what keeps it quiet.

var wallNow = time.Now

// Now returns the current time on the telemetry wall clock.
func Now() time.Time { return wallNow() }

// Since returns the wall time elapsed since t on the telemetry clock.
func Since(t time.Time) time.Duration { return wallNow().Sub(t) }

// SetWallClock replaces the telemetry wall clock and returns a
// restore function. Tests freeze or step the clock to make span
// durations and throughput gauges deterministic; the replacement must
// be monotonic non-decreasing like the real clock.
func SetWallClock(now func() time.Time) (restore func()) {
	prev := wallNow
	wallNow = now
	return func() { wallNow = prev }
}
