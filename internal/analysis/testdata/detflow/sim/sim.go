// Fixture: a sim-facing package whose functions reach nondeterminism
// sources only transitively, through the helper package — every
// diagnostic must show the complete cross-package call path.
package sim

import (
	"time"

	"softsku/internal/analysis/testdata/detflow/helper"
)

// Step reaches the wall clock three frames deep:
// sim.Step → helper.Wrap → helper.stamp → time.Now.
func Step() time.Time { return helper.Wrap() }

// Ticker is dispatched by interface; CHA must resolve helper.Clock.
type Ticker interface{ Tick() int }

// Drive reaches global math/rand through interface dispatch.
func Drive(t Ticker) int { return t.Tick() }

// Order leaks map iteration order via the helper.
func Order(m map[string]int) []string { return helper.Keys(m) }

// Sorted uses the deterministic helper and must stay clean.
func Sorted(m map[string]int) []string { return helper.SortedKeys(m) }

// Sum folds through the commutative helper and must stay clean.
func Sum(m map[string]int) int { return helper.Tally(m) }

// Mode consults the ambient environment two frames up.
func Mode() string { return helper.Env() }

// Width reaches host-shape introspection.
func Width() int { return helper.Cores() }

// Next returns a scheduler-ordered counter.
func Next() uint64 { return helper.Seq() }

// Race reaches a multi-clause select.
func Race(a, b chan int) int { return helper.Pick(a, b) }

// Wall is a deliberate, reasoned acceptance: the introducing edge is
// pruned, so no path through helper.Wrap is reported here.
func Wall() time.Time {
	//lint:ignore detflow fixture: observability-only timestamp, proven result-invariant
	return helper.Wrap()
}

// hidden is unexported, but every function of a sim-facing package
// is a contract entry point, so it is reported on its own.
func hidden() string { return helper.Env() }

var _ = hidden

// Launch reaches a go statement in a helper package, where a
// per-package check of sim-facing packages never looked.
func Launch(work func()) { helper.Spawn(work) }

// Throw reaches a *rand.Rand method through the helper: no global
// stream, but still a seed outside the run's.
func Throw(d helper.Dice) int { return d.Roll() }
