// Fixture: a helper package whose functions hide nondeterminism one
// or two hops away from the sim-facing caller — the class of leak a
// per-package check cannot see and detflow must.
package helper

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// stamp reads the wall clock directly.
func stamp() time.Time { return time.Now() }

// Wrap adds a hop so the offending path crosses three frames.
func Wrap() time.Time { return stamp() }

// Clock satisfies sim.Ticker; Tick draws from the global stream, so
// interface dispatch must carry the taint back to the caller.
type Clock struct{}

func (Clock) Tick() int { return rand.Intn(10) }

// Keys leaks map iteration order: append without a later sort.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys is the collect-then-sort idiom and must stay clean.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Env consults ambient process state.
func Env() string { return os.Getenv("SOFTSKU_MODE") }

// Cores reads the host shape.
func Cores() int { return runtime.NumCPU() }

var seq uint64

// Seq returns a scheduler-ordered atomic counter value.
func Seq() uint64 { return atomic.AddUint64(&seq, 1) }

// Pick returns whichever channel is ready first — the runtime picks
// among ready clauses at random.
func Pick(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Tally folds a map into a sum: commutative, so order cannot escape;
// must stay clean.
func Tally(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Spawn runs work on its own goroutine; nothing orders what it
// computes against the caller.
func Spawn(work func()) { go work() }

// Dice draws from a private *rand.Rand, seeded outside the run's
// internal/rng tree.
type Dice struct{ r *rand.Rand }

func (d Dice) Roll() int { return d.r.Intn(6) }
