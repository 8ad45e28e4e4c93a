// Fixture: wall-clock and ambient-randomness hits in the body of a
// sim-facing function — call depth zero.
package sim

import (
	"math/rand"
	"time"
)

func badTiming() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}

func badRand() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10) + rand.Intn(10)
}

// okDuration only touches pure time types: allowed.
func okDuration(d time.Duration) float64 {
	return d.Seconds()
}

func suppressed() time.Time {
	//lint:ignore detflow fixture exercising suppression
	return time.Now()
}

var _ = badTiming
var _ = badRand
var _ = okDuration
var _ = suppressed
