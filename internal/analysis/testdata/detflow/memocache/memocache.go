// Fixture: memoization-cache patterns in a sim-facing package. The
// characterization cache (internal/sim/simcache.go) must stay free of
// ambient state; this fixture pins what detflow rejects — wall
// clock TTLs and random eviction — and shows the clean single-flight
// shape it accepts.
package sim

import (
	"math/rand"
	"sync"
	"time"
)

type entry struct {
	once  sync.Once
	value float64
	added time.Time
}

type memoCache struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// badGetTTL expires entries on the wall clock: two runs of the same
// seed see different hit patterns depending on machine speed.
func (c *memoCache) badGetTTL(key string, compute func() float64) float64 {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || time.Since(e.added) > time.Minute {
		e = &entry{added: time.Now()}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.value = compute() })
	return e.value
}

// badEvictRandom picks eviction victims with ambient randomness, so
// the surviving entries — and every downstream hit/miss — differ per
// run.
func (c *memoCache) badEvictRandom() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if rand.Intn(2) == 0 {
			delete(c.entries, k)
			return
		}
	}
}

// goodGet is the clean content-addressed single-flight shape: keyed
// purely on inputs, first requester computes inside the entry's once,
// latecomers block on it. Nothing ambient — no findings.
func (c *memoCache) goodGet(key string, compute func() float64) float64 {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &entry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.value = compute() })
	return e.value
}

var (
	_ = (*memoCache).badGetTTL
	_ = (*memoCache).badEvictRandom
	_ = (*memoCache).goodGet
)
