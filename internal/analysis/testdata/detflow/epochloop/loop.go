// Fixture: the self-healing control loop (internal/fleet/controller)
// is in the sim-facing set, so detflow polices its go statements: the
// epoch loop is strictly serial and only the inner A/B trials may fan
// out, through core.ParallelFor's merge-ordered pool.
package controller

import "sync"

type pool struct{ name string }

// epochFanOut is the bug this fixture pins: detecting drift across
// pools in spawned goroutines makes ledger order scheduler-dependent.
func epochFanOut(pools []*pool, detect func(*pool)) {
	var wg sync.WaitGroup
	for _, p := range pools {
		wg.Add(1)
		p := p
		go func() {
			defer wg.Done()
			detect(p)
		}()
	}
	wg.Wait()
}

// probeAsync is also a finding — even a lone breaker half-open probe
// must run inline so its ledger events land in epoch order.
func probeAsync(probe func()) {
	go probe()
}

// serialEpoch is the accepted shape: pools in sorted order, one at a
// time; parallelism lives below, inside the tuning trials.
func serialEpoch(pools []*pool, detect func(*pool)) {
	for _, p := range pools {
		detect(p)
	}
}

var _ = serialEpoch
