// Fixture: bare go statements in a sim-facing package.
package sim

import "sync"

// fanOutBare loses completion-order control: merged results depend on
// the scheduler.
func fanOutBare(fns []func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		fn := fn
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// poolWorker documents a deliberate, merge-ordered worker spawn.
func poolWorker(work func()) {
	//lint:ignore detflow fixture exercising suppression
	go work()
}

// fireAndForget is also a finding — even a single goroutine detaches
// from the deterministic call tree.
func fireAndForget(f func()) {
	go f()
}
