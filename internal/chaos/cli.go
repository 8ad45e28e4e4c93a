package chaos

import "flag"

// CLI bundles the standard fault-injection flags shared by the
// command-line tools, mirroring telemetry.CLI: declare it, call
// Flags() before flag.Parse(), then Engine() after.
type CLI struct {
	// Enabled turns injection on (-chaos).
	Enabled bool
	// Seed drives the deterministic fault schedule (-chaos-seed): the
	// same seed reproduces the same faults at the same points.
	Seed uint64
}

// Flags registers -chaos and -chaos-seed.
func (c *CLI) Flags() {
	flag.BoolVar(&c.Enabled, "chaos", false,
		"enable deterministic fault injection (apply failures, dropouts, crashes, load spikes)")
	flag.Uint64Var(&c.Seed, "chaos-seed", 1,
		"fault-injection seed; the same seed reproduces the same fault schedule")
}

// Engine returns the configured injector, or nil when -chaos is off.
func (c *CLI) Engine() *Engine {
	if !c.Enabled {
		return nil
	}
	return New(c.Seed, DefaultConfig())
}
