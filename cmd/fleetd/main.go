// Command fleetd soaks the self-healing fleet controller: a
// deterministic control loop that keeps a sharded, mixed-SKU fleet of
// simulated servers tuned while load drifts and injected faults land
// (ROADMAP item 1: µSKU as a continuous, chaos-hardened control loop).
//
// Usage:
//
//	fleetd -servers 1008 -epochs 20
//	fleetd -chaos -chaos-seed 7 -epochs 20 -ledger-out soak.jsonl
//	fleetd -chaos -parallel 8 -json
//
// The soak is a pure function of (-seed, -chaos-seed, fleet size):
// the decision ledger and the chaos fingerprint are byte-identical
// across runs at any -parallel count, which is exactly what
// scripts/check.sh's soak smoke asserts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"softsku/internal/chaos"
	"softsku/internal/core"
	"softsku/internal/fleet/controller"
	"softsku/internal/telemetry"
)

func main() {
	var (
		servers   = flag.Int("servers", 1008, "total simulated servers across the default 24-pool fleet")
		epochs    = flag.Int("epochs", 20, "control epochs to soak (one virtual day each)")
		seed      = flag.Uint64("seed", 1, "controller seed: load, drift, jitter, and tuning streams derive from it")
		parallel  = flag.Int("parallel", 0, "trial worker count inside re-tunes; output is seed-deterministic at any value (0: GOMAXPROCS)")
		driftRate = flag.Float64("drift-rate", 0.04, "per-pool per-epoch probability of a real workload shift")
		tuneMax   = flag.Int("tune-samples", 120, "per-arm sample cap for drift-chasing A/B trials")
		tuneSrch  = flag.String("tune-search", "independent", "re-tune optimizer: independent | hill")
		guardrail = flag.Float64("guardrail-pct", 0, "abort and revert re-tune A/B trials regressing beyond this percent (0: the controller default, 2)")
		tuneTwin  = flag.Bool("tune-twin", false, "arm the analytical-twin fidelity ladder inside re-tunes of any -tune-search, the default independent sweep included (prunes predicted-losing arms before any window runs)")
		decOut    = flag.String("ledger-out", "", "write the soak's decision ledger as JSONL (replay with skutrace)")
		jsonOut   = flag.Bool("json", false, "emit the soak report as JSON instead of text")
		quiet     = flag.Bool("q", false, "suppress per-epoch progress logging")
		obs       telemetry.CLI
		cc        chaos.CLI
	)
	obs.Flags()
	cc.Flags()
	flag.Parse()

	cfg := controller.DefaultConfig()
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	cfg.DriftRate = *driftRate
	cfg.TuneMinSamples = 40
	cfg.TuneMaxSamples = *tuneMax
	if *tuneSrch != "independent" {
		mode, err := core.ParseSweepMode(*tuneSrch)
		if err == nil && mode != core.SweepHillClimb {
			err = fmt.Errorf("unknown -tune-search %q (want independent or hill)", *tuneSrch)
		}
		if err != nil {
			fatal(err)
		}
		cfg.TuneSweep = mode
	}
	if *guardrail > 0 {
		cfg.TuneGuardrailPct = *guardrail
	}
	cfg.TuneTwin = *tuneTwin

	ctl, err := controller.New(cfg, controller.DefaultFleetSpec(*servers))
	if err != nil {
		fatal(err)
	}
	if eng := engine(&cc); eng != nil {
		ctl.SetChaos(eng)
	}
	if !*quiet {
		ctl.SetLogger(os.Stderr)
	}
	obs.Decisions = ctl.Ledger().Handler()
	if _, err := obs.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := obs.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "fleetd:", err)
		}
	}()

	rep, err := ctl.Run(*epochs)
	if err != nil {
		fatal(err)
	}

	if *decOut != "" {
		f, err := os.Create(*decOut)
		if err != nil {
			fatal(err)
		}
		if err := ctl.Ledger().WriteJSONL(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("soak:        %d epochs over %d pools / %d servers (%.0f virtual days)\n",
			rep.Epochs, rep.Pools, rep.Servers, rep.VirtualSec/86400)
		fmt.Printf("tuning:      %d drifts, %d re-tunes, %d rollouts (%d failed)\n",
			rep.Drifted, rep.Retuned, rep.RolledOut, rep.RolloutFailures)
		fmt.Printf("self-heal:   %d quarantined, %d repaired, %d breaker opens, %d freezes, %d degraded pool-epochs\n",
			rep.Quarantined, rep.Repaired, rep.BreakerOpens, rep.Freezes, rep.DegradedEpochs)
		if rep.Fingerprint != "" {
			fmt.Printf("chaos:       %d fault events, fingerprint %s\n", rep.FaultEvents, rep.Fingerprint)
		}
		state := "CONVERGED"
		if !rep.Converged {
			state = fmt.Sprintf("MIXED (%d pools)", rep.MixedPools)
		}
		fmt.Printf("state:       %s\n", state)
	}
	if !rep.Converged {
		os.Exit(2)
	}
	if obs.Serving() {
		fmt.Fprintf(os.Stderr, "fleetd: serving observability on http://%s (ctrl-c to exit)\n", obs.ServingAddr())
		obs.Wait()
	}
}

// engine builds the soak's fault engine with the sensor-blackout class
// enabled on top of the default fault mix.
func engine(cc *chaos.CLI) *chaos.Engine {
	if !cc.Enabled {
		return nil
	}
	cfg := chaos.DefaultConfig()
	cfg.BlackoutPct = 0.01
	cfg.BlackoutSec = 86400
	return chaos.New(cc.Seed, cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetd:", err)
	os.Exit(1)
}
