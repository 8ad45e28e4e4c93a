package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"softsku/internal/knob"
	"softsku/internal/workload"
)

// goldenWindowDigest is the SHA-256 over every window in goldenWindows.
// Any change to the cache, TLB, prefetch or stream models that moves a
// single count or rate changes it. Update it only for a deliberate
// model change, and say which in the commit.
const goldenWindowDigest = "c91169ce6675c8ab0a05744704573e6a2f43f42185ea1081b69145169d119c90"

// goldenWindows measures the pinned windows with the characterization
// cache off, so each one runs on a fresh machine, and renders every
// WindowRates field at full precision.
func goldenWindows(t *testing.T) string {
	t.Helper()
	prev := SetCharacterizationCache(false)
	defer SetCharacterizationCache(prev)
	h := sha256.New()
	add := func(name string, m *Machine) {
		fmt.Fprintf(h, "%s %#v\n", name, *m.Characterize())
	}
	for _, p := range workload.All() {
		add(p.Name+"/"+p.Platform, machineFor(t, p.Name, p.Platform, nil))
	}
	web := func(name string, mod func(knob.Config) knob.Config) {
		add("Web/Skylake18/"+name, machineFor(t, "Web", "Skylake18", mod))
	}
	web("cdp", func(c knob.Config) knob.Config {
		c.CDP = knob.CDPConfig{DataWays: 7, CodeWays: 4}
		return c
	})
	cat := machineFor(t, "Web", "Skylake18", nil)
	if err := cat.SetCAT(4); err != nil {
		t.Fatal(err)
	}
	add("Web/Skylake18/cat4", cat)
	web("prefetch-off", func(c knob.Config) knob.Config {
		c.Prefetch = knob.PrefetchNone
		return c
	})
	web("thp-always-shp300", func(c knob.Config) knob.Config {
		c.THP = knob.THPAlways
		c.SHPCount = 300
		return c
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenWindowDigest pins the simulated windows bit for bit: the
// seven services on their home platforms at production configuration,
// and Web/Skylake18 with CDP, CAT 4, prefetchers off, and THP always
// with 300 static huge pages. Performance work on the window must
// leave every count and rate unchanged.
func TestGoldenWindowDigest(t *testing.T) {
	if got := goldenWindows(t); got != goldenWindowDigest {
		t.Fatalf("window digest %s, want %s", got, goldenWindowDigest)
	}
}
