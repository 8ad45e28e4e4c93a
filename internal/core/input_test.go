package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"softsku/internal/knob"
)

func TestParseInputFull(t *testing.T) {
	in, err := ParseInput(`
# µSKU input file
microservice = Web
platform     = Skylake18
sweep        = independent
metric       = mips
knobs        = thp, shp
seed         = 42
max_samples  = 5000
`)
	if err != nil {
		t.Fatal(err)
	}
	if in.Microservice != "Web" || in.Platform != "Skylake18" {
		t.Fatalf("target: %+v", in)
	}
	if in.Sweep != SweepIndependent || in.Metric != MetricMIPS {
		t.Fatalf("modes: %+v", in)
	}
	if len(in.Knobs) != 2 || in.Knobs[0] != knob.THP || in.Knobs[1] != knob.SHP {
		t.Fatalf("knobs: %v", in.Knobs)
	}
	if in.Seed != 42 || in.AB.MaxSamples != 5000 {
		t.Fatalf("seed/samples: %+v", in)
	}
}

func TestParseInputDefaults(t *testing.T) {
	in, err := ParseInput("microservice = Ads1\n")
	if err != nil {
		t.Fatal(err)
	}
	if in.Sweep != SweepIndependent || in.Metric != MetricMIPS || in.Seed != 1 {
		t.Fatalf("defaults: %+v", in)
	}
	if in.AB.MaxSamples != 30000 {
		t.Fatalf("default sample cap: %d", in.AB.MaxSamples)
	}
}

func TestParseInputErrors(t *testing.T) {
	cases := []string{
		"",                              // missing microservice
		"microservice Web",              // no equals
		"microservice = Web\nsweep = x", // bad sweep
		"microservice = Web\nmetric = latency",
		"microservice = Web\nknobs = voltage",
		"microservice = Web\nseed = abc",
		"microservice = Web\nmax_samples = -1",
		"microservice = Web\nunknownkey = 1",
		"microservice = Web\n# " + strings.Repeat("x", 70000), // line too long to scan
	}
	for i, c := range cases {
		if _, err := ParseInput(c); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestParseInputSweepModes(t *testing.T) {
	for _, m := range []string{"independent", "exhaustive", "hillclimb"} {
		in, err := ParseInput("microservice = Web\nsweep = " + m)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.EqualFold(in.Sweep.String(), m) {
			t.Fatalf("round trip %q -> %v", m, in.Sweep)
		}
	}
	_, err := ParseInput("microservice = Web\nsweep = cem")
	if err == nil || !strings.Contains(err.Error(), "want independent, exhaustive, or hillclimb") {
		t.Fatalf("sweep = cem: %v; want an error listing the valid modes", err)
	}
}

func TestParseSweepMode(t *testing.T) {
	cases := []struct {
		val  string
		want SweepMode
		err  bool
	}{
		{"hill", SweepHillClimb, false},
		{"hill-climb", SweepHillClimb, false},
		{"hill_climb", SweepHillClimb, false},
		{"HillClimb", SweepHillClimb, false},
		{"independent", SweepIndependent, false},
		{"exhaustive", SweepExhaustive, false},
		{"halving", 0, true},
		{"cem", 0, true},
		{"population", 0, true},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSweepMode(c.val)
		if c.err {
			if err == nil {
				t.Errorf("ParseSweepMode(%q): expected error", c.val)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseSweepMode(%q) = %v, %v; want %v", c.val, got, err, c.want)
		}
	}
}

// TestParseInputSearchKey: "sweep" is the input file's only mode key;
// a file that still names a mode under "search" fails as an unknown
// key rather than silently running the default sweep.
func TestParseInputSearchKey(t *testing.T) {
	_, err := ParseInput("microservice = Web\nsearch = hill")
	if err == nil || !strings.Contains(err.Error(), `unknown key "search"`) {
		t.Fatalf("search = hill: %v; want an unknown-key error", err)
	}
}

// FuzzParseInput feeds the input-file parser arbitrary text, seeded
// with the README's example file and this file's cases. Neither
// ParseInput nor, on success, Validate may panic; an accepted input
// must validate; and the same text must always parse to the same Input
// (or the same error).
func FuzzParseInput(f *testing.F) {
	for _, seed := range []string{
		"microservice = Web\nplatform     = Skylake18\nsweep        = independent   # independent | exhaustive | hillclimb\n" +
			"metric       = mips          # mips | qps  (Cache requires qps, §4)\nknobs        = cdp, thp, shp # optional subset\n" +
			"seed         = 1\nparallel     = 4             # trial workers; 0 = GOMAXPROCS\n",
		"# µSKU input file\nmicroservice = Web\nplatform = Skylake18\nsweep = independent\nmetric = mips\nknobs = thp, shp\nseed = 42\nmax_samples = 5000\n",
		"microservice = Ads1\nsweep = exhaustive\n",
		"microservice = Web\nsweep = hill\ntwin = on\nmetric = perf/watt\n",
		"microservice = Web\nknobs = voltage",
		"microservice Web",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		in, err := ParseInput(text)
		again, errAgain := ParseInput(text)
		if fmt.Sprint(err) != fmt.Sprint(errAgain) || !reflect.DeepEqual(in, again) {
			t.Fatalf("same text parsed twice differently:\n %#v, %v\n %#v, %v", in, err, again, errAgain)
		}
		if err == nil {
			if err := in.Validate(); err != nil {
				t.Fatalf("accepted input fails Validate: %v\n%#v", err, in)
			}
		}
	})
}
