// Package core implements µSKU (§4, Fig 13): the design tool that
// discovers performant "soft SKUs" by A/B-testing configurable server
// knobs on production systems serving live traffic. It comprises the
// paper's four components — input-file parser, A/B test configurator,
// A/B tester, and soft-SKU generator — plus the extensions §5 and §7
// sketch: SHP binary search, exhaustive sweeps, and hill-climbing.
package core

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"softsku/internal/abtest"
	"softsku/internal/knob"
)

// SweepMode selects how the design space is explored (§4 "sweep
// configuration").
type SweepMode int

// Sweep modes.
const (
	// SweepIndependent scales knobs one-by-one against the baseline and
	// composes the winners — the mode the paper deploys, since code
	// pushes outpace exhaustive sweeps.
	SweepIndependent SweepMode = iota
	// SweepExhaustive explores the cross-product of knob settings.
	SweepExhaustive
	// SweepHillClimb greedily walks the space (§7's suggested heuristic).
	SweepHillClimb
)

// String names the mode as written in input files.
func (m SweepMode) String() string {
	switch m {
	case SweepIndependent:
		return "independent"
	case SweepExhaustive:
		return "exhaustive"
	case SweepHillClimb:
		return "hillclimb"
	default:
		return fmt.Sprintf("sweep(%d)", int(m))
	}
}

// ParseSweepMode parses a sweep-mode name as written in input files
// and flags; "hill" is short for hillclimb.
func ParseSweepMode(val string) (SweepMode, error) {
	switch strings.ToLower(val) {
	case "independent":
		return SweepIndependent, nil
	case "exhaustive":
		return SweepExhaustive, nil
	case "hill", "hillclimb", "hill-climb", "hill_climb":
		return SweepHillClimb, nil
	}
	return SweepIndependent, fmt.Errorf("unknown sweep %q (want independent, exhaustive, or hillclimb)", val)
}

// Metric selects the performance estimate µSKU optimizes (§4: MIPS by
// default; extensible to service-specific metrics like QPS).
type Metric int

// Metrics.
const (
	MetricMIPS Metric = iota
	MetricQPS
	// MetricPerfPerWatt optimizes MIPS/W — the §7 extension to
	// energy-efficiency rather than pure performance.
	MetricPerfPerWatt
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricQPS:
		return "qps"
	case MetricPerfPerWatt:
		return "perfwatt"
	default:
		return "mips"
	}
}

// Input is µSKU's input file (§4): the target microservice, the
// hardware platform, and the sweep configuration.
type Input struct {
	Microservice string
	Platform     string
	Sweep        SweepMode
	Metric       Metric
	// Knobs restricts the sweep to the named knobs; empty means all
	// applicable knobs.
	Knobs []knob.ID
	Seed  uint64
	// Parallel is the trial worker count; <= 0 means GOMAXPROCS.
	// Results are bit-identical at any worker count for a given seed.
	Parallel int
	// Twin arms the tiered-fidelity ladder: search rounds consult the
	// calibrated analytical twin and prune candidates whose predicted
	// regression clears the safety margin, instead of measuring every
	// validated arm (DESIGN.md §16).
	Twin bool
	// AB overrides the default A/B tester configuration.
	AB abtest.Config
}

// DefaultInput returns an input with the prototype's defaults.
func DefaultInput(service, platform string) Input {
	return Input{
		Microservice: service,
		Platform:     platform,
		Sweep:        SweepIndependent,
		Metric:       MetricMIPS,
		Seed:         1,
		AB:           abtest.DefaultConfig(),
	}
}

// ParseInput reads the µSKU input-file format: one "key = value" pair
// per line, '#' comments. Recognized keys: microservice, platform,
// sweep, metric, knobs (comma-separated), seed,
// max_samples, parallel, twin (on/off).
func ParseInput(text string) (Input, error) {
	in := Input{Sweep: SweepIndependent, Metric: MetricMIPS, Seed: 1, AB: abtest.DefaultConfig()}
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return in, fmt.Errorf("core: input line %d: expected key = value", lineNo)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "microservice", "service":
			in.Microservice = val
		case "platform":
			in.Platform = val
		case "sweep":
			mode, err := ParseSweepMode(val)
			if err != nil {
				return in, fmt.Errorf("core: input line %d: %v", lineNo, err)
			}
			in.Sweep = mode
		case "metric":
			switch strings.ToLower(val) {
			case "mips":
				in.Metric = MetricMIPS
			case "qps":
				in.Metric = MetricQPS
			case "perfwatt", "perf/watt", "mips/watt":
				in.Metric = MetricPerfPerWatt
			default:
				return in, fmt.Errorf("core: input line %d: unknown metric %q", lineNo, val)
			}
		case "knobs":
			for _, name := range strings.Split(val, ",") {
				id, err := knob.ParseID(name)
				if err != nil {
					return in, fmt.Errorf("core: input line %d: %v", lineNo, err)
				}
				in.Knobs = append(in.Knobs, id)
			}
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return in, fmt.Errorf("core: input line %d: bad seed %q", lineNo, val)
			}
			in.Seed = n
		case "max_samples":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return in, fmt.Errorf("core: input line %d: bad max_samples %q", lineNo, val)
			}
			in.AB.MaxSamples = n
		case "parallel":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return in, fmt.Errorf("core: input line %d: bad parallel %q", lineNo, val)
			}
			in.Parallel = n
		case "twin":
			switch strings.ToLower(val) {
			case "on", "true", "1", "yes":
				in.Twin = true
			case "off", "false", "0", "no":
				in.Twin = false
			default:
				return in, fmt.Errorf("core: input line %d: bad twin %q (want on/off)", lineNo, val)
			}
		default:
			return in, fmt.Errorf("core: input line %d: unknown key %q", lineNo, key)
		}
	}
	if err := sc.Err(); err != nil {
		return in, fmt.Errorf("core: input line %d: %v", lineNo+1, err)
	}
	if in.Microservice == "" {
		return in, fmt.Errorf("core: input file missing 'microservice'")
	}
	return in, nil
}

// Validate checks the input for internal consistency.
func (in Input) Validate() error {
	if in.Microservice == "" {
		return fmt.Errorf("core: no target microservice")
	}
	return nil
}
