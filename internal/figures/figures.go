// Package figures regenerates every table and figure of the paper's
// evaluation: each function runs the corresponding experiment on the
// simulated fleet and returns a rendered table, side by side with the
// paper's reported values where the paper gives them. cmd/characterize
// (`-tuning -ablations` prints all of them) and EXPERIMENTS.md draw
// from here.
package figures

import (
	"fmt"
	"strings"

	"softsku/internal/platform"
	"softsku/internal/sim"
	"softsku/internal/stats"
	"softsku/internal/workload"
)

// Table is one reproduced table or figure.
type Table struct {
	ID     string // e.g. "Table 2", "Fig 9"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text: a "== ID: Title ==" line,
// the stats.FormatTable grid, then one "note:" line per note.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	b.WriteString(stats.FormatTable(t.Header, t.Rows))
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// serviceOrder is the paper's presentation order.
var serviceOrder = []string{"Web", "Feed1", "Feed2", "Ads1", "Ads2", "Cache1", "Cache2"}

// Context caches per-service machines, operating points and peak-load
// searches so the figure set reuses expensive work.
type Context struct {
	Seed     uint64
	machines map[string]*sim.Machine
	ops      map[string]sim.Operating
	peaks    map[string]sim.PeakLoad
}

// NewContext builds a figure context with the given seed.
func NewContext(seed uint64) *Context {
	return &Context{
		Seed:     seed,
		machines: make(map[string]*sim.Machine),
		ops:      make(map[string]sim.Operating),
		peaks:    make(map[string]sim.PeakLoad),
	}
}

// Machine returns the production-configured machine for a service on
// its default platform.
func (c *Context) Machine(svc string) *sim.Machine {
	if m, ok := c.machines[svc]; ok {
		return m
	}
	prof, err := workload.ByName(svc)
	if err != nil {
		panic(err)
	}
	m, err := MachineFor(prof.Name, prof.Platform, c.Seed)
	if err != nil {
		panic(err)
	}
	c.machines[svc] = m
	return m
}

// Operating returns the service's peak operating point.
func (c *Context) Operating(svc string) sim.Operating {
	if op, ok := c.ops[svc]; ok {
		return op
	}
	op := c.Machine(svc).SolvePeak()
	c.ops[svc] = op
	return op
}

// Peak returns the service's QoS-limited peak-load service simulation.
func (c *Context) Peak(svc string) sim.PeakLoad {
	if p, ok := c.peaks[svc]; ok {
		return p
	}
	p := c.Machine(svc).FindPeak(c.Seed)
	c.peaks[svc] = p
	return p
}

// MachineFor builds a production-configured machine for an arbitrary
// service/platform pair.
func MachineFor(svc, plat string, seed uint64) (*sim.Machine, error) {
	base, err := workload.ByName(svc)
	if err != nil {
		return nil, err
	}
	sku, err := platform.ByName(plat)
	if err != nil {
		return nil, err
	}
	prof := workload.ForPlatform(base, sku.Name)
	srv, err := platform.NewServer(sku, sim.ProductionConfig(sku, prof))
	if err != nil {
		return nil, err
	}
	return sim.NewMachine(srv, prof, seed)
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// order10 renders a value as its order of magnitude, the way Table 2
// reports approximate scales.
func order10(v float64) string {
	if v <= 0 {
		return "0"
	}
	exp := 0
	for v >= 10 {
		v /= 10
		exp++
	}
	for v < 1 {
		v *= 10
		exp--
	}
	return fmt.Sprintf("O(1e%d)", exp)
}
