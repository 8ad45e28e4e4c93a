package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a log-bucketed latency histogram suited to the
// microsecond-to-seconds request-latency range the microservices span.
// The zero value is ready to use.
type Histogram struct {
	counts []uint64 // bucket i covers [base*growth^i, base*growth^(i+1))
	under  uint64   // observations below base
	total  uint64
	sum    float64
	maxv   float64
}

const (
	histBase    = 1e-7 // 100 ns
	histGrowth  = 1.2
	histBuckets = 140 // covers ~100ns .. ~10000s
)

// Observe records one value (e.g. a request latency in seconds).
// Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	h.total++
	h.sum += v
	if v > h.maxv {
		h.maxv = v
	}
	if v < histBase {
		h.under++
		return
	}
	i := int(math.Log(v/histBase) / math.Log(histGrowth))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 { return h.total }

// Mean returns the mean of all observations.
func (h Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observation.
func (h Histogram) Max() float64 { return h.maxv }

// Quantile returns an estimate of the q-quantile (0..1) using the
// bucket upper bound, which is conservative for tail-latency QoS
// checks.
func (h Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	cum := h.under
	if cum >= target {
		return histBase
	}
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return histBase * math.Pow(histGrowth, float64(i+1))
		}
	}
	return h.maxv
}

// Sum returns the sum of all observations.
func (h Histogram) Sum() float64 { return h.sum }

// Copy returns a deep copy whose bucket storage is independent of h.
func (h Histogram) Copy() Histogram {
	c := h
	if h.counts != nil {
		c.counts = append([]uint64(nil), h.counts...)
	}
	return c
}

// EachBucket calls f for every non-empty bucket in ascending order of
// upper bound, including the implicit sub-base bucket. Exporters use
// this to render cumulative bucket counts without knowing the bucket
// layout.
func (h Histogram) EachBucket(f func(upperBound float64, count uint64)) {
	if h.under > 0 {
		f(histBase, h.under)
	}
	for i, c := range h.counts {
		if c > 0 {
			f(histBase*math.Pow(histGrowth, float64(i+1)), c)
		}
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.under += other.under
	h.total += other.total
	h.sum += other.sum
	if other.maxv > h.maxv {
		h.maxv = other.maxv
	}
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.under, h.total, h.sum, h.maxv = 0, 0, 0, 0
}

// String renders a compact summary.
func (h Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p99=%s max=%s",
		h.total, fmtDur(h.Mean()), fmtDur(h.Quantile(0.5)),
		fmtDur(h.Quantile(0.99)), fmtDur(h.maxv))
}

func fmtDur(sec float64) string {
	switch {
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2fms", sec*1e3)
	case sec >= 1e-6:
		return fmt.Sprintf("%.2fµs", sec*1e6)
	default:
		return fmt.Sprintf("%.0fns", sec*1e9)
	}
}

// FormatTable renders a header and rows as an aligned text table: every
// cell but a row's last is padded to its column's width, and a row of
// dashes separates the header from the rows. It is the grid of every
// reproduced table and figure (figures.Table.String).
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, hcol := range header {
		widths[i] = len(hcol)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// SortedKeys returns map keys in sorted order for deterministic output.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
