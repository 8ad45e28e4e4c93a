package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain implements `bench compare BASE.json CHANGE.json
// [MORE.json...]`: every file is one side, the runs it holds are that
// side's samples, and each later side is judged against the first.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE.json CHANGE.json [MORE.json...]")
		return 2
	}
	s, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	sides := make([]resultFile, len(args))
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sides[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %s: %v\n", path, err)
			return 1
		}
	}
	status := 0
	for i := 1; i < len(sides); i++ {
		if compareSides(stdout, s, args[0], args[i], sides[0], sides[i]) {
			status = 1
		}
	}
	return status
}

// compareSides prints one table per workload and reports whether any
// row came out worse or changed.
func compareSides(w io.Writer, s *spec, nameA, nameB string, a, b resultFile) bool {
	fmt.Fprintf(w, "== base %s (%d runs, %s) vs %s (%d runs, %s)\n",
		nameA, len(a.Runs), a.Provenance.Revision, nameB, len(b.Runs), b.Provenance.Revision)
	var all []metricSpec
	all = append(append(append(all, s.EndToEnd...), outputs...), s.PerLayer...)
	bad := false
	for _, wl := range s.Workloads {
		da, db := digests(a, wl.Name), digests(b, wl.Name)
		decisions := "same decisions"
		if da != db {
			decisions = "DECISIONS DIFFER: " + da + " vs " + db
		}
		fmt.Fprintf(w, "-- %s: %s\n", wl.Name, decisions)
		fmt.Fprintf(w, "  %-30s %-6s %28s %28s %8s  %s\n", "metric", "unit", "base median [q1 q3]", "change median [q1 q3]", "delta", "verdict")
		for _, ms := range all {
			xa, xb := samplesOf(a, wl.Name, ms.Name), samplesOf(b, wl.Name, ms.Name)
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			v := verdict(ms, exact[ms.Name], xa, xb)
			if v == "worse" || v == "changed" || v == "missing" {
				bad = true
			}
			ma, mb := median(xa), median(xb)
			delta := "-"
			if ma != 0 && len(xa) > 0 && len(xb) > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/math.Abs(ma))
			}
			fmt.Fprintf(w, "  %-30s %-6s %28s %28s %8s  %s\n", ms.Name, ms.Unit, spreadString(xa), spreadString(xb), delta, v)
		}
	}
	return bad
}

// digests lists a workload's decision digest per run, or the one digest
// every run shares.
func digests(res resultFile, workload string) string {
	seen := map[string]bool{}
	out := ""
	for _, r := range res.Runs {
		if rec := r[workload]; rec != nil && !seen[rec.Digest] {
			seen[rec.Digest] = true
			if out != "" {
				out += ","
			}
			out += rec.Digest
		}
	}
	return out
}

func spreadString(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g]", q2, q1, q3)
}

// verdict judges one metric of a change against its base.
//
//   - An exact metric is "same" only when every run of both sides
//     reads the same value, bit for bit; otherwise "changed".
//   - "better": the change wins at least 9 of every 10 index-paired
//     runs (at least 10 pairs, ties count for neither side) and the
//     medians differ by more than the base's interquartile spread.
//   - "worse": a bounded metric's median is past its bound; an
//     unbounded metric loses by the rule that makes a win "better".
//   - "unresolved": a bounded metric whose spread on either side is
//     wider than its bound, unless every change run beats every base
//     run.
//   - "same" otherwise.
func verdict(ms metricSpec, isExact bool, base, change []float64) string {
	if len(base) == 0 || len(change) == 0 {
		return "missing"
	}
	if isExact {
		for _, x := range append(append([]float64(nil), base...), change...) {
			if x != base[0] {
				return "changed"
			}
		}
		return "same"
	}
	lower := ms.Better == "lower"
	wins := func(a, b float64) bool { // b reads better than a
		if lower {
			return b < a
		}
		return b > a
	}
	ma, mb := median(base), median(change)
	q1, _, q3 := quartiles(base)
	spread := q3 - q1
	pairs, won, lost := len(base), 0, 0
	if len(change) < pairs {
		pairs = len(change)
	}
	for i := 0; i < pairs; i++ {
		switch {
		case wins(base[i], change[i]):
			won++
		case wins(change[i], base[i]):
			lost++
		}
	}
	decisive := func(n int) bool { return pairs >= 10 && 10*n >= 9*pairs }
	if decisive(won) && wins(ma, mb) && math.Abs(mb-ma) > spread {
		return "better"
	}
	if ms.Bound <= 0 {
		if decisive(lost) && wins(mb, ma) && math.Abs(mb-ma) > spread {
			return "worse"
		}
		return "same"
	}
	limit := ma * (1 + ms.Bound)
	if !lower {
		limit = ma * (1 - ms.Bound)
	}
	if wins(mb, limit) {
		return "worse"
	}
	if relSpread(base) > ms.Bound || relSpread(change) > ms.Bound {
		allBetter := true
		for _, x := range change {
			for _, y := range base {
				if !wins(y, x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "same"
}

// relSpread is the interquartile spread as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
