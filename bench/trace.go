package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"softsku/internal/telemetry"
)

// selfRow is one span name's share of the traced wall time.
type selfRow struct {
	name  string
	count int
	selfS float64
}

// selfTimes attributes traced time to span names: a span's self time
// is its duration minus the part of it that its children cover. The
// tuning tool opens its own root span (musku.run); each such root is
// adopted by the bench.rep span that encloses it.
func selfTimes(roots []*telemetry.JSONSpan) []selfRow {
	var reps, top []*telemetry.JSONSpan
	var walk func(*telemetry.JSONSpan)
	walk = func(s *telemetry.JSONSpan) {
		if s.Name == "bench.rep" {
			reps = append(reps, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		if r.Name == "bench.workload" {
			walk(r)
		}
	}
	for _, r := range roots {
		adopted := false
		for _, rep := range reps {
			if r != rep && r.Name != "bench.workload" && r.StartUSec >= rep.StartUSec && r.StartUSec < rep.StartUSec+rep.DurUSec {
				rep.Children = append(rep.Children, r)
				adopted = true
				break
			}
		}
		if !adopted {
			top = append(top, r)
		}
	}
	rows := map[string]*selfRow{}
	var visit func(*telemetry.JSONSpan)
	visit = func(s *telemetry.JSONSpan) {
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{name: s.Name}
			rows[s.Name] = row
		}
		row.count++
		row.selfS += (s.DurUSec - covered(s)) / 1e6
		for _, c := range s.Children {
			visit(c)
		}
	}
	for _, r := range top {
		visit(r)
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfS > out[j].selfS })
	return out
}

// covered returns how many microseconds of s the union of its
// children's intervals spans. Children overlap when trials run on
// several workers.
func covered(s *telemetry.JSONSpan) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(s.Children))
	end := s.StartUSec + s.DurUSec
	for _, c := range s.Children {
		a, b := c.StartUSec, c.StartUSec+c.DurUSec
		if a < s.StartUSec {
			a = s.StartUSec
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	total := 0.0
	for _, r := range rows {
		total += r.selfS
	}
	fmt.Fprintf(w, "  self time by span (traced reps and probes, %.2f s):\n", total)
	for _, r := range rows {
		fmt.Fprintf(w, "    %-34s %6d spans %10.3f s %6.1f%%\n", r.name, r.count, r.selfS, 100*r.selfS/total)
	}
}

// mergeTraces writes one Chrome trace holding each workload's trace as
// its own process track.
func mergeTraces(path string, names, parts []string) error {
	var events []map[string]interface{}
	for i, p := range parts {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var t struct {
			TraceEvents []map[string]interface{} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("reading %s: %w", p, err)
		}
		events = append(events, map[string]interface{}{
			"name": "process_name", "ph": "M", "pid": i + 1, "tid": 1,
			"args": map[string]string{"name": names[i]},
		})
		for _, e := range t.TraceEvents {
			e["pid"] = i + 1
			events = append(events, e)
		}
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
