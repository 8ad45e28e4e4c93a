package analysis

import (
	"sort"
	"strings"

	"softsku/internal/analysis/callgraph"
)

// Detflow guards the repo's core reproducibility contract: one seed ⇒
// one byte-identical run (DESIGN.md §8, §14). Ambient state read by a
// sim-facing function, in its own body or three helpers deep in stats,
// ods, or telemetry, is hidden client-side variability of exactly the
// kind that corrupts repeated measurements and, with them, every A/B
// confidence interval built on top (SoftSKU §4). Detflow builds the
// module call graph (static calls, concrete method calls, interface
// dispatch via CHA), takes every function, method and initializer of
// the sim-facing packages as a root, computes reachability from the
// roots to a catalog of nondeterminism sources (wall clock, math/rand,
// ambient env, host shape, escaping map-iteration order, multi-clause
// selects, returned atomic counters, go statements), and reports the
// full offending call path so the finding is actionable at the edge
// that introduced it. The remedies are virtual time (sim.Engine.Now),
// softsku/internal/rng streams, sorted iteration, and core.ParallelFor
// with its index-ordered merge.
//
// Suppression is per call edge: `//lint:ignore detflow <reason>` on
// (or above) a call site removes that edge from the propagation, so
// one reasoned directive at the introducing call accepts every path
// through it; on an intrinsic source (a go statement, a select) it
// accepts that source. A directive whose edge carries no taint is
// reported by the stale-suppression audit like any other dead
// directive.
var Detflow = &Analyzer{
	Name:      "detflow",
	Doc:       "sim-facing functions must not reach nondeterminism sources, directly or through any call path (module-wide call-graph taint)",
	RunModule: runDetflow,
}

// taint is the outcome of the detflow pipeline over one module: the
// call graph, the intrinsic sources a directive accepted, the live
// ones, and the nodes that still reach a source.
type taint struct {
	g        *callgraph.Graph
	pruned   func(*callgraph.Edge) bool // the edge carries a directive
	accepted []callgraph.Source
	live     map[*callgraph.Node][]callgraph.Source
	tainted  map[*callgraph.Node]bool
}

// detflowTaint runs build → prune → propagate. suppressed reports
// whether a //lint:ignore detflow directive governs file:line. Every
// traversal walks nodes and edges in deterministic (sorted-key,
// source) order: the linter is held to the same one-input-one-output
// contract it enforces.
func detflowTaint(mod *Module, suppressed func(file string, line int) bool) *taint {
	pkgs := make([]*callgraph.Package, 0, len(mod.Pkgs))
	for _, p := range mod.Pkgs {
		pkgs = append(pkgs, &callgraph.Package{
			Path: p.Path, Name: p.Name, Files: p.Files, Pkg: p.Pkg, Info: p.Info,
		})
	}
	t := &taint{
		g:      callgraph.Build(mod.Fset, pkgs),
		pruned: func(e *callgraph.Edge) bool { return suppressed(e.Pos.Filename, e.Pos.Line) },
		live:   make(map[*callgraph.Node][]callgraph.Source),
	}
	for _, n := range t.g.SortedNodes() {
		for _, src := range n.Intrinsics {
			if suppressed(src.Pos.Filename, src.Pos.Line) {
				t.accepted = append(t.accepted, src)
				continue
			}
			t.live[n] = append(t.live[n], src)
		}
	}
	t.tainted = propagate(t.g, t.pruned, t.live)
	return t
}

// runDetflow reports every tainted root and credits the directives
// that absorbed taint.
func runDetflow(mp *ModulePass) {
	t := detflowTaint(mp.Mod, mp.SuppressedAt)
	// Intrinsic sources governed by a directive are accepted outright:
	// the directive demonstrably silenced a real source, so it is
	// credited immediately (unlike edges, whose credit waits until the
	// callee side proves tainted).
	for _, src := range t.accepted {
		mp.UseSuppression(src.Pos.Filename, src.Pos.Line)
	}
	// Credit edge suppressions that actually block taint; the rest
	// stay uncredited and fall to the stale audit.
	for _, n := range t.g.SortedNodes() {
		for _, e := range n.Out {
			if t.pruned(e) && t.tainted[e.To] {
				mp.UseSuppression(e.Pos.Filename, e.Pos.Line)
			}
		}
	}

	for _, root := range t.g.SortedNodes() {
		if !isDetflowRoot(root) || !t.tainted[root] {
			continue
		}
		reportPaths(mp, root, t)
	}
}

// isDetflowRoot reports whether n is an entry point of the
// determinism contract: any function, method, or the package
// initializer of a sim-facing package.
func isDetflowRoot(n *callgraph.Node) bool {
	return n.Source == nil && SimFacing(n.PkgName)
}

// propagate computes the tainted node set: reachable-to-source over
// live (unsuppressed) edges, plus nodes carrying live intrinsics,
// plus catalogued source leaves. Fixed-point iteration over sorted
// nodes keeps the result order-independent of map layout.
func propagate(g *callgraph.Graph, suppressedEdge func(*callgraph.Edge) bool, liveIntrinsics map[*callgraph.Node][]callgraph.Source) map[*callgraph.Node]bool {
	tainted := make(map[*callgraph.Node]bool)
	nodes := g.SortedNodes()
	for _, n := range nodes {
		if n.Source != nil || len(liveIntrinsics[n]) > 0 {
			tainted[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if tainted[n] {
				continue
			}
			for _, e := range n.Out {
				if suppressedEdge(e) {
					continue
				}
				if tainted[e.To] {
					tainted[n] = true
					changed = true
					break
				}
			}
		}
	}
	return tainted
}

// pathStep is one hop of a rendered offending path.
type pathStep struct {
	edge *callgraph.Edge
}

// reportPaths emits one diagnostic per distinct terminal source the
// root reaches, each carrying the shortest offending call path
// (BFS over live edges restricted to tainted nodes; ties broken by
// edge order, which follows source order).
func reportPaths(mp *ModulePass, root *callgraph.Node, t *taint) {
	type queued struct {
		node *callgraph.Node
		path []pathStep
	}
	visited := map[*callgraph.Node]bool{root: true}
	queue := []queued{{node: root}}
	type finding struct {
		terminalKey string
		path        []string
		src         callgraph.Source
		steps       []pathStep
	}
	var findings []finding
	seenTerminal := make(map[string]bool)

	record := func(q queued, src callgraph.Source, terminalKey string, terminalLabel string) {
		if seenTerminal[terminalKey] {
			return
		}
		seenTerminal[terminalKey] = true
		labels := []string{root.Label}
		for _, st := range q.path {
			labels = append(labels, st.edge.To.Label)
		}
		if terminalLabel != "" && (len(labels) == 1 || labels[len(labels)-1] != terminalLabel) {
			labels = append(labels, terminalLabel)
		}
		findings = append(findings, finding{terminalKey: terminalKey, path: labels, src: src, steps: q.path})
	}

	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		// Intrinsic sources terminate a path at the node itself.
		for _, src := range t.live[q.node] {
			record(q, src, q.node.Key+"/"+src.Label, src.Label)
		}
		if q.node.Source != nil {
			record(q, *q.node.Source, q.node.Key, "")
			continue
		}
		for _, e := range q.node.Out {
			if t.pruned(e) || visited[e.To] || (!t.tainted[e.To] && e.To.Source == nil) {
				continue
			}
			visited[e.To] = true
			next := make([]pathStep, len(q.path), len(q.path)+1)
			copy(next, q.path)
			queue = append(queue, queued{node: e.To, path: append(next, pathStep{edge: e})})
		}
	}

	sort.Slice(findings, func(i, j int) bool { return findings[i].terminalKey < findings[j].terminalKey })
	for _, f := range findings {
		pos := root.Pos
		if len(f.steps) > 0 {
			pos = f.steps[0].edge.Pos
		} else if f.src.Pos.Filename != "" {
			pos = f.src.Pos
		}
		mp.Reportf(pos, f.path,
			"sim-facing function %s reaches %s (%s): %s — make the path deterministic (virtual time, caller-seeded rng, sorted iteration, core.ParallelFor) or accept the introducing call edge with //lint:ignore detflow <reason>",
			root.Label, f.src.Label, f.src.Detail, strings.Join(f.path, " → "))
	}
}

// DetflowDOT writes the module call graph as DOT with taint and
// suppression annotations — `softskulint -graph`'s debugging view.
// units supply the //lint:ignore directives governing edge pruning.
func DetflowDOT(mod *Module, units []*Unit, w interface{ Write([]byte) (int, error) }) {
	ign := newIgnoreTable()
	for _, u := range units {
		ign.addUnit(u)
	}
	t := detflowTaint(mod, func(file string, line int) bool {
		return ign.covers(Detflow.Name, file, line)
	})
	taintKeys := make(map[string]bool, len(t.tainted))
	for n, tainted := range t.tainted {
		if tainted {
			taintKeys[n.Key] = true
		}
	}
	t.g.DOT(w, taintKeys, t.pruned)
}
