// Package callgraph builds a module-wide static call graph from
// type-checked production packages, using only go/ast and go/types.
// It exists so softskulint's detflow analyzer can prove — not assume —
// that no sim-facing function reaches a nondeterminism source, in its
// own body or through helper packages (DESIGN.md §14).
//
// Resolution strategy, and its honest limits:
//
//   - Static calls and concrete method calls resolve to their
//     *types.Func directly (one edge per call site).
//   - Interface method calls resolve by class-hierarchy analysis
//     (CHA): an edge is added to every concrete method in the module
//     whose type satisfies the interface. CHA is sound but
//     imprecise — it over-approximates (edges to implementations the
//     call can never reach) and never under-approximates within the
//     module's type set.
//   - Calls through function *values* (stored func fields, closures
//     passed around, package-level func variables) produce no edge:
//     the graph cannot see through data flow. This is the documented
//     escape hatch the injected telemetry wall clock rides on — its
//     time.Now lives behind a func variable precisely because it is
//     observability-only by contract.
//   - A function literal's body is attributed to the enclosing
//     declared function: taint inside a closure taints its author.
//     Calls in package-level var initializers are attributed to a
//     synthetic per-package "init" node.
//
// All packages handed to Build must come from one type-check universe
// (the analysis.Loader's shared production import cache); object
// identities are how cross-package callees and interface
// satisfaction are resolved.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one production package in a shared type universe.
type Package struct {
	Path  string // import path
	Name  string // declared package name
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Node is one function, method, or synthetic package-init in the
// graph, or a catalogued nondeterminism source outside the module
// (time.Now, math/rand.Intn, ...).
type Node struct {
	Key     string // stable id: import/path.Recv.Name
	Label   string // display form: pkg.Recv.Name
	PkgPath string
	PkgName string
	// Pos is the declaration site (zero for non-module source leaves).
	Pos token.Position
	// Source is non-nil for catalogued nondeterminism sources outside
	// the module (the node is then a leaf: no out-edges).
	Source *Source
	// Intrinsics are body-derived nondeterminism sources: map ranges
	// whose iteration order escapes, selects with several comm
	// clauses, atomic counter values returned to the caller, go
	// statements.
	Intrinsics []Source
	// Out holds the node's call edges in source order.
	Out []*Edge
}

// Edge is one call site: From's body calls To at Pos. Dynamic edges
// come from CHA interface dispatch (one per satisfying type).
type Edge struct {
	From, To *Node
	Pos      token.Position
	Dynamic  bool
}

// Graph is the module call graph.
type Graph struct {
	Nodes map[string]*Node
	keys  []string // sorted node keys, fixed at Build time
}

// SortedNodes returns the nodes in deterministic key order.
func (g *Graph) SortedNodes() []*Node {
	out := make([]*Node, len(g.keys))
	for i, k := range g.keys {
		out[i] = g.Nodes[k]
	}
	return out
}

// builder carries the in-progress graph.
type builder struct {
	fset    *token.FileSet
	pkgs    []*Package
	modPkgs map[*types.Package]*Package // module membership by object identity
	byFn    map[*types.Func]*Node
	graph   *Graph
	// concrete is the CHA universe: every named non-interface,
	// non-generic type declared in the module.
	concrete []concreteType
	// implCache memoizes CHA resolution per (interface, method name).
	implCache map[implKey][]*types.Func
}

type concreteType struct {
	name *types.TypeName
	typ  types.Type // the named type T; method sets taken over *T
}

type implKey struct {
	iface  *types.Interface
	method string
}

// Build constructs the call graph over pkgs. fset must be the file
// set the packages were parsed with.
func Build(fset *token.FileSet, pkgs []*Package) *Graph {
	b := &builder{
		fset:      fset,
		pkgs:      pkgs,
		modPkgs:   make(map[*types.Package]*Package),
		byFn:      make(map[*types.Func]*Node),
		graph:     &Graph{Nodes: make(map[string]*Node)},
		implCache: make(map[implKey][]*types.Func),
	}
	for _, p := range pkgs {
		b.modPkgs[p.Pkg] = p
	}
	b.collectConcreteTypes()
	// Pass 1: a node per declared function/method so cross-package
	// edges in pass 2 always find their target.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						b.nodeForFunc(fn)
					}
				}
			}
		}
	}
	// Pass 2: edges and intrinsic sources.
	for _, p := range pkgs {
		for _, f := range p.Files {
			b.addFile(p, f)
		}
	}
	b.graph.keys = make([]string, 0, len(b.graph.Nodes))
	for k := range b.graph.Nodes {
		b.graph.keys = append(b.graph.keys, k)
	}
	sort.Strings(b.graph.keys)
	return b.graph
}

// collectConcreteTypes gathers the CHA universe in deterministic
// package/name order.
func (b *builder) collectConcreteTypes() {
	for _, p := range b.pkgs {
		scope := p.Pkg.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			b.concrete = append(b.concrete, concreteType{name: tn, typ: named})
		}
	}
}

// funcKey builds the stable node id for fn.
func funcKey(fn *types.Func) string {
	pkg := "builtin"
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if recv := recvName(fn); recv != "" {
		return pkg + "." + recv + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// funcLabel builds the display form (short package name).
func funcLabel(fn *types.Func) string {
	pkg := "builtin"
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name()
		// Stdlib paths read better fully qualified: time.Now not t.Now.
		if p := fn.Pkg().Path(); !strings.Contains(p, "/") {
			pkg = p
		}
	}
	if recv := recvName(fn); recv != "" {
		return pkg + "." + recv + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// recvName returns the bare receiver type name of a method, "" for
// plain functions and interface methods' abstract receivers keep
// their interface name.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "interface"
	}
	return ""
}

// nodeForFunc returns (creating if needed) the node for a declared
// module function.
func (b *builder) nodeForFunc(fn *types.Func) *Node {
	if n, ok := b.byFn[fn]; ok {
		return n
	}
	key := funcKey(fn)
	if n, ok := b.graph.Nodes[key]; ok {
		b.byFn[fn] = n
		return n
	}
	n := &Node{
		Key:   key,
		Label: funcLabel(fn),
		Pos:   b.fset.Position(fn.Pos()),
	}
	if fn.Pkg() != nil {
		n.PkgPath = fn.Pkg().Path()
		n.PkgName = fn.Pkg().Name()
	}
	b.byFn[fn] = n
	b.graph.Nodes[key] = n
	return n
}

// initNode returns the synthetic per-package init node.
func (b *builder) initNode(p *Package) *Node {
	key := p.Path + ".init"
	if n, ok := b.graph.Nodes[key]; ok {
		return n
	}
	n := &Node{
		Key: key, Label: p.Name + ".init",
		PkgPath: p.Path, PkgName: p.Name,
	}
	b.graph.Nodes[key] = n
	return n
}

// sourceNode returns (creating if needed) the leaf node for a
// catalogued out-of-module source.
func (b *builder) sourceNode(fn *types.Func, src Source) *Node {
	key := funcKey(fn)
	if n, ok := b.graph.Nodes[key]; ok {
		return n
	}
	s := src
	n := &Node{
		Key: key, Label: funcLabel(fn), Source: &s,
	}
	if fn.Pkg() != nil {
		n.PkgPath = fn.Pkg().Path()
		n.PkgName = fn.Pkg().Name()
	}
	b.graph.Nodes[key] = n
	return n
}

// addFile walks one file, attributing calls and intrinsics to the
// enclosing declared function (or the package init node).
func (b *builder) addFile(p *Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			node := b.nodeForFunc(fn)
			b.addCalls(p, node, d.Body)
			node.Intrinsics = append(node.Intrinsics, scanIntrinsics(b.fset, p.Info, d.Body)...)
		case *ast.GenDecl:
			// Package-level initializers can call into the module
			// (e.g. building default tables); attribute them to init.
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				for _, v := range vs.Values {
					if containsCall(v) {
						node := b.initNode(p)
						b.addCalls(p, node, v)
						node.Intrinsics = append(node.Intrinsics, scanIntrinsics(b.fset, p.Info, v)...)
					}
				}
			}
		}
	}
}

func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// addCalls records an edge for every resolvable call in body.
func (b *builder) addCalls(p *Package, from *Node, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(p.Info, call)
		if fn == nil {
			return true // indirect call, conversion, or builtin
		}
		pos := b.fset.Position(call.Lparen)
		if iface := interfaceRecv(fn); iface != nil {
			// CHA: fan the abstract call out to every concrete
			// module method satisfying the interface.
			for _, impl := range b.implementations(iface, fn.Name()) {
				b.edgeTo(from, impl, pos, true)
			}
			return true
		}
		b.edgeTo(from, fn, pos, false)
		return true
	})
}

// edgeTo links from → fn if fn is a module function or a catalogued
// source; other out-of-module callees are irrelevant to taint and
// dropped.
func (b *builder) edgeTo(from *Node, fn *types.Func, pos token.Position, dynamic bool) {
	var to *Node
	if b.isModuleFunc(fn) {
		to = b.nodeForFunc(fn)
	} else if src, ok := classifySource(fn); ok {
		to = b.sourceNode(fn, src)
	} else {
		return
	}
	if to == from {
		return // self-recursion adds nothing to reachability
	}
	from.Out = append(from.Out, &Edge{From: from, To: to, Pos: pos, Dynamic: dynamic})
}

// isModuleFunc reports whether fn was declared in one of the loaded
// packages (object-identity check against the shared universe).
func (b *builder) isModuleFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && b.modPkgs[fn.Pkg()] != nil
}

// calleeOf resolves the called function or method, nil for indirect
// calls, conversions and builtins. Mirrors analysis.(*Pass).Callee.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// interfaceRecv returns the receiver interface of an abstract method,
// nil for plain functions and concrete methods.
func interfaceRecv(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// implementations resolves an interface method to the concrete module
// methods that can answer it (CHA), memoized per (iface, name).
func (b *builder) implementations(iface *types.Interface, name string) []*types.Func {
	key := implKey{iface, name}
	if impls, ok := b.implCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, ct := range b.concrete {
		if !types.Implements(ct.typ, iface) && !types.Implements(types.NewPointer(ct.typ), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(ct.typ), true, ct.name.Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			impls = append(impls, m)
		}
	}
	b.implCache[key] = impls
	return impls
}

// DOT renders the graph for debugging (`softskulint -graph`). Nodes
// the caller marked tainted are filled; catalogued sources are red
// boxes; suppressed edges (pruned by //lint:ignore detflow) come in
// dashed. Both maps may be nil.
func (g *Graph) DOT(w interface{ Write([]byte) (int, error) }, tainted map[string]bool, suppressedEdge func(*Edge) bool) {
	fmt.Fprintln(w, "digraph detflow {")
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [fontname=\"monospace\", fontsize=10];")
	for _, n := range g.SortedNodes() {
		attrs := fmt.Sprintf("label=%q", n.Label)
		switch {
		case n.Source != nil:
			attrs += ", shape=box, color=red"
		case len(n.Intrinsics) > 0:
			attrs += ", shape=box, color=orange"
		default:
			attrs += ", shape=ellipse"
		}
		if tainted != nil && tainted[n.Key] {
			attrs += ", style=filled, fillcolor=mistyrose"
		}
		fmt.Fprintf(w, "  %q [%s];\n", n.Key, attrs)
	}
	for _, n := range g.SortedNodes() {
		for _, e := range n.Out {
			var opts []string
			if e.Dynamic {
				opts = append(opts, "arrowhead=empty")
			}
			if suppressedEdge != nil && suppressedEdge(e) {
				opts = append(opts, "style=dashed", "color=gray")
			}
			attr := ""
			if len(opts) > 0 {
				attr = " [" + strings.Join(opts, ", ") + "]"
			}
			fmt.Fprintf(w, "  %q -> %q%s;\n", e.From.Key, e.To.Key, attr)
		}
	}
	fmt.Fprintln(w, "}")
}
