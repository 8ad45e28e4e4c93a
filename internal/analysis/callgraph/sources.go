package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// SourceKind classifies a nondeterminism source.
type SourceKind string

const (
	// KindWallClock is a machine-clock read (time.Now and friends).
	KindWallClock SourceKind = "wallclock"
	// KindMathRand is any math/rand use: the process-global stream,
	// or a private *rand.Rand outside the internal/rng seed tree.
	KindMathRand SourceKind = "mathrand"
	// KindEnv is ambient process environment (os.Getenv, ...).
	KindEnv SourceKind = "env"
	// KindHostConfig is host-shape introspection (runtime.NumCPU, ...).
	KindHostConfig SourceKind = "hostconfig"
	// KindMapOrder is a map range whose iteration order escapes into
	// an order-sensitive result.
	KindMapOrder SourceKind = "maporder"
	// KindSelectOrder is a select with several ready-eligible comm
	// clauses — the runtime picks uniformly at random.
	KindSelectOrder SourceKind = "selectorder"
	// KindAtomicCounter is a sync/atomic counter value returned to
	// the caller — its value is scheduler-ordered.
	KindAtomicCounter SourceKind = "atomiccounter"
	// KindGoroutine is a go statement: what the goroutine computes
	// lands in an order the scheduler picks.
	KindGoroutine SourceKind = "goroutine"
)

// Source describes one nondeterminism source, either a catalogued
// out-of-module function (Pos zero) or a body intrinsic (Pos set to
// the offending statement).
type Source struct {
	Kind   SourceKind
	Label  string // path element: "time.Now", "map-range@hist.go:218"
	Detail string // one-line human explanation
	Pos    token.Position
}

// wallClockFuncs lists the time-package functions that consult the
// machine clock. Pure types and constructors (time.Duration,
// time.Unix) are deterministic and stay allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Hostname": true, "Getpid": true,
}

var hostConfigFuncs = map[string]bool{
	"NumCPU": true, "GOMAXPROCS": true, "NumGoroutine": true,
}

// classifySource reports whether fn is a catalogued out-of-module
// nondeterminism source.
func classifySource(fn *types.Func) (Source, bool) {
	if fn.Pkg() == nil {
		return Source{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	hasRecv := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "time":
		if !hasRecv && wallClockFuncs[fn.Name()] {
			return Source{Kind: KindWallClock, Label: "time." + fn.Name(),
				Detail: "reads the machine clock"}, true
		}
	case "math/rand", "math/rand/v2":
		// Package-level draws use the process-global stream. The
		// constructors and the *rand.Rand methods use a stream seeded
		// outside the softsku/internal/rng tree (rng.New, rng.Split),
		// the tree that ties every stream to the run's one seed, so
		// they count too.
		label, detail := fn.Name(), "draws from the process-global random stream"
		if hasRecv || strings.HasPrefix(fn.Name(), "New") {
			detail = "uses a math/rand stream outside the run's internal/rng seed tree"
		}
		if hasRecv {
			label = recvName(fn) + "." + label
		}
		return Source{Kind: KindMathRand, Label: fn.Pkg().Path() + "." + label, Detail: detail}, true
	case "os":
		if !hasRecv && envFuncs[fn.Name()] {
			return Source{Kind: KindEnv, Label: "os." + fn.Name(),
				Detail: "consults the ambient process environment"}, true
		}
	case "runtime":
		if !hasRecv && hostConfigFuncs[fn.Name()] {
			return Source{Kind: KindHostConfig, Label: "runtime." + fn.Name(),
				Detail: "depends on host shape, varying machine to machine"}, true
		}
	}
	return Source{}, false
}

// scanIntrinsics finds body-level nondeterminism sources in one
// function body (or initializer expression).
func scanIntrinsics(fset *token.FileSet, info *types.Info, body ast.Node) []Source {
	var out []Source
	sortedVars := sortCallArgs(info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			if src, ok := mapOrderEscape(fset, info, st, sortedVars); ok {
				out = append(out, src)
			}
		case *ast.SelectStmt:
			if src, ok := multiCommSelect(fset, st); ok {
				out = append(out, src)
			}
		case *ast.GoStmt:
			at, pos := atPos(fset, st.Go)
			out = append(out, Source{
				Kind:   KindGoroutine,
				Label:  "go@" + at,
				Detail: "go statement; the scheduler orders the work it spawns",
				Pos:    pos,
			})
		}
		return true
	})
	out = append(out, atomicReturns(fset, info, body)...)
	return out
}

// atPos renders a stable location tag for intrinsic labels.
func atPos(fset *token.FileSet, pos token.Pos) (string, token.Position) {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line), p
}

// mapOrderEscape reports a map range whose iteration order leaks into
// an order-sensitive accumulator: an append (or string +=) to a
// variable declared outside the loop, with no later sort of that
// variable in the same function. The collect-then-sort idiom
// (append keys, sort.Strings(keys)) therefore stays clean, as do
// commutative folds (sums, counts, max) and keyed writes (m2[k] = v).
func mapOrderEscape(fset *token.FileSet, info *types.Info, rs *ast.RangeStmt, sortedVars map[types.Object]bool) (Source, bool) {
	tv, ok := info.Types[rs.X]
	if !ok {
		return Source{}, false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return Source{}, false
	}
	var hit ast.Node
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			obj := assignedObj(info, lhs)
			if obj == nil || sortedVars[obj] || !declaredOutside(obj, rs) {
				continue
			}
			switch {
			case as.Tok == token.ADD_ASSIGN && isStringy(obj):
				hit = as
			case i < len(as.Rhs) && isAppendTo(info, as.Rhs[i], obj):
				hit = as
			case len(as.Rhs) == 1 && isAppendTo(info, as.Rhs[0], obj):
				hit = as
			}
		}
		return hit == nil
	})
	if hit == nil {
		return Source{}, false
	}
	at, pos := atPos(fset, rs.For)
	return Source{
		Kind:   KindMapOrder,
		Label:  "map-range@" + at,
		Detail: "map iteration order escapes into an order-sensitive result (append without a later sort)",
		Pos:    pos,
	}, true
}

// assignedObj resolves the object behind a plain identifier LHS.
func assignedObj(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// declaredOutside reports whether obj was declared before the range
// statement (so writes inside the loop accumulate across iterations).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos()
}

func isStringy(obj types.Object) bool {
	basic, ok := obj.Type().Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isAppendTo reports whether expr is `append(obj, ...)`.
func isAppendTo(info *types.Info, expr ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if bi, ok := info.Uses[id].(*types.Builtin); !ok || bi.Name() != "append" {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[arg] == obj
}

// sortCallArgs collects every object passed to a sort.*/slices.Sort*
// call anywhere in the function — the clearing half of the
// collect-then-sort idiom.
func sortCallArgs(info *types.Info, body ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		if path == "slices" && !strings.HasPrefix(fn.Name(), "Sort") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						out[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// multiCommSelect flags selects with two or more non-default comm
// clauses: when several are ready the runtime chooses uniformly at
// random, so whatever the chosen arm computes is schedule-dependent.
func multiCommSelect(fset *token.FileSet, st *ast.SelectStmt) (Source, bool) {
	comms := 0
	for _, cl := range st.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms < 2 {
		return Source{}, false
	}
	at, pos := atPos(fset, st.Select)
	return Source{
		Kind:   KindSelectOrder,
		Label:  "select@" + at,
		Detail: fmt.Sprintf("select with %d comm clauses; the runtime picks a ready one at random", comms),
		Pos:    pos,
	}, true
}

// atomicReturns flags sync/atomic read-modify-write or load results
// that flow into the function's return value: the number returned
// depends on scheduler interleaving. Pure side-effect uses
// (statement-position Add, CAS loops feeding a metric) stay clean.
func atomicReturns(fset *token.FileSet, info *types.Info, body ast.Node) []Source {
	// Objects assigned from an atomic call result.
	carriers := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if !exprUsesAtomic(info, rhs) {
				continue
			}
			if len(as.Rhs) == 1 {
				for _, lhs := range as.Lhs {
					if obj := assignedObj(info, lhs); obj != nil {
						carriers[obj] = true
					}
				}
			} else if i < len(as.Lhs) {
				if obj := assignedObj(info, as.Lhs[i]); obj != nil {
					carriers[obj] = true
				}
			}
		}
		return true
	})
	var out []Source
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			direct := exprUsesAtomic(info, res)
			viaVar := false
			if !direct {
				ast.Inspect(res, func(rn ast.Node) bool {
					if id, ok := rn.(*ast.Ident); ok && carriers[info.Uses[id]] {
						viaVar = true
					}
					return !viaVar
				})
			}
			if direct || viaVar {
				at, pos := atPos(fset, ret.Return)
				out = append(out, Source{
					Kind:   KindAtomicCounter,
					Label:  "atomic@" + at,
					Detail: "returns a sync/atomic counter value; its magnitude is scheduler-ordered",
					Pos:    pos,
				})
				break
			}
		}
		return true
	})
	return out
}

// exprUsesAtomic reports whether expr contains a call into
// sync/atomic (function or method form).
func exprUsesAtomic(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if fn := calleeOf(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
			found = true
		}
		return !found
	})
	return found
}
