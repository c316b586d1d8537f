package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallGraph is a conservative static call graph over the module's typed
// packages. Nodes are named functions and methods with bodies in the
// module; edges are statically resolvable calls (identifier or selector
// callees the type checker bound to a *types.Func).
//
// "Conservative" here means edges are an under-approximation chosen so the
// rules built on top stay truthful about what they can see:
//
//   - Calls through function values, interface methods without a resolved
//     concrete target, and reflection are not followed — a rule must not
//     claim a guarantee along a path the analysis cannot prove exists.
//   - A function literal contributes to its encloser's node only where it
//     provably runs on the encloser's goroutine: invoked in place or
//     deferred. A literal launched by `go` runs on a new goroutine, and a
//     literal passed as an argument runs wherever the callee decides — in
//     both cases its body is walked (so `go` sites inside it are still
//     found) but its calls are not synchronous edges of the encloser.
//
// Every node also records the facts the concurrency rules consume: whether
// the body opens with a qualifying recover defer (a panic boundary), the
// positions of context.Background/TODO calls on the synchronous path, and
// whether the function is an HTTP handler.
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode
}

// FuncNode is one named function or method of the module.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	File *File
	Pkg  *Package
	// Guarded reports a top-level qualifying recover defer in the body: a
	// deferred literal calling recover(), or a deferred call to a
	// (?i)guard|recover-named helper.
	Guarded bool
	// Calls are the synchronous static callees, deduplicated.
	Calls []*types.Func
	// BgCalls are context.Background()/context.TODO() call positions on
	// the synchronous path of the body.
	BgCalls []token.Pos
	// Handler reports an HTTP handler shape: a handle*/Handle* name or an
	// (http.ResponseWriter, *http.Request) parameter pair.
	Handler bool

	calls map[*types.Func]bool
}

// buildCallGraph constructs the graph over the given typed packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*FuncNode{}}
	for _, p := range pkgs {
		if p.Types == nil {
			continue
		}
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{
					Obj: obj, Decl: fd, File: f, Pkg: p,
					Guarded: hasGuardDefer(fd.Body),
					Handler: isHandlerShape(fd, p.Info),
					calls:   map[*types.Func]bool{},
				}
				g.Nodes[obj] = n
				b := &graphBuilder{info: p.Info, node: n}
				b.walk(fd.Body, true)
			}
		}
	}
	return g
}

// isHandlerShape reports whether the declaration looks like an HTTP
// handler: by name, or by the canonical (http.ResponseWriter,
// *http.Request) parameter signature.
func isHandlerShape(fd *ast.FuncDecl, info *types.Info) bool {
	name := fd.Name.Name
	if len(name) >= 6 && (name[:6] == "handle" || name[:6] == "Handle") {
		return true
	}
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	var hasW, hasR bool
	for i := 0; i < sig.Params().Len(); i++ {
		switch sig.Params().At(i).Type().String() {
		case "net/http.ResponseWriter":
			hasW = true
		case "*net/http.Request":
			hasR = true
		}
	}
	return hasW && hasR
}

// graphBuilder walks one function body collecting the node's facts. The
// sync flag tracks whether the code being walked provably runs on the
// declaring function's goroutine as part of its own call (see CallGraph).
type graphBuilder struct {
	info *types.Info
	node *FuncNode
}

func (b *graphBuilder) walk(n ast.Node, sync bool) {
	if n == nil {
		return
	}
	switch v := n.(type) {
	case *ast.FuncLit:
		// Reached only when the literal is not invoked in place: its
		// execution context is unknown (stored, passed, or `go`-launched).
		b.walk(v.Body, false)
		return
	case *ast.GoStmt:
		// The launched code runs on a new goroutine; its arguments are
		// evaluated on the launching one.
		b.walk(v.Call.Fun, false)
		for _, arg := range v.Call.Args {
			b.walk(arg, true)
		}
		return
	case *ast.DeferStmt:
		// Deferred code runs on this goroutine at function exit.
		b.call(v.Call, sync)
		return
	case *ast.CallExpr:
		b.call(v, sync)
		return
	}
	for _, c := range childNodes(n) {
		b.walk(c, sync)
	}
}

// call handles one call expression: resolve the callee, record edges and
// Background/TODO sightings, and walk operands.
func (b *graphBuilder) call(call *ast.CallExpr, sync bool) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Invoked (or deferred) in place: the body runs here.
		b.walk(lit.Body, sync)
	} else {
		if callee := calleeFunc(b.info, call); callee != nil && sync {
			full := callee.FullName()
			if full == "context.Background" || full == "context.TODO" {
				b.node.BgCalls = append(b.node.BgCalls, call.Pos())
			}
			if !b.node.calls[callee] {
				b.node.calls[callee] = true
				b.node.Calls = append(b.node.Calls, callee)
			}
		}
		b.walk(call.Fun, sync)
	}
	for _, arg := range call.Args {
		b.walk(arg, sync)
	}
}

// calleeFunc resolves a call's static callee to a *types.Func, or nil for
// dynamic calls (function values, unresolved interfaces, conversions,
// builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ReachesGuard reports whether fn — launched on its own goroutine — reaches
// a recover boundary through the synchronous call graph: the function
// itself (or something it transitively calls on that goroutine) defers a
// qualifying recover, or the function's name marks it as a guard helper.
func (g *CallGraph) ReachesGuard(fn *types.Func) bool {
	if guardNameRE.MatchString(fn.Name()) {
		return true
	}
	seen := map[*types.Func]bool{}
	var visit func(f *types.Func) bool
	visit = func(f *types.Func) bool {
		if seen[f] {
			return false
		}
		seen[f] = true
		n, ok := g.Nodes[f]
		if !ok {
			return false // body outside the module: nothing provable
		}
		if n.Guarded {
			return true
		}
		for _, c := range n.Calls {
			if guardNameRE.MatchString(c.Name()) || visit(c) {
				return true
			}
		}
		return false
	}
	return visit(fn)
}

// ReachableFrom returns every function synchronously reachable from the
// given roots (roots included).
func (g *CallGraph) ReachableFrom(roots []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	var visit func(f *types.Func)
	visit = func(f *types.Func) {
		if seen[f] {
			return
		}
		seen[f] = true
		if n, ok := g.Nodes[f]; ok {
			for _, c := range n.Calls {
				visit(c)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}
