package lint

import (
	"go/ast"
	"regexp"
)

// goguardRule requires every goroutine launched in serving code to run
// under a panic guard: an unguarded goroutine panic kills the whole process
// — no middleware, no worker guard, nothing between the panic and
// os.Exit(2). A `go` statement takes one of two shapes, and the rule has
// one half for each:
//
//   - `go func(){...}()` is checked per file, syntactically (Check): one of
//     the literal's top-level statements must be a `defer` of either a
//     function literal whose body calls recover(), or a named function
//     whose identifier matches (?i)guard|recover (e.g. s.guardPanic,
//     recoverToErr, pool guards).
//   - `go name()` / `go x.m()` with a named function is checked per typed
//     package (PackageCheck): the function must reach a recover boundary
//     through the call graph — it, or something it synchronously
//     (transitively) calls, defers a qualifying recover, or its own name
//     marks it as a guard. A launched function whose body lives outside the
//     module (stdlib, e.g. http.Server.Serve) is out of reach and is not
//     flagged: the rule reports what it can prove unguarded, not what it
//     cannot see.
//
// The named shape is deliberately lenient: reaching a boundary somewhere
// below the entry point does not prove every panic site is covered (a
// deeper callee returning before a later panic leaves the frames above it
// bare). It catches the dominant real bug — a goroutine entry with no
// recover anywhere beneath it — without drowning real code in false
// positives, while literals must guard at their top. _test.go files are
// exempt: the testing package turns a test goroutine panic into a test
// failure, which is the desired behavior there.
var goguardRule = &Rule{
	Name: "goguard",
	Doc:  "goroutines in serving code must be panic-guarded, at the `go func` literal or through the call graph",
	Applies: func(f *File) bool {
		return !f.Test && goguardScope(f.PkgRel)
	},
	Check:        checkGoGuardLiterals,
	PackageCheck: checkGoGuardNamed,
}

var guardNameRE = regexp.MustCompile(`(?i)guard|recover`)

// goguardScope reports whether the module-relative package rel is serving
// code whose goroutines goguard checks.
func goguardScope(rel string) bool {
	return pkgWithin(rel, "internal/service", "internal/flows", "internal/router",
		"internal/qos", "internal/journal", "internal/trace", "internal/degrade",
		"cmd", "pkg/client")
}

func checkGoGuardLiterals(f *File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok && !hasGuardDefer(lit.Body) {
			out = append(out, f.diag(gs.Pos(), "goguard",
				"unguarded goroutine: a panic here kills the process; defer a recover() or a guard helper (e.g. Server.guardPanic) as the literal's first statement"))
		}
		return true
	})
	return out
}

func checkGoGuardNamed(p *Package) []Diagnostic {
	if !goguardScope(p.Rel) {
		return nil
	}
	g := p.Graph()
	var out []Diagnostic
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			// A literal resolves to no callee: it is checkGoGuardLiterals'.
			callee := calleeFunc(p.Info, gs.Call)
			if callee == nil || g.ReachesGuard(callee) {
				return true
			}
			if _, inModule := g.Nodes[callee]; !inModule {
				return true // body outside the module: nothing provable either way
			}
			out = append(out, f.diag(gs.Pos(), "goguard",
				"goroutine entry %s never reaches a recover boundary: a panic anywhere under it kills the process; defer a recover/guard helper in %s or launch it through a guarded wrapper (e.g. Server.goGuard)",
				callee.Name(), callee.Name()))
			return true
		})
	}
	sortDiagnostics(out)
	return out
}

// hasGuardDefer reports whether any top-level statement of body is a
// qualifying guard defer.
func hasGuardDefer(body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		ds, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		switch fn := ds.Call.Fun.(type) {
		case *ast.FuncLit:
			if bodyCallsRecover(fn.Body) {
				return true
			}
		case *ast.Ident:
			if guardNameRE.MatchString(fn.Name) {
				return true
			}
		case *ast.SelectorExpr:
			if guardNameRE.MatchString(fn.Sel.Name) {
				return true
			}
		}
	}
	return false
}

// bodyCallsRecover reports whether the block contains a call to the recover
// builtin anywhere (including nested expressions and statements).
func bodyCallsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
