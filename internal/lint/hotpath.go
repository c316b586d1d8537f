package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath-alloc polices heap allocation inside the registered DP hot
// functions — the per-solution inner loops where an allocation is multiplied
// by O(k·t²·|curve|²) executions and shows up directly in the construction
// benchmarks. Flagged allocation classes:
//
//   - fmt.* calls (format state + boxed operands, never cheap)
//   - slice and map composite literals, and &T{} (escaping pointer)
//   - new(T), make(map...), make(chan...)
//   - interface boxing: a concrete value passed where a parameter is an
//     interface type forces a heap box (small-int caching aside)
//   - append, inside a loop, to a local whose backing was never
//     capacity-hinted (hint = 3-index make or reslice like sols[:0])
//
// Plain struct literals, sized slice makes, closures, and calls are not
// flagged — they are either stack-allocated or the call target's own
// business. A deliberate allocation on a hot path (a placeholder that must
// have distinct identity, a snapshot copy) carries
// //lint:allow hotpath-alloc -- <why>.
//
// The registry is exported so the benchmark suite and tests can consult or
// extend the fence; entries map the type-checker's fully-qualified function
// name to why the function is hot.
var hotpathAllocRule = &Rule{
	Name:         "hotpath-alloc",
	Doc:          "no unannotated heap allocation inside registered DP hot functions",
	PackageCheck: checkHotPathAllocs,
}

// HotPaths registers the DP hot functions, keyed by the fully-qualified name
// go/types reports (types.Func.FullName). The value records why the
// function is allocation-sensitive.
var HotPaths = map[string]string{
	"(*merlin/internal/curve.Curve).Sort":              "frontier sort: runs before every Flow I/II Cap",
	"(*merlin/internal/curve.Curve).dominated":         "Wire's corner-skip dominance scan of the target, once per source",
	"merlin/internal/curve.Corner":                     "optimistic corner of every ptree slot when it is written, and of every core transfer source once per hop",
	"(*merlin/internal/curve.Curve).Insert":            "kernel insert of prebuilt solutions (curve merges)",
	"(*merlin/internal/curve.Curve).InsertRef":         "kernel insert of a prebuilt solution with its handle: every Γ accumulation and LT-Tree level",
	"merlin/internal/curve.moveRef":                    "moves a handle with its solution in every Sort and Cap",
	"(*merlin/internal/curve.Curve).insert":            "kernel insert under every op: newest-first rejection scan, then eviction for admitted solutions",
	"merlin/internal/curve.b2i":                        "branch-free comparison of every dominance test in insert",
	"(*merlin/internal/curve.Curve).Join":              "kernel join, the O(s²) pair merge of every interval split",
	"(*merlin/internal/curve.Curve).Wire":              "kernel wire transfer, O(k·s) per target",
	"(*merlin/internal/curve.Curve).Buffer":            "kernel buffer sweep over every (solution, gate) pair",
	"(merlin/internal/curve.Solution).Dominates":       "three-way dominance predicate, called O(s²)",
	"merlin/internal/curve.better":                     "selector tie-break comparator",
	"(*merlin/internal/core.Engine).starDP":            "*PTREE interval DP, the O(k·t²) core loop",
	"(*merlin/internal/core.Engine).intervalCell":      "one *PTREE interval at every candidate: joins, buffer passes and transfer",
	"(*merlin/internal/core.Engine).gammaCell":         "one Γ sub-problem's accumulation of its *PTREE calls at every candidate",
	"(*merlin/internal/core.Engine).leafCell":          "one INITIALIZATION sub-problem at every candidate",
	"(*merlin/internal/core.Engine).scanCalls":         "inner-group scan of every (L, E, R) sub-problem, warm passes included",
	"(*merlin/internal/core.Engine).intervalIDs":       "memo ids of every interval of every *PTREE call",
	"(*merlin/internal/core.Engine).finalID":           "final memo id of every call of a replayed Γ",
	"(*merlin/internal/core.Engine).buildItems":        "item list of every *PTREE call, in the engine's working lists",
	"(*merlin/internal/core.entry).at":                 "in-place view of a stored list: every join, group item and Γ accumulation reads one",
	"merlin/internal/core.copyCurve":                   "seeds every transfer target's scratch and copies every buffer pass's base",
	"(*merlin/internal/core.Engine).startLeaf":         "seeds the scratch of every leaf pipeline",
	"(*merlin/internal/core.Engine).keepBufferedRoots": "filters every final interval's curves in place under ForceGroupBuffers",
	"(*merlin/internal/core.Engine).bufferScratch":     "caps and seals the scratch curve, then runs the buffer pass at one candidate",
	"(*merlin/internal/core.Engine).intervalMask":      "root window of every interval, written into the engine's one mask",
	"(*merlin/internal/core.Engine).transfer":          "candidate-transfer relaxation, O(k²·s) per hop",
	"(*merlin/internal/core.Engine).startScratch":      "seeds the scratch curve of every cell pipeline and transfer target",
	"(*merlin/internal/core.Engine).storeScratch":      "caps, seals and stores the scratch curve at the end of every pipeline",
	"(*merlin/internal/core.Engine).intern":            "memo key interning, once per interval of every *PTREE call",
	"(*merlin/internal/core.Engine).itemCode":          "item code of every interval's memo key",
	"(*merlin/internal/ptree.Solver).Curves":           "PTREE interval DP of Flows I and II, the O(k·n³) join loop over the flat table",
	"(*merlin/internal/ptree.Solver).transfer":         "PTREE candidate transfer, O(k²·s) per hop, reading and rewriting the live slots",
	"(*merlin/internal/ptree.Solver).store":            "copies every capped ptree list into the table's slabs",
	"(*merlin/internal/curve.Refs[T]).Add":             "provisional record of every surviving kernel insert",
	"(*merlin/internal/curve.Refs[T]).Keep":            "kept record of every Cap survivor and leaf",
	"(*merlin/internal/curve.Refs[T]).At":              "record lookup of every reconstruction step",
	"(*merlin/internal/curve.Refs[T]).Seal":            "moves a curve's surviving records after every Cap",
}

func checkHotPathAllocs(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if _, hot := HotPaths[fn.FullName()]; !hot {
				continue
			}
			hc := &hotChecker{p: p, f: f, hinted: hintedSlices(p, fd.Body)}
			hc.walk(fd.Body, 0)
			out = append(out, hc.out...)
		}
	}
	sortDiagnostics(out)
	return out
}

type hotChecker struct {
	p      *Package
	f      *File
	hinted map[*types.Var]bool
	out    []Diagnostic
}

func (hc *hotChecker) diag(pos ast.Node, format string, args ...any) {
	hc.out = append(hc.out, hc.f.diag(pos.Pos(), "hotpath-alloc", format, args...))
}

// hintedSlices collects local slice variables whose backing array carries a
// capacity hint: a 3-index make or a reslice of an existing backing array
// (the sols[:0] idiom).
func hintedSlices(p *Package, body *ast.BlockStmt) map[*types.Var]bool {
	hinted := map[*types.Var]bool{}
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		hint := false
		switch r := ast.Unparen(rhs).(type) {
		case *ast.SliceExpr:
			hint = true
		case *ast.CallExpr:
			if fun, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && fun.Name == "make" && len(r.Args) == 3 {
				if _, isBuiltin := p.Info.Uses[fun].(*types.Builtin); isBuiltin {
					hint = true
				}
			}
		}
		if !hint {
			return
		}
		if obj, ok := p.Info.Defs[id].(*types.Var); ok {
			hinted[obj] = true
		} else if obj, ok := p.Info.Uses[id].(*types.Var); ok {
			hinted[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				mark(as.Lhs[i], as.Rhs[i])
			}
		}
		return true
	})
	return hinted
}

// walk visits the body tracking lexical loop depth. Function literals are
// walked too: a closure defined in a hot function runs on the hot path.
func (hc *hotChecker) walk(n ast.Node, loopDepth int) {
	switch v := n.(type) {
	case *ast.ForStmt:
		hc.walkChild(v.Init, loopDepth)
		hc.walkChild(v.Cond, loopDepth)
		hc.walkChild(v.Post, loopDepth)
		hc.walk(v.Body, loopDepth+1)
		return
	case *ast.RangeStmt:
		hc.walkChild(v.X, loopDepth)
		hc.walk(v.Body, loopDepth+1)
		return
	case *ast.CallExpr:
		hc.call(v, loopDepth)
	case *ast.CompositeLit:
		hc.compositeLit(v)
	case *ast.UnaryExpr:
		hc.addrOf(v, loopDepth)
	}
	for _, c := range childNodes(n) {
		hc.walk(c, loopDepth)
	}
}

func (hc *hotChecker) walkChild(n ast.Node, loopDepth int) {
	if n != nil {
		hc.walk(n, loopDepth)
	}
}

func (hc *hotChecker) call(call *ast.CallExpr, loopDepth int) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := hc.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			hc.builtin(id.Name, call, loopDepth)
			return
		}
	}
	fn := calleeFunc(hc.p.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		hc.diag(call, "fmt.%s on a hot path: format state and boxed operands allocate per call; build strings outside the loop or use strconv", fn.Name())
		return
	}
	hc.boxedArgs(call)
}

func (hc *hotChecker) builtin(name string, call *ast.CallExpr, loopDepth int) {
	switch name {
	case "new":
		hc.diag(call, "new(...) on a hot path heap-allocates per call; reuse a stack value or hoist the allocation")
	case "make":
		if len(call.Args) == 0 {
			return
		}
		t := hc.p.Info.Types[call.Args[0]].Type
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map:
			hc.diag(call, "make(map) on a hot path allocates buckets per call; hoist and clear, or index into a preallocated structure")
		case *types.Chan:
			hc.diag(call, "make(chan) on a hot path allocates per call; hoist channel creation out of the kernel")
		}
	case "append":
		if loopDepth == 0 || len(call.Args) == 0 {
			return
		}
		id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return // field/expression destinations are the owner's business
		}
		obj, ok := hc.p.Info.Uses[id].(*types.Var)
		if !ok || hc.hinted[obj] {
			return
		}
		hc.diag(call, "append to %s grows an unhinted backing array inside a loop: reslice an existing buffer (%s[:0]) or make it with capacity", id.Name, id.Name)
	}
}

func (hc *hotChecker) compositeLit(lit *ast.CompositeLit) {
	t := hc.p.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		hc.diag(lit, "slice literal on a hot path allocates a backing array per execution; hoist it or splice in place")
	case *types.Map:
		hc.diag(lit, "map literal on a hot path allocates per execution; hoist it")
	}
}

func (hc *hotChecker) addrOf(u *ast.UnaryExpr, loopDepth int) {
	if u.Op != token.AND {
		return
	}
	lit, ok := ast.Unparen(u.X).(*ast.CompositeLit)
	if !ok {
		return
	}
	if t := hc.p.Info.Types[lit].Type; t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			return // the composite-literal check already reports these
		}
	}
	hc.diag(u, "&T{} on a hot path escapes to the heap per execution; reuse an object or restructure to values")
}

// boxedArgs flags concrete values passed where the callee's parameter is an
// interface type — each such argument is boxed on the heap.
func (hc *hotChecker) boxedArgs(call *ast.CallExpr) {
	tv, ok := hc.p.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing here
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := hc.p.Info.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		if bt, ok := at.(*types.Basic); ok && bt.Kind() == types.UntypedNil {
			continue
		}
		hc.diag(arg, "passing %s where the callee takes an interface boxes it on the heap per call; keep the kernel monomorphic",
			types.TypeString(at, types.RelativeTo(hc.p.Types)))
	}
}
