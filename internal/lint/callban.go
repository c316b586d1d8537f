package lint

import (
	"go/ast"
)

// callBan is one row of a call-ban rule. Heuristic (syntactic, no type
// info): a call whose callee is a selector naming a banned function on a
// receiver identifier named recv — a package name, by convention.
type callBan struct {
	recv string            // "" matches any receiver expression
	alts map[string]string // banned name → sanctioned alternative; nil bans every name
	msg  string            // format over receiver %[1]s, name %[2]s, alternative %[3]s
}

// callBanRule builds a file rule that reports every call matching one of
// bans — the first row that matches — in the packages under scope. _test.go
// files are exempt: tests legitimately call what serving code must not.
func callBanRule(name, doc string, scope []string, bans ...callBan) *Rule {
	return &Rule{
		Name: name,
		Doc:  doc,
		Applies: func(f *File) bool {
			return !f.Test && pkgWithin(f.PkgRel, scope...)
		},
		Check: func(f *File) []Diagnostic {
			var out []Diagnostic
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, _ := sel.X.(*ast.Ident)
				for _, b := range bans {
					if b.recv != "" && (recv == nil || recv.Name != b.recv) {
						continue
					}
					alt, banned := b.alts[sel.Sel.Name]
					if b.alts != nil && !banned {
						continue
					}
					out = append(out, f.diag(call.Pos(), name, b.msg, b.recv, sel.Sel.Name, alt))
					break
				}
				return true
			})
			return out
		},
	}
}

// servingCode is the scope of the rules that fence serving code.
var servingCode = []string{"internal/service", "pkg/client", "cmd"}

// ctxonlyRule forbids the blocking non-Ctx engine entry points in serving
// code. internal/service, pkg/client and cmd/ must call ConstructCtx /
// MerlinCtx / flows.RunCtx so per-request deadlines, cancellation and the
// engine's panic boundary apply; the context-free forms exist for library
// consumers and experiments only. Construct and Merlin are banned on any
// receiver (package core or an engine value); Run / RunAll / RunFlowI /
// RunFlowII / RunFlowIII only on the flows package identifier.
var ctxonlyRule = callBanRule("ctxonly",
	"serving code must use the Ctx engine entry points (ConstructCtx, MerlinCtx, flows.RunCtx)",
	servingCode,
	callBan{
		alts: map[string]string{
			"Construct": "ConstructCtx",
			"Merlin":    "MerlinCtx",
		},
		msg: "blocking engine entry point %[2]s: call %[3]s so deadlines, cancellation and the panic boundary apply",
	},
	callBan{
		recv: "flows",
		alts: map[string]string{
			"Run":        "flows.RunCtx",
			"RunAll":     "flows.RunCtx per flow",
			"RunFlowI":   "flows.RunCtx(ctx, flows.FlowI, ...)",
			"RunFlowII":  "flows.RunCtx(ctx, flows.FlowII, ...)",
			"RunFlowIII": "flows.RunFlowIIIOn",
		},
		msg: "blocking flow entry point flows.%[2]s: call %[3]s so deadlines, cancellation and the panic boundary apply",
	},
)

// ladderonlyRule forbids serving code from calling the degradation ladder's
// lower-rung solvers directly. internal/service, pkg/client and cmd/ reach
// lttree.Solve / vangin.Insert only through internal/degrade's Ladder: the
// ladder is where tier accounting, per-rung wall-time slicing and per-tier
// panic containment live, and a direct call silently produces an answer
// with no tier annotation and no budget discipline. internal/flows and
// internal/degrade are out of scope — they are the rungs' sanctioned call
// sites.
var ladderonlyRule = callBanRule("ladderonly",
	"serving code must reach lttree/vangin only through internal/degrade's ladder",
	servingCode,
	callBan{recv: "lttree", msg: ladderonlyMsg},
	callBan{recv: "vangin", msg: ladderonlyMsg},
)

const ladderonlyMsg = "direct %[1]s.%[2]s call from serving code: route it through internal/degrade's Ladder so tier accounting, budget slicing and per-tier panic containment apply"

// journalonlyRule forbids raw durable-file IO in internal/service. Every
// byte the service persists — WAL records, snapshots, stored results — goes
// through internal/journal, which owns the CRC32C framing, the fsync policy,
// atomic temp+rename writes, and the corruption-quarantine path. A raw
// os.OpenFile / os.Create / os.WriteFile in serving code writes bytes a
// crash can tear and a replay cannot verify, and a raw os.ReadFile serves
// bytes no checksum ever vouched for.
var journalonlyRule = callBanRule("journalonly",
	"internal/service must do durable file IO only through internal/journal",
	[]string{"internal/service"},
	callBan{
		recv: "os",
		alts: map[string]string{"OpenFile": "", "Create": "", "WriteFile": "", "ReadFile": ""},
		msg:  "raw os.%[2]s in serving code: durable bytes go through internal/journal, which owns checksumming, fsync policy and crash-safe replay",
	},
)
