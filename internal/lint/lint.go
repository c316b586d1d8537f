// Package lint implements merlinlint, the project-invariant static-analysis
// suite: a set of named, table-driven rules enforcing contracts that PRs 1–2
// established only in prose — engine calls go through the Ctx entry points,
// every service goroutine is panic-guarded, fault-injection site names match
// the registry, HTTP errors flow through the taxonomy writer, and library
// code in the DP core never panics outside recover-guarded boundaries.
//
// The engine has two layers:
//
//   - File rules are syntactic (go/parser + go/ast): each inspects one
//     parsed file, scoped by the module-relative package the file belongs
//     to. They are the original eight merlinlint rules; goguard, one of
//     them, also has a package half.
//
//   - Package rules are typed and cross-package: LoadModule parses the
//     whole module, type-checks every package with go/types (stdlib source
//     importer — no network-fetched dependencies, hermetic by
//     construction), and builds a conservative static call graph. Package
//     rules see resolved method calls, real types and reachability, which
//     is what lets them check whole-program properties: named goroutine
//     entries guarded through the call graph (goguard's package half),
//     locks released on every path, spans always ended, allocations fenced
//     out of registered DP hot functions, and contexts flowing from
//     handlers instead of being minted mid-request.
//
// Each rule documents its matching heuristic; the
// `//lint:allow <rules> -- <reason>` comment on the offending line or the
// line directly above suppresses a finding where the heuristic is wrong or
// the violation is deliberate and justified. The reason is mandatory: a
// suppression nobody can justify is itself a finding (allow-reason), and
// `merlinlint -allows` lists every suppression with its reason so the
// escape-hatch debt is reviewable in one place.
//
// Rules (see Rules for the authoritative table):
//
//	ctxonly            no blocking non-Ctx engine entry points from serving code
//	faultsite          fault-injection site strings must be registered in
//	                   internal/faultinject (a typo silently disarms chaos tests)
//	errtaxonomy        HTTP errors in internal/service flow through the designated
//	                   writer in http.go, never http.Error / bare 5xx WriteHeader
//	nopanic            no panic() in internal/core and internal/curve library code
//	                   outside recover-guarded functions (assertion files built under
//	                   the merlin_invariants tag are exempt by design)
//	ladderonly         serving code reaches the degradation ladder's lower-rung
//	                   solvers (lttree, vangin) only through internal/degrade
//	journalonly        internal/service does durable file IO only through
//	                   internal/journal
//	tracespan          request timing in internal/service handlers and trace/span
//	                   construction go through the internal/trace helpers
//	goguard            every goroutine in serving code runs under a panic guard:
//	                   a `go func` literal defers a recover/guard helper, a named
//	                   function reaches one through the static call graph
//	lockcheck          every mutex Lock is released on all paths, and no
//	                   lock-containing struct is received or passed by value
//	spanleak           every trace span Start is paired with End on all paths
//	hotpath-alloc      no heap allocations inside the registered DP hot functions
//	ctxflow            no context.Background/TODO minted inside request-scoped
//	                   serving code; contexts flow from the handler
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: a rule violation at a position.
type Diagnostic struct {
	// File is the repo-relative, slash-separated path.
	File string `json:"file"`
	// Package is the module-relative import path of the package the file
	// belongs to ("" for the module root package).
	Package string `json:"package"`
	// Line and Col are 1-based, as printed by the go toolchain.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Rule is the name of the rule that fired.
	Rule string `json:"rule"`
	// Message explains the violation and the sanctioned alternative.
	Message string `json:"message"`
}

// String renders the go-toolchain diagnostic form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Allow is one //lint:allow suppression, as listed by merlinlint -allows.
type Allow struct {
	// File is the repo-relative path; Line the 1-based comment line.
	File string `json:"file"`
	Line int    `json:"line"`
	// Rules are the rule names being suppressed.
	Rules []string `json:"rules"`
	// Reason is the mandatory justification after `--`; empty means the
	// suppression is malformed and is itself reported (allow-reason).
	Reason string `json:"reason"`
}

// File is one parsed source file presented to rules.
type File struct {
	// Path is the repo-relative, slash-separated path rules report at. Tests
	// may set a logical path different from the on-disk fixture location.
	Path string
	// PkgRel is the module-relative package path the file belongs to
	// ("internal/service"; "" for the module root). Rules scope on package
	// identity, not path prefixes: when the file was loaded through
	// LoadModule this is the real package the type checker saw, and for
	// standalone parses (fixtures) it is derived from the logical path.
	PkgRel string
	// Test reports whether this is a _test.go file.
	Test bool
	Fset *token.FileSet
	AST  *ast.File
	// Registry is the fault-site registry shared across files; nil disables
	// the faultsite rule (e.g. when linting a tree with no faultinject
	// package).
	Registry *Registry
	// Pkg is the typed package the file belongs to; nil for standalone
	// parses. Test files belong to a Pkg but carry no type information.
	Pkg *Package

	// Allows are the file's suppression comments, reasoned or not.
	Allows []Allow

	allowed map[int]map[string]bool // line → set of rule names allowed there
}

// Rule is one named project invariant. A rule is file-scoped (Applies +
// Check: syntactic, one file at a time), package-scoped (PackageCheck:
// typed, sees the whole package and, through it, the module call graph), or
// both, as goguard is: its literal check is syntactic and its named-launch
// check needs the call graph.
type Rule struct {
	// Name is the stable identifier used in output and //lint:allow comments.
	Name string
	// Doc is the one-line description shown by merlinlint -rules.
	Doc string
	// Applies reports whether the file-scoped check inspects the given
	// file. Nil for package-scoped rules.
	Applies func(f *File) bool
	// Check returns the rule's findings for one file. Allow-comment
	// suppression is applied by the driver, not by Check.
	Check func(f *File) []Diagnostic
	// PackageCheck returns the rule's findings for one typed package.
	// It is skipped for packages with no type information.
	PackageCheck func(p *Package) []Diagnostic
}

// Rules is the authoritative rule table, in reporting order.
var Rules = []*Rule{
	ctxonlyRule,
	errtaxonomyRule,
	faultsiteRule,
	journalonlyRule,
	ladderonlyRule,
	nopanicRule,
	tracespanRule,
	goguardRule,
	lockcheckRule,
	spanleakRule,
	hotpathAllocRule,
	ctxflowRule,
}

// pkgWithin reports whether the module-relative package path rel is one of
// roots or nested beneath one of them.
func pkgWithin(rel string, roots ...string) bool {
	for _, r := range roots {
		if rel == r || strings.HasPrefix(rel, r+"/") {
			return true
		}
	}
	return false
}

// pos converts a token.Pos into a Diagnostic position at the file's logical
// path.
func (f *File) pos(p token.Pos) (file string, line, col int) {
	position := f.Fset.Position(p)
	return f.Path, position.Line, position.Column
}

// diag builds a Diagnostic for the node position.
func (f *File) diag(p token.Pos, rule, format string, args ...any) Diagnostic {
	file, line, col := f.pos(p)
	return Diagnostic{File: file, Package: f.PkgRel, Line: line, Col: col, Rule: rule, Message: fmt.Sprintf(format, args...)}
}

// allowRuleRE validates one suppressed rule name.
var allowRuleRE = regexp.MustCompile(`^[a-z][a-z-]*$`)

// parseAllow parses one comment's text as a suppression. Only comments that
// begin exactly with the marker count — prose that merely mentions
// lint:allow (docs, rule messages) is not a suppression.
func parseAllow(text string) (rules []string, reason string, ok bool) {
	const marker = "lint:allow"
	var rest string
	switch {
	case strings.HasPrefix(text, "//"+marker):
		rest = strings.TrimPrefix(text, "//"+marker)
	case strings.HasPrefix(text, "/*"+marker):
		rest = strings.TrimSuffix(strings.TrimPrefix(text, "/*"+marker), "*/")
	default:
		return nil, "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", false
	}
	spec, reason, _ := strings.Cut(rest, "--")
	for _, r := range strings.FieldsFunc(spec, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' }) {
		if allowRuleRE.MatchString(r) {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil, "", false
	}
	return rules, strings.TrimSpace(reason), true
}

// buildAllowed indexes //lint:allow comments by line and records them for
// the -allows listing.
func (f *File) buildAllowed() {
	f.allowed = map[int]map[string]bool{}
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			rules, reason, ok := parseAllow(c.Text)
			if !ok {
				continue
			}
			line := f.Fset.Position(c.Pos()).Line
			f.Allows = append(f.Allows, Allow{File: f.Path, Line: line, Rules: rules, Reason: reason})
			set := f.allowed[line]
			if set == nil {
				set = map[string]bool{}
				f.allowed[line] = set
			}
			for _, r := range rules {
				set[r] = true
			}
		}
	}
}

// allowedAt reports whether rule is suppressed at line: an allow comment on
// the same line or on the line directly above.
func (f *File) allowedAt(line int, rule string) bool {
	for _, l := range [2]int{line, line - 1} {
		if set, ok := f.allowed[l]; ok && set[rule] {
			return true
		}
	}
	return false
}

// reasonlessAllows reports every suppression in the file that is missing
// the mandatory `-- reason` suffix, as allow-reason diagnostics.
func (f *File) reasonlessAllows() []Diagnostic {
	var out []Diagnostic
	for _, a := range f.Allows {
		if a.Reason == "" {
			out = append(out, Diagnostic{
				File: f.Path, Package: f.PkgRel, Line: a.Line, Col: 1, Rule: "allow-reason",
				Message: fmt.Sprintf("suppression of %s has no reason: write //lint:allow %s -- <why the invariant bends here>",
					strings.Join(a.Rules, ","), strings.Join(a.Rules, ",")),
			})
		}
	}
	return out
}

// hasBuildTag reports whether the file carries a //go:build constraint
// mentioning the given tag.
func hasBuildTag(f *ast.File, tag string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//go:build") && strings.Contains(c.Text, tag) {
				return true
			}
		}
	}
	return false
}

func isTestFile(path string) bool { return strings.HasSuffix(path, "_test.go") }

// pkgRelOf derives the module-relative package path from a repo-relative
// file path, for files parsed standalone (fixtures).
func pkgRelOf(logical string) string {
	dir := path.Dir(logical)
	if dir == "." {
		return ""
	}
	return dir
}

// ParseFile parses one file into the shape rules consume. logical is the
// repo-relative path used for scoping and reporting; filename is the on-disk
// location (they differ in fixture tests).
func ParseFile(fset *token.FileSet, logical, filename string, src any) (*File, error) {
	af, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	f := &File{Path: logical, PkgRel: pkgRelOf(logical), Test: isTestFile(logical), Fset: fset, AST: af}
	f.buildAllowed()
	return f, nil
}

// Check runs every applicable file-scoped rule over one file — plus the
// allow-reason check — and returns the surviving (non-suppressed) findings.
// Package-scoped rules run through Module.Lint, not here.
func Check(f *File) []Diagnostic {
	out := f.reasonlessAllows()
	for _, r := range Rules {
		if r.Check == nil {
			continue
		}
		if r.Applies != nil && !r.Applies(f) {
			continue
		}
		for _, d := range r.Check(f) {
			if f.allowedAt(d.Line, d.Rule) {
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

// CheckPackage runs every package-scoped rule over one typed package and
// filters findings suppressed by //lint:allow comments. File-scoped rules
// run through Check; Module.Lint combines both.
func CheckPackage(p *Package) []Diagnostic {
	if p.Types == nil {
		return nil
	}
	fileFor := func(path string) *File {
		for _, f := range p.Files {
			if f.Path == path {
				return f
			}
		}
		if p.Mod != nil {
			return p.Mod.fileByPath(path)
		}
		return nil
	}
	var out []Diagnostic
	for _, r := range Rules {
		if r.PackageCheck == nil {
			continue
		}
		for _, d := range r.PackageCheck(p) {
			if f := fileFor(d.File); f != nil && f.allowedAt(d.Line, d.Rule) {
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

// LintRepo lints the module rooted at root: one shared parse and type-check
// (LoadModule), file rules over every file, package rules over every typed
// package, rule execution fanned out per package. Findings come back sorted
// by file, line, column and rule.
func LintRepo(root string) ([]Diagnostic, error) {
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	return m.Lint(), nil
}

// Lint runs the full rule suite over the loaded module, in parallel per
// package.
func (m *Module) Lint() []Diagnostic {
	results := make([][]Diagnostic, len(m.Packages))
	var wg sync.WaitGroup
	for i, p := range m.Packages {
		wg.Add(1)
		go func(i int, p *Package) {
			defer wg.Done()
			var diags []Diagnostic
			for _, f := range p.Files {
				diags = append(diags, Check(f)...)
			}
			diags = append(diags, CheckPackage(p)...)
			results[i] = diags
		}(i, p)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}
