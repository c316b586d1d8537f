package lint

import (
	"cmp"
	"fmt"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The typed-rule tests share one loaded module: the type-check of the whole
// repository is the expensive part, and CheckVirtual fixtures reuse its
// importer, file set and package set.
var (
	testModOnce sync.Once
	testMod     *Module
	testModErr  error
)

func loadTestModule(t *testing.T) *Module {
	t.Helper()
	testModOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			testModErr = err
			return
		}
		testMod, testModErr = LoadModule(root)
	})
	if testModErr != nil {
		t.Fatalf("load module: %v", testModErr)
	}
	return testMod
}

// typedFixture parses one fixture file and type-checks it as a virtual
// package at rel inside the real module.
func typedFixture(t *testing.T, rel, disk string) *Package {
	t.Helper()
	m := loadTestModule(t)
	f, err := ParseFile(m.Fset, path.Join(rel, filepath.Base(disk)), disk, nil)
	if err != nil {
		t.Fatalf("parse %s: %v", disk, err)
	}
	p, err := m.CheckVirtual(rel, []*File{f})
	if err != nil {
		t.Fatalf("type-check %s: %v", disk, err)
	}
	return p
}

// registerFixtureHotPaths adds the hotpath-alloc fixture functions to the
// hot-path registry for the duration of one subtest; the fixture package is
// virtual, so the names never collide with real code.
func registerFixtureHotPaths() func() {
	names := []string{
		"merlin/internal/curve.hotKernel",
		"merlin/internal/curve.hotClean",
	}
	for _, n := range names {
		HotPaths[n] = "fixture registration for the hotpath-alloc tests"
	}
	return func() {
		for _, n := range names {
			delete(HotPaths, n)
		}
	}
}

// TestTypedFixtures drives the package-scoped (typed) rules over their
// good/bad fixture pairs: the bad file must produce exactly the
// `// want <rule>` markers, the good file must be silent under the whole
// package-rule suite.
func TestTypedFixtures(t *testing.T) {
	cases := []struct {
		rule    string
		fixture string // testdata directory and subtest name; the rule's name when empty
		rel     string
		setup   func() func()
	}{
		// goguard's call-graph half; its literal half is a file-rule fixture.
		{rule: "goguard", fixture: "goguard-transitive", rel: "internal/service"},
		{rule: "lockcheck", rel: "internal/service"},
		{rule: "spanleak", rel: "internal/service"},
		{rule: "hotpath-alloc", rel: "internal/curve", setup: registerFixtureHotPaths},
		{rule: "ctxflow", rel: "internal/service"},
	}
	for _, tc := range cases {
		fixture := cmp.Or(tc.fixture, tc.rule)
		t.Run(fixture, func(t *testing.T) {
			if tc.setup != nil {
				defer tc.setup()()
			}
			badDisk := filepath.Join("testdata", fixture, "bad.go")
			p := typedFixture(t, tc.rel, badDisk)
			logical := path.Join(tc.rel, "bad.go")
			got := map[int][]string{}
			for _, d := range CheckPackage(p) {
				if d.File != logical {
					t.Errorf("diagnostic reports file %q, want logical path %q", d.File, logical)
				}
				if d.Package != tc.rel {
					t.Errorf("diagnostic reports package %q, want %q", d.Package, tc.rel)
				}
				got[d.Line] = append(got[d.Line], d.Rule)
			}
			want := wantMarkers(t, badDisk)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want markers", badDisk)
			}
			for line, rules := range want {
				if fmt.Sprint(got[line]) != fmt.Sprint(rules) {
					t.Errorf("%s:%d: got rules %v, want %v", badDisk, line, got[line], rules)
				}
			}
			for line, rules := range got {
				if _, ok := want[line]; !ok {
					t.Errorf("%s:%d: unexpected findings %v", badDisk, line, rules)
				}
			}

			goodDisk := filepath.Join("testdata", fixture, "good.go")
			g := typedFixture(t, tc.rel, goodDisk)
			for _, d := range CheckPackage(g) {
				t.Errorf("clean fixture flagged: %s", d)
			}
		})
	}
}

// TestTypedFixtureExactPositions pins one full diagnostic per typed rule —
// file, line and column — so position reporting cannot silently drift.
func TestTypedFixtureExactPositions(t *testing.T) {
	cases := []struct {
		rule    string
		fixture string // testdata directory and subtest name; the rule's name when empty
		rel     string
		setup   func() func()
		line    int
		col     int
	}{
		// the `go` keyword of `go s.process()`, one tab in.
		{rule: "goguard", fixture: "goguard-transitive", rel: "internal/service", line: 26, col: 2},
		// c.mu.Lock() in incrEarlyReturn, one tab in.
		{rule: "lockcheck", rel: "internal/service", line: 14, col: 2},
		// call.Pos() of trace.StartSpan after `ctx, sp := `.
		{rule: "spanleak", rel: "internal/service", line: 14, col: 13},
		// the []int{i} literal after `s := `, two tabs in.
		{rule: "hotpath-alloc", rel: "internal/curve", setup: registerFixtureHotPaths, line: 14, col: 8},
		// call.Pos() of context.Background after `ctx := `.
		{rule: "ctxflow", rel: "internal/service", line: 18, col: 9},
	}
	for _, tc := range cases {
		fixture := cmp.Or(tc.fixture, tc.rule)
		t.Run(fixture, func(t *testing.T) {
			if tc.setup != nil {
				defer tc.setup()()
			}
			disk := filepath.Join("testdata", fixture, "bad.go")
			p := typedFixture(t, tc.rel, disk)
			var diags []Diagnostic
			for _, d := range CheckPackage(p) {
				if d.Rule == tc.rule {
					diags = append(diags, d)
				}
			}
			if len(diags) == 0 {
				t.Fatal("no findings")
			}
			first := diags[0]
			wantFile := path.Join(tc.rel, "bad.go")
			if first.File != wantFile || first.Line != tc.line || first.Col != tc.col {
				t.Errorf("first %s finding at %s:%d:%d, want %s:%d:%d",
					tc.rule, first.File, first.Line, first.Col, wantFile, tc.line, tc.col)
			}
		})
	}
}

// TestGoGuardTransitiveRegression pins the scenario a literal-only goguard
// check is blind to: a panic inside a *named* method launched with a bare
// `go`, with no guarded wrapper anywhere on the path. goguard must catch it
// through the call graph and say which entry is unguarded.
func TestGoGuardTransitiveRegression(t *testing.T) {
	p := typedFixture(t, "internal/service", filepath.Join("testdata", "goguard-transitive", "bad.go"))
	var hits []Diagnostic
	for _, d := range CheckPackage(p) {
		if d.Rule == "goguard" && strings.Contains(d.Message, "goroutine entry process") {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("got %d findings naming process, want exactly 1", len(hits))
	}
	if !strings.Contains(hits[0].Message, "recover boundary") {
		t.Errorf("message %q does not explain the missing recover boundary", hits[0].Message)
	}
}

// TestAllowsListing: the module-wide suppression inventory is sorted, every
// entry names at least one rule, and — the repository gate — every entry
// carries a reason.
func TestAllowsListing(t *testing.T) {
	m := loadTestModule(t)
	allows := m.Allows()
	if len(allows) == 0 {
		t.Fatal("no suppressions found; the repo is known to carry some")
	}
	for i, a := range allows {
		if len(a.Rules) == 0 {
			t.Errorf("%s:%d: allow with no rules", a.File, a.Line)
		}
		if a.Reason == "" {
			t.Errorf("%s:%d: allow without a reason", a.File, a.Line)
		}
		if i > 0 {
			prev := allows[i-1]
			if prev.File > a.File || (prev.File == a.File && prev.Line > a.Line) {
				t.Errorf("allows not sorted: %s:%d after %s:%d", a.File, a.Line, prev.File, prev.Line)
			}
		}
	}
}

// TestAllowReasonRequired: a suppression without `-- reason` surfaces as an
// allow-reason finding; with a reason it both suppresses and stays silent.
func TestAllowReasonRequired(t *testing.T) {
	m := loadTestModule(t)
	src := `package service

import "sync"

type box struct {
	mu sync.Mutex
}

func lockForever(b *box) {
	b.mu.Lock() //lint:allow lockcheck
}
`
	f, err := ParseFile(m.Fset, "internal/service/allowfixture.go", "allowfixture.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := m.CheckVirtual("internal/service", []*File{f})
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	if diags := CheckPackage(p); len(diags) != 0 {
		t.Errorf("reason-less allow still suppresses the package rule: %v", diags)
	}
	var reasonless []Diagnostic
	for _, d := range Check(f) {
		if d.Rule == "allow-reason" {
			reasonless = append(reasonless, d)
		}
	}
	if len(reasonless) != 1 {
		t.Fatalf("got %d allow-reason findings, want 1", len(reasonless))
	}
	if reasonless[0].Line != 10 {
		t.Errorf("allow-reason at line %d, want 10", reasonless[0].Line)
	}

	src = strings.Replace(src, "//lint:allow lockcheck", "//lint:allow lockcheck -- demo: held until process exit", 1)
	f2, err := ParseFile(m.Fset, "internal/service/allowfixture2.go", "allowfixture2.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p2, err := m.CheckVirtual("internal/service", []*File{f2})
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	if diags := CheckPackage(p2); len(diags) != 0 {
		t.Errorf("reasoned allow does not suppress: %v", diags)
	}
	for _, d := range Check(f2) {
		if d.Rule == "allow-reason" {
			t.Errorf("reasoned allow flagged as reason-less: %s", d)
		}
	}
}
