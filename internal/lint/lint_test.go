package lint

import (
	"bytes"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fakeRegistry mirrors the real internal/faultinject site set so faultsite
// fixtures stay stable even if the project registry grows.
func fakeRegistry() *Registry {
	reg := &Registry{Consts: map[string]string{}, Values: map[string]bool{}}
	for name, val := range map[string]string{
		"SiteCoreConstruct":  "core.construct",
		"SiteServiceWorker":  "service.worker",
		"SiteServiceHandler": "service.handler",
		"SiteRouterForward":  "router.forward",
		"SiteGossipSend":     "gossip.send",
		"SiteGossipMerge":    "gossip.merge",
		"SiteStoreReplicate": "store.replicate",
		"SiteStorePeerWarm":  "store.peerwarm",
		"SiteLeaseRenew":     "lease.renew",
		"SiteLeaseClaim":     "lease.claim",
		"SiteJobCheckpoint":  "job.checkpoint",
	} {
		reg.Consts[name] = val
		reg.Values[val] = true
	}
	return reg
}

func parseFixture(t *testing.T, logical, disk string, reg *Registry) *File {
	t.Helper()
	fset := token.NewFileSet()
	f, err := ParseFile(fset, logical, disk, nil)
	if err != nil {
		t.Fatalf("parse %s: %v", disk, err)
	}
	f.Registry = reg
	return f
}

var wantRE = regexp.MustCompile(`// want ([\w-]+)`)

// wantMarkers extracts the `// want <rule>` annotations of a fixture:
// line number → expected rule names on that line, in order.
func wantMarkers(t *testing.T, disk string) map[int][]string {
	t.Helper()
	src, err := os.ReadFile(disk)
	if err != nil {
		t.Fatalf("read %s: %v", disk, err)
	}
	want := map[int][]string{}
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
			want[i+1] = append(want[i+1], m[1])
		}
	}
	return want
}

// TestFixtures drives every file-scoped rule (and goguard's syntactic half)
// over its good and bad fixture: the bad file must produce exactly the
// `// want <rule>` markers (same line, same rule, nothing extra), the good
// file must be silent.
func TestFixtures(t *testing.T) {
	cases := []struct {
		rule    string
		logical string // in-scope path the fixture pretends to live at
		reg     *Registry
	}{
		{rule: "ctxonly", logical: "internal/service"},
		{rule: "goguard", logical: "internal/service"},
		{rule: "faultsite", logical: "internal/chaos", reg: fakeRegistry()},
		{rule: "errtaxonomy", logical: "internal/service"},
		{rule: "nopanic", logical: "internal/core"},
		{rule: "ladderonly", logical: "internal/service"},
		{rule: "journalonly", logical: "internal/service"},
		{rule: "tracespan", logical: "internal/service"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			badDisk := filepath.Join("testdata", tc.rule, "bad.go")
			f := parseFixture(t, tc.logical+"/bad.go", badDisk, tc.reg)
			got := map[int][]string{}
			for _, d := range Check(f) {
				if d.File != f.Path {
					t.Errorf("diagnostic reports file %q, want logical path %q", d.File, f.Path)
				}
				if d.Col < 1 {
					t.Errorf("line %d: column %d is not 1-based", d.Line, d.Col)
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

			goodDisk := filepath.Join("testdata", tc.rule, "good.go")
			g := parseFixture(t, tc.logical+"/good.go", goodDisk, tc.reg)
			for _, d := range Check(g) {
				t.Errorf("clean fixture flagged: %s", d)
			}
		})
	}
}

// TestFixtureExactPositions pins one full diagnostic per rule — file, line
// and column — so position reporting cannot silently drift.
func TestFixtureExactPositions(t *testing.T) {
	cases := []struct {
		rule    string
		logical string
		reg     *Registry
		line    int
		col     int
	}{
		// call.Pos() of flows.Run after `res, err := `.
		{rule: "ctxonly", logical: "internal/service", line: 7, col: 14},
		// gs.Pos(): the `go` keyword, one tab in.
		{rule: "goguard", logical: "internal/service", line: 6, col: 2},
		// the string literal argument of faultinject.Fire.
		{rule: "faultsite", logical: "internal/chaos", reg: fakeRegistry(), line: 8, col: 23},
		// call.Pos() of http.Error, one tab in.
		{rule: "errtaxonomy", logical: "internal/service", line: 7, col: 2},
		// the panic call, two tabs in.
		{rule: "nopanic", logical: "internal/core", line: 8, col: 3},
		// call.Pos() of lttree.Solve after `t, err := `.
		{rule: "ladderonly", logical: "internal/service", line: 7, col: 12},
		// call.Pos() of os.OpenFile after `f, err := `.
		{rule: "journalonly", logical: "internal/service", line: 7, col: 12},
		// call.Pos() of time.Now after `start := `.
		{rule: "tracespan", logical: "internal/service", line: 7, col: 11},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			disk := filepath.Join("testdata", tc.rule, "bad.go")
			f := parseFixture(t, tc.logical+"/bad.go", disk, tc.reg)
			diags := Check(f)
			if len(diags) == 0 {
				t.Fatal("no findings")
			}
			first := diags[0]
			want := Diagnostic{File: tc.logical + "/bad.go", Line: tc.line, Col: tc.col, Rule: tc.rule}
			if first.File != want.File || first.Line != want.Line || first.Col != want.Col || first.Rule != want.Rule {
				t.Errorf("first finding at %s:%d:%d (%s), want %s:%d:%d (%s)",
					first.File, first.Line, first.Col, first.Rule,
					want.File, want.Line, want.Col, want.Rule)
			}
		})
	}
}

// TestInvariantFilesExempt: the merlin_invariants assertion layer panics by
// design and must not trip nopanic.
func TestInvariantFilesExempt(t *testing.T) {
	f := parseFixture(t, "internal/core/tagged.go", filepath.Join("testdata", "nopanic", "tagged.go"), nil)
	for _, d := range Check(f) {
		t.Errorf("tagged assertion file flagged: %s", d)
	}
}

// TestRuleScoping: the same source is silent when it lives outside a rule's
// scope (library consumers may use the blocking entry points), and _test.go
// files are exempt from the serving-code rules.
func TestRuleScoping(t *testing.T) {
	for _, logical := range []string{
		"internal/expt/bad.go",         // out of ctxonly scope entirely
		"internal/service/bad_test.go", // tests compare blocking vs Ctx forms
	} {
		f := parseFixture(t, logical, filepath.Join("testdata", "ctxonly", "bad.go"), nil)
		if diags := Check(f); len(diags) != 0 {
			t.Errorf("path %s: got %d findings, want 0 (out of scope)", logical, len(diags))
		}
	}
	// faultsite, by contrast, applies inside _test.go: a typo'd test arm is
	// exactly the bug it exists to catch.
	f := parseFixture(t, "internal/service/chaos_test.go", filepath.Join("testdata", "faultsite", "bad.go"), fakeRegistry())
	if diags := Check(f); len(diags) == 0 {
		t.Error("faultsite silent in a _test.go file; typo'd test arms must be findings")
	}
}

// TestRepoIsClean is the self-hosting gate: merlinlint over the repository it
// ships in must report nothing. A finding here means either new code broke a
// project invariant or a rule regressed into a false positive — both block.
func TestRepoIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	diags, err := LintRepo(root)
	if err != nil {
		t.Fatalf("LintRepo: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestLoadRegistry extracts the real fault-site registry and checks the sites
// the chaos suite depends on are present.
func TestLoadRegistry(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	reg, err := LoadRegistry(filepath.Join(root, "internal", "faultinject"))
	if err != nil {
		t.Fatalf("LoadRegistry: %v", err)
	}
	if reg == nil {
		t.Fatal("nil registry for an existing faultinject package")
	}
	for name, val := range map[string]string{
		"SiteCoreConstruct":  "core.construct",
		"SiteServiceWorker":  "service.worker",
		"SiteServiceHandler": "service.handler",
		"SiteRouterForward":  "router.forward",
		"SiteDegradeLadder":  "degrade.ladder",
		"SiteDegradeTier":    "degrade.tier",
		"SiteJournalAppend":  "journal.append",
		"SiteJournalFsync":   "journal.fsync",
		"SiteJournalReplay":  "journal.replay",
		"SiteStoreRead":      "store.read",
		"SiteLeaseRenew":     "lease.renew",
		"SiteLeaseClaim":     "lease.claim",
		"SiteJobCheckpoint":  "job.checkpoint",
	} {
		if got := reg.Consts[name]; got != val {
			t.Errorf("Consts[%s] = %q, want %q", name, got, val)
		}
		if !reg.Values[val] {
			t.Errorf("Values missing %q", val)
		}
	}
	missing, err := LoadRegistry(filepath.Join(root, "no", "such", "dir"))
	if err != nil || missing != nil {
		t.Errorf("missing dir: got (%v, %v), want (nil, nil)", missing, err)
	}
}

// TestWriteJSONGolden pins the -json output format byte-for-byte.
func TestWriteJSONGolden(t *testing.T) {
	diags := []Diagnostic{
		{File: "internal/service/service.go", Package: "internal/service", Line: 42, Col: 2, Rule: "goguard", Message: "unguarded goroutine"},
		{File: "cmd/merlin/main.go", Package: "cmd/merlin", Line: 130, Col: 14, Rule: "ctxonly", Message: "blocking flow entry point"},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	golden := filepath.Join("testdata", "golden", "diagnostics.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}

	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON(nil): %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings render as %q, want []", got)
	}
}

// TestDiagnosticString pins the human-readable go-toolchain form.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 3, Col: 7, Rule: "nopanic", Message: "boom"}
	if got, want := d.String(), "a/b.go:3:7: nopanic: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
