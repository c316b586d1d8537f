package lint

import (
	"go/ast"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestHotPathsCatchInjectedAllocs proves the fence covers every registered
// hot function, not just the fixtures: it injects a heap allocation at the
// top of each one's body in its real source, type-checks the edited
// package, and demands a hotpath-alloc finding on every injected line. A
// registry key that names no function (renamed, or a generic receiver
// spelled differently from go/types) fails here instead of silently
// fencing nothing.
func TestHotPathsCatchInjectedAllocs(t *testing.T) {
	m := loadTestModule(t)
	const inject = " _ = new(int);"
	found := map[string]bool{}
	for _, p := range m.Packages {
		var files []*File
		want := map[string]map[int]string{} // logical path → line → function
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			var offsets []int
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
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
				found[fn.FullName()] = true
				lb := m.Fset.Position(fd.Body.Lbrace)
				offsets = append(offsets, lb.Offset+1)
				if want[f.Path] == nil {
					want[f.Path] = map[int]string{}
				}
				want[f.Path][lb.Line] = fn.FullName()
			}
			filename := m.Fset.Position(f.AST.Pos()).Filename
			src, err := os.ReadFile(filename)
			if err != nil {
				t.Fatal(err)
			}
			// Inject right after each body's opening brace, last first so
			// earlier offsets stay valid; the brace's line number is kept.
			sort.Sort(sort.Reverse(sort.IntSlice(offsets)))
			text := string(src)
			for _, off := range offsets {
				text = text[:off] + inject + text[off:]
			}
			vf, err := ParseFile(m.Fset, f.Path, filename, text)
			if err != nil {
				t.Fatalf("parse injected %s: %v", f.Path, err)
			}
			files = append(files, vf)
		}
		if len(want) == 0 {
			continue
		}
		vp, err := m.CheckVirtual(p.Rel, files)
		if err != nil {
			t.Fatalf("type-check injected %s: %v", p.Rel, err)
		}
		for _, d := range CheckPackage(vp) {
			if d.Rule == "hotpath-alloc" && strings.HasPrefix(d.Message, "new(") {
				delete(want[d.File], d.Line)
			}
		}
		for file, lines := range want {
			for line, fn := range lines {
				t.Errorf("%s:%d: allocation injected into %s was not reported", file, line, fn)
			}
		}
	}
	for name := range HotPaths {
		if !found[name] {
			t.Errorf("HotPaths registers %s, which names no function in the module", name)
		}
	}
}
