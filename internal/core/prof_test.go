package core

import (
	"testing"

	"merlin/internal/buflib"
	"merlin/internal/geom"
	"merlin/internal/order"
	"merlin/internal/rc"
)

// BenchmarkConstruct measures one BUBBLE_CONSTRUCT invocation at the unit
// scale tests use; the cross-size series lives in the repository-root
// bench (BenchmarkBubbleConstruct).
func BenchmarkConstruct(b *testing.B) {
	tech := rc.Default035()
	lib := buflib.Default035().Small(5)
	nt := smokeNet(8, 42)
	cands := geom.ReducedHanan(nt.Terminals(), 10)
	opts := DefaultOptions()
	opts.Alpha = 4
	opts.MaxSols = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := NewEngine(nt, cands, lib, tech, opts)
		if _, err := en.Construct(order.Identity(nt.N())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTree rebuilds the extracted tree of BenchmarkConstruct's
// net. In "replay" every call first forgets the engine's kept trees, so it
// replays the cells the tree touches; in "kept" every call reuses the
// records the first rebuild kept.
func BenchmarkBuildTree(b *testing.B) {
	tech := rc.Default035()
	lib := buflib.Default035().Small(5)
	nt := smokeNet(8, 42)
	cands := geom.ReducedHanan(nt.Terminals(), 10)
	opts := DefaultOptions()
	opts.Alpha = 4
	opts.MaxSols = 4
	en := NewEngine(nt, cands, lib, tech, opts)
	final, err := en.Construct(order.Identity(nt.N()))
	if err != nil {
		b.Fatal(err)
	}
	sol, _, err := en.Extract(final, Goal{})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name   string
		forget bool
	}{{"replay", true}, {"kept", false}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v.forget {
					clear(en.trees)
				}
				if _, err := en.BuildTree(sol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
