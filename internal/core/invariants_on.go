//go:build merlin_invariants

package core

import (
	"fmt"

	"merlin/internal/curve"
	"merlin/internal/tree"
)

// Runtime assertion layer for the DP engine, enabled by
// `-tags merlin_invariants` (`make invariants`); invariants_off.go is the
// zero-cost production mirror. Where the curve package asserts each frontier
// mutation locally, this file asserts the engine-level contracts: the final
// curve of a construction at the source is a true non-inferior frontier,
// and every extracted tree realizes a sink order and — in the strict
// Definition 2 configuration — is a Cα_Tree with branching ≤ α.

// assertFinalCurves panics unless a finished construction's final curve at
// the source, src, is a pairwise non-inferior frontier (the curve is
// Cap-thinned, so sort order is not required).
func assertFinalCurves(src []curve.Solution, where string) {
	c := curve.Curve{Sols: src}
	if err := c.CheckFrontier(false); err != nil {
		panic(fmt.Sprintf("merlin_invariants: %s: source: %v", where, err))
	}
}

// assertBuiltTree panics unless the reconstructed tree realizes a sink order
// (the alphabetic property: a depth-first traversal meets every sink exactly
// once). Under Options.ForceGroupBuffers with the Definition 2 hierarchy
// (MaxInternalChildren ≤ 1) and no buffers at interior Steiner points it
// additionally demands a strict Cα_Tree with branching factor ≤ α; relaxed
// configurations let unbuffered sub-groups collapse into their parent, and
// Steiner-point buffers (BufferAtSteiner) are internal nodes outside the
// group hierarchy, so in either the α bound is legitimately unobservable.
func assertBuiltTree(t *tree.Tree, opts Options) {
	if ord := t.SinkOrder(); !ord.Valid() {
		panic(fmt.Sprintf("merlin_invariants: BuildTree: tree does not realize a sink order (got %v)", ord))
	}
	if opts.ForceGroupBuffers && opts.MaxInternalChildren <= 1 && !opts.BufferAtSteiner {
		if _, err := t.IsCaTree(opts.Alpha); err != nil {
			panic(fmt.Sprintf("merlin_invariants: BuildTree: not a Cα_Tree (α=%d): %v", opts.Alpha, err))
		}
	}
}
