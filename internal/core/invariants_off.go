//go:build !merlin_invariants

package core

import (
	"merlin/internal/curve"
	"merlin/internal/tree"
)

// Production mirror of invariants_on.go: no-op hooks the inliner erases.

func assertFinalCurves([]curve.Solution, string) {}

func assertBuiltTree(*tree.Tree, Options) {}
