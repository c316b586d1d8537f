//go:build merlin_invariants

package tree

import (
	"fmt"
	"math"
)

// Runtime assertion layer for tree timing, enabled by
// `-tags merlin_invariants` (`make invariants`); invariants_off.go is the
// zero-cost production mirror. Elmore wire delays and gate delays are sums
// of non-negative RC products — a NaN, infinite or negative value here means
// a corrupted technology model, load table or position, and would otherwise
// surface only as a silently wrong required time.

// assertFiniteDelay panics when a charged delay is NaN, infinite or negative.
func assertFiniteDelay(d float64, op string) {
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		panic(fmt.Sprintf("merlin_invariants: %s produced a non-finite or negative delay %g ns", op, d))
	}
}
