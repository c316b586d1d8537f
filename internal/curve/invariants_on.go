//go:build merlin_invariants

package curve

import (
	"fmt"
	"math"
)

// This file (with invariants_off.go as its production mirror) is the curve
// package's runtime assertion layer, enabled by `-tags merlin_invariants`
// (`make invariants`). The assertions re-verify, at every mutation of a
// frontier, the properties the kernel's hot-loop inserts are supposed to
// maintain and Sort and Cap must preserve — the correctness core every
// Lillis-style buffer-insertion DP rests on. Violations panic immediately at
// the corrupting operation instead of surfacing as a subtly wrong tree three
// layers up. Production builds compile the no-op mirrors, which inline to
// nothing (proved by the tag-less run of TestCorruptedFrontierDetection).

// InvariantsEnabled reports whether this build carries the runtime invariant
// assertions. Tests branch on it to demand a panic under the tag and silence
// without it.
const InvariantsEnabled = true

// assertFrontier panics unless c is a sorted non-inferior frontier; called
// after Sort, so a caller that sorts a curve the kernel did not build fails
// here.
func assertFrontier(c *Curve, op string) {
	if err := c.CheckFrontier(true); err != nil {
		panic(fmt.Sprintf("merlin_invariants: after %s: %v", op, err))
	}
}

// assertNonInferior panics unless c is pairwise non-inferior; called after
// Cap, which preserves non-inferiority but not sort order.
func assertNonInferior(c *Curve, op string) {
	if err := c.CheckFrontier(false); err != nil {
		panic(fmt.Sprintf("merlin_invariants: after %s: %v", op, err))
	}
}

// assertInserted is the O(s) hot-loop assertion for the incremental inserts,
// which always append the new solution last: it must be mutually non-inferior
// with every survivor. This is exactly the inductive step an insert has to
// establish — survivors were pairwise non-inferior before, and removing
// points cannot break that — so checking the new point suffices; the full
// O(s²) frontier check would turn the DP's O(s) inserts into O(s²) and the
// tagged test run would not finish. Whole-frontier re-verification happens at
// the batch boundaries (Sort, Cap, assertFinalCurves in internal/core).
func assertInserted(c *Curve, op string) {
	n := len(c.Sols)
	if n == 0 {
		return
	}
	if len(c.Refs) != 0 && len(c.Refs) != n-1 {
		panic(fmt.Sprintf("merlin_invariants: after %s: %d handles for the %d solutions before the insert", op, len(c.Refs), n-1))
	}
	s := c.Sols[n-1]
	if math.IsNaN(s.Load) || math.IsNaN(s.Req) || math.IsNaN(s.Area) ||
		math.IsInf(s.Load, 0) || s.Load < 0 || math.IsInf(s.Area, 0) || s.Area < 0 {
		panic(fmt.Sprintf("merlin_invariants: after %s: inserted solution has invalid coordinates: %v", op, s))
	}
	for i := 0; i < n-1; i++ {
		t := c.Sols[i]
		if t.Dominates(s) {
			panic(fmt.Sprintf("merlin_invariants: after %s: inserted solution %v is inferior to kept %v (Definition 6 violation)", op, s, t))
		}
		if s.Dominates(t) {
			panic(fmt.Sprintf("merlin_invariants: after %s: kept solution %v is inferior to inserted %v (Definition 6 violation)", op, t, s))
		}
	}
}

// assertFiniteDelay panics when a charged delay is NaN, infinite or negative:
// Elmore wire delays and nominal gate delays are sums of non-negative RC
// products, so anything else means a corrupted technology model or load.
func assertFiniteDelay(d float64, op string) {
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		panic(fmt.Sprintf("merlin_invariants: %s produced a non-finite or negative delay %g ns", op, d))
	}
}

// assertNotAliased panics when an operator's source is its target's own
// list: the inserts rewrite the target's solutions in place, so the
// operator would read solutions it had already evicted or overwritten.
func assertNotAliased(c *Curve, src []Solution, op string) {
	if len(src) > 0 && cap(c.Sols) > 0 && &src[0] == &c.Sols[:1][0] {
		panic(fmt.Sprintf("merlin_invariants: %s: the source list is the target's", op))
	}
}
