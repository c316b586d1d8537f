package curve

import (
	"fmt"
	"math"
)

// CheckFrontier verifies that the curve is a true non-inferior frontier
// (Definition 6): every coordinate is a real number (no NaN; load and area
// additionally finite and non-negative), no stored solution dominates another
// (equal triples count as mutual dominance, so duplicates are violations
// too), and — when requireSorted is set, as after Sort — the solutions are
// in non-decreasing (load, area) lexicographic order. It returns an error
// describing the first violation, or nil.
//
// CheckFrontier is the correctness core the merlin_invariants assertion layer
// (invariants_on.go here, and its counterparts in internal/core) panics on;
// tests also call it directly as an oracle. It is O(s²) and never called from
// production builds' hot paths.
func (c *Curve) CheckFrontier(requireSorted bool) error {
	for i := range c.Sols {
		s := &c.Sols[i]
		if math.IsNaN(s.Load) || math.IsNaN(s.Req) || math.IsNaN(s.Area) {
			return fmt.Errorf("curve: solution %d has NaN coordinate: %v", i, *s)
		}
		if math.IsInf(s.Load, 0) || s.Load < 0 {
			return fmt.Errorf("curve: solution %d has non-finite or negative load: %v", i, *s)
		}
		if math.IsInf(s.Area, 0) || s.Area < 0 {
			return fmt.Errorf("curve: solution %d has non-finite or negative area: %v", i, *s)
		}
	}
	if requireSorted {
		for i := 1; i < len(c.Sols); i++ {
			a, b := &c.Sols[i-1], &c.Sols[i]
			if b.Load < a.Load || (b.Load == a.Load && b.Area < a.Area) {
				return fmt.Errorf("curve: not sorted by (load, area) at %d: %v precedes %v", i, *a, *b)
			}
		}
	}
	for i := range c.Sols {
		for j := range c.Sols {
			if i != j && c.Sols[i].Dominates(c.Sols[j]) {
				return fmt.Errorf("curve: solution %d %v is inferior to %d %v (Definition 6 violation)",
					j, c.Sols[j], i, c.Sols[i])
			}
		}
	}
	return nil
}
