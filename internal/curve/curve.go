// Package curve implements the three-dimensional non-inferior solution
// curves that BUBBLE_CONSTRUCT and *PTREE propagate (Fig. 8 of the paper),
// and the one kernel of curve operators that all three flows build them with.
//
// A solution σ records the (load, required time, total buffer area) of a
// buffered routing structure rooted at some point, plus the handle of the
// record its owner rebuilds the structure from during extraction (see
// Refs). Definition 6 of the paper orders solutions: σ2 is inferior to σ1
// iff
//
//	load(σ1) ≤ load(σ2) ∧ reqTime(σ2) ≤ reqTime(σ1) ∧ area(σ1) ≤ area(σ2).
//
// A Curve stores only the non-inferior frontier. Every curve is built by the
// kernel — Insert, Join, Wire and Buffer — which grows a frontier
// incrementally and keeps it non-inferior after every solution; Sort orders
// a curve and Cap thins it.
//
// Kernel rules, shared by every operator:
//
//   - One insert, two scans: every operator inserts through insert, which
//     first looks for a stored solution that dominates the candidate,
//     newest first, and only for an admitted candidate looks for what it
//     evicts. Most candidates are rejected, mostly by a recent solution, so
//     the common case stops early and never tests the other direction.
//   - Curve order: survivors keep their relative order and an admitted
//     solution is appended last. Cap breaks required-time ties by this
//     order, so it is part of the answer; insertref_test.go pins it against
//     a fused single-scan reference insert.
//   - First wins: a solution equal in all three coordinates to a stored one
//     is rejected, so of two structures with the same triple the curve keeps
//     the one inserted first.
//   - Corner skip: an operator first maps an input's optimistic corner (min
//     load, max req, min area; see corner) through the same transform as
//     its solutions. Every transform is monotone, so if the target already
//     dominates the mapped corner it dominates everything the input could
//     produce, and the whole input is skipped.
//   - Records are built only for solutions that survive the insert: an
//     operator calls its ref callback, which writes a provisional record into
//     the owner's Refs table, right after the insert admits the solution.
package curve

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"merlin/internal/rc"
)

// Solution is one point of a three-dimensional solution curve.
type Solution struct {
	// Load is the capacitance (pF) presented at the root of the structure.
	Load float64
	// Req is the required time (ns) at the root: the latest time the signal
	// may arrive there while still meeting every sink's requirement.
	Req float64
	// Area is the total buffer area (λ²) used inside the structure.
	Area float64
	// Ref is the handle of the record the owner reconstructs the structure
	// from (line 22 of BUBBLE_CONSTRUCT), an index into the owner's Refs
	// table. The kernel only copies it.
	Ref int32
}

// Dominates reports whether s is at least as good as t in all three
// dimensions (Definition 6: t is inferior to s).
func (s Solution) Dominates(t Solution) bool {
	return s.Load <= t.Load && s.Req >= t.Req && s.Area <= t.Area
}

// String renders the solution triple for diagnostics.
func (s Solution) String() string {
	return fmt.Sprintf("{load=%.4gpF req=%.4gns area=%.4gλ²}", s.Load, s.Req, s.Area)
}

// Curve is a set of solutions, normally kept pruned to its non-inferior
// frontier. The zero value is an empty curve ready for use.
type Curve struct {
	Sols []Solution
}

// Len returns the number of stored solutions.
func (c *Curve) Len() int { return len(c.Sols) }

// Empty reports whether the curve holds no solutions.
func (c *Curve) Empty() bool { return len(c.Sols) == 0 }

// Clone returns a copy of the curve with its own solution list.
func (c *Curve) Clone() *Curve {
	out := &Curve{Sols: make([]Solution, len(c.Sols))}
	copy(out.Sols, c.Sols)
	return out
}

// Sort orders the curve by increasing load, then increasing area, then
// decreasing required time: the order Flows I and II cap in. The kernel
// keeps every curve non-inferior, so no two solutions compare equal and the
// order is unique.
func (c *Curve) Sort() {
	slices.SortFunc(c.Sols, func(a, b Solution) int {
		if a.Load != b.Load {
			return cmp.Compare(a.Load, b.Load)
		}
		if a.Area != b.Area {
			return cmp.Compare(a.Area, b.Area)
		}
		return cmp.Compare(b.Req, a.Req)
	})
	assertFrontier(c, "Sort")
}

// PruneNaive is the O(s²) reference frontier tests check the kernel
// against: it removes every inferior solution (Definition 6), keeping the
// first of equal triples, then sorts the survivors.
func (c *Curve) PruneNaive() {
	sols := c.Sols
	out := make([]Solution, 0, len(sols))
	for i, s := range sols {
		inferior := false
		for j, t := range sols {
			if i == j {
				continue
			}
			if !t.Dominates(s) {
				continue
			}
			if s.Dominates(t) {
				// Equal triples: keep only the first.
				if j < i {
					inferior = true
					break
				}
				continue
			}
			inferior = true
			break
		}
		if !inferior {
			out = append(out, s)
		}
	}
	c.Sols = out
	c.Sort()
}

// dominated reports whether any stored solution dominates (load, req, area);
// equal triples count as dominating.
func (c *Curve) dominated(load, req, area float64) bool {
	for i := range c.Sols {
		t := &c.Sols[i]
		if t.Load <= load && t.Req >= req && t.Area <= area {
			return true
		}
	}
	return false
}

// corner returns the optimistic corner of a non-empty solution list: its
// minimum load, maximum required time and minimum area, a triple that
// dominates every solution in the list.
func corner(sols []Solution) Solution {
	lo := Solution{Load: sols[0].Load, Req: sols[0].Req, Area: sols[0].Area}
	for i := 1; i < len(sols); i++ {
		t := &sols[i]
		if t.Load < lo.Load {
			lo.Load = t.Load
		}
		if t.Req > lo.Req {
			lo.Req = t.Req
		}
		if t.Area < lo.Area {
			lo.Area = t.Area
		}
	}
	return lo
}

// Insert adds sols, in order, to a non-inferior curve and keeps it
// non-inferior (see insert). It returns how many of sols were admitted; a
// later one may evict an earlier one. The result holds the solutions
// PruneNaive keeps of the curve's solutions followed by sols, as property
// tests check.
func (c *Curve) Insert(sols ...Solution) int {
	n := 0
	for i := range sols {
		if c.insert(sols[i]) {
			n++
		}
	}
	return n
}

// insert is the kernel's one insert, in two scans. The rejection scan walks
// the stored solutions newest first and returns false at the first one that
// dominates s (an equal triple counts, so the first of two duplicates wins),
// leaving the curve unchanged. Only an admitted s gets the second scan: a
// forward walk to the first solution s dominates, then a stable compaction
// that drops every solution s dominates; s is appended last. Both scans test
// dominance branch-free, ANDing the three comparisons with b2i.
//
// Rejections are common and cluster at the newest end. Over Flow III on
// twelve 6-sink ProfileFor nets and one 8-sink net, 42.6% of 11.0M inserts
// into curves of 16.1 solutions on average were rejected, 55% of those by
// one of the three newest solutions, and only 8.6% evicted anything. Newest
// first, a rejection visits 5.5 stored solutions on average instead of 8.7.
// Which solutions are kept, and in which order, does not depend on the scan
// order, since the curve is non-inferior: a solution is rejected iff some
// stored one dominates it.
func (c *Curve) insert(s Solution) bool {
	sols := c.Sols
	for i := len(sols) - 1; i >= 0; i-- {
		t := &sols[i]
		if b2i(t.Load <= s.Load)&b2i(t.Req >= s.Req)&b2i(t.Area <= s.Area) != 0 {
			return false
		}
	}
	first := 0
	for ; first < len(sols); first++ {
		t := &sols[first]
		if b2i(s.Load <= t.Load)&b2i(s.Req >= t.Req)&b2i(s.Area <= t.Area) != 0 {
			break
		}
	}
	if first < len(sols) {
		w := first
		for j := first + 1; j < len(sols); j++ {
			t := sols[j]
			sols[w] = t
			w += 1 - b2i(s.Load <= t.Load)&b2i(s.Req >= t.Req)&b2i(s.Area <= t.Area)
		}
		sols = sols[:w]
	}
	c.Sols = append(sols, s)
	assertInserted(c, "insert")
	return true
}

// b2i is 1 for true and 0 for false. The compiler turns it into a flag
// move, so the kernel's dominance tests AND three comparisons without the
// branches && would take.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// Join inserts into c the merge of every pair (x from a, y from b) of two
// structures rooted at the same point: loads and areas add, required times
// take the minimum. Pairs are inserted x-major. ref returns a surviving
// merge's Ref, built from its two parts.
func (c *Curve) Join(a, b *Curve, ref func(x, y *Solution) int32) {
	if len(a.Sols) == 0 || len(b.Sols) == 0 {
		return
	}
	ca, cb := corner(a.Sols), corner(b.Sols)
	if c.dominated(ca.Load+cb.Load, minReq(ca.Req, cb.Req), ca.Area+cb.Area) {
		return
	}
	for i := range a.Sols {
		x := &a.Sols[i]
		for j := range b.Sols {
			y := &b.Sols[j]
			if c.insert(Solution{Load: x.Load + y.Load, Req: minReq(x.Req, y.Req), Area: x.Area + y.Area}) {
				c.Sols[len(c.Sols)-1].Ref = ref(x, y)
			}
		}
	}
}

// minReq returns the smaller of two required times; on a tie it returns a.
func minReq(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

// Wire inserts into c the solutions of every source curve srcs[q] except
// srcs[skip] (pass -1 to read them all), each carried through a wire of
// lens[q] λ to c's root: the wire's Elmore delay is charged against the
// required time, its capacitance added to the load (then quantized), and
// areaPerLambda·lens[q] added to the area. Sources are read in index order,
// each when its turn comes, so a source that aliases a curve the caller
// updated earlier is read as updated. ref returns a surviving solution's
// Ref, built from the source solution.
func (c *Curve) Wire(t rc.Technology, srcs []*Curve, lens []int64, skip int, areaPerLambda float64, ref func(s *Solution) int32) {
	for q, src := range srcs {
		if q == skip || src == nil || len(src.Sols) == 0 {
			continue
		}
		wl := lens[q]
		wc := t.WireC(wl)
		wa := areaPerLambda * float64(wl)
		lo := corner(src.Sols)
		if c.dominated(lo.Load+wc, lo.Req-t.WireElmore(wl, lo.Load), lo.Area+wa) {
			continue
		}
		for i := range src.Sols {
			s := &src.Sols[i]
			d := t.WireElmore(wl, s.Load)
			assertFiniteDelay(d, "curve.Wire: WireElmore")
			if c.insert(Solution{Load: t.QuantizeLoad(s.Load + wc), Req: s.Req - d, Area: s.Area + wa}) {
				c.Sols[len(c.Sols)-1].Ref = ref(s)
			}
		}
	}
}

// Buffer inserts into c every solution of src driven by each gate in turn
// (gate-major): the load becomes the gate's quantized input capacitance,
// the gate's nominal-slew delay is charged and its area added. src must not
// be c: inserts rewrite c.Sols in place. ref returns a surviving solution's
// Ref, built from the driven solution and its gate's index in gates.
func (c *Curve) Buffer(t rc.Technology, src *Curve, gates []rc.Gate, ref func(s *Solution, gi int) int32) {
	assertNotAliased(c, src, "curve.Buffer")
	base := src.Sols
	if len(base) == 0 {
		return
	}
	lo := corner(base)
	for gi := range gates {
		g := &gates[gi]
		cin := t.QuantizeLoad(g.Cin)
		if c.dominated(cin, lo.Req-g.DelayNominal(&t, lo.Load), lo.Area+g.Area) {
			continue
		}
		for i := range base {
			s := &base[i]
			d := g.DelayNominal(&t, s.Load)
			assertFiniteDelay(d, "curve.Buffer: DelayNominal")
			if c.insert(Solution{Load: cin, Req: s.Req - d, Area: s.Area + g.Area}) {
				c.Sols[len(c.Sols)-1].Ref = ref(s, gi)
			}
		}
	}
}

// Cap thins the curve to at most max solutions while keeping the endpoints
// of the frontier. It stable-sorts the curve by descending required time,
// so solutions with equal required times keep their curve order, then keeps
// the best-required-time and best-area extremes and fills the budget with
// solutions evenly spaced between them; max == 1 keeps the
// best-required-time solution alone. Which solutions survive therefore
// depends on the curve's order on entry: Flows I and II Sort (by load, then
// area) before every Cap, while Flow III caps curves in insertion
// order. Capping trades optimality for speed exactly like coarser load
// quantization; max <= 0 means no cap. Cap works in place: it reorders and
// truncates c.Sols without allocating.
func (c *Curve) Cap(max int) {
	if max <= 0 || len(c.Sols) <= max {
		return
	}
	// Insertion sort by descending req: curves here are small (a few dozen
	// at most), where this beats the generic sort by a wide margin.
	sols := c.Sols
	for i := 1; i < len(sols); i++ {
		s := sols[i]
		j := i - 1
		for j >= 0 && sols[j].Req < s.Req {
			sols[j+1] = sols[j]
			j--
		}
		sols[j+1] = s
	}
	// The kept indices strictly increase from 0, so the w-th one is at least
	// w and compacting into the prefix never overwrites a solution still to
	// be read.
	step := 0.0
	if max > 1 {
		step = float64(len(sols)-1) / float64(max-1)
	}
	w, prev := 0, -1
	for i := 0; i < max; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx == prev {
			continue
		}
		prev = idx
		sols[w] = sols[idx]
		w++
	}
	c.Sols = sols[:w]
	assertNonInferior(c, "Cap")
}

// BestReq returns the solution with the maximum required time, breaking ties
// by smaller area then smaller load. ok is false on an empty curve.
func (c *Curve) BestReq() (best Solution, ok bool) {
	for i, s := range c.Sols {
		if i == 0 || better(s, best) {
			best, ok = s, true
		}
	}
	return best, ok
}

func better(a, b Solution) bool {
	if a.Req != b.Req {
		return a.Req > b.Req
	}
	if a.Area != b.Area {
		return a.Area < b.Area
	}
	return a.Load < b.Load
}
