// Package curve implements the three-dimensional non-inferior solution
// curves that BUBBLE_CONSTRUCT and *PTREE propagate (Fig. 8 of the paper),
// and the one kernel of curve operators that all three flows build them with.
//
// A solution σ is the (load, required time, total buffer area) triple of a
// buffered routing structure rooted at some point. Definition 6 of the
// paper orders solutions: σ2 is inferior to σ1 iff
//
//	load(σ1) ≤ load(σ2) ∧ reqTime(σ2) ≤ reqTime(σ1) ∧ area(σ1) ≤ area(σ2).
//
// A Curve stores only the non-inferior frontier, and beside it, while its
// owner builds it, the handle of each solution's reconstruction record (see
// Refs). Every curve is built by the kernel — Insert, Join, Wire and Buffer
// — which grows a frontier incrementally and keeps it non-inferior after
// every solution; Sort orders a curve and Cap thins it.
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
//   - Corner skip: Wire first maps each source's optimistic corner (min
//     load, max req, min area; see Corner) through the source's wire. Every
//     transform is monotone, so if the target already dominates the mapped
//     corner it dominates everything the source could produce, and the
//     whole source is skipped. The caller supplies the corners and computes
//     each where it is cheapest: ptree when it writes a list into its
//     table, core once per transfer hop. Join and Buffer test no corner: a
//     target seldom dominates a whole join (none of core's, 2.8% of
//     ptree's) or a whole gate's output (0.21% of dp-cold's gates), so the
//     test does not pay for its scans. A caller that keeps its inputs'
//     corners may still skip a Join whose merged corner the target
//     dominates: Join would leave the target unchanged.
//   - Sources are read in place: an operator takes its inputs as solution
//     lists, which may be views into an owner's storage, and names an input
//     solution to its ref callback by its index in its list.
//   - Records are built only for solutions that survive the insert: an
//     operator calls its ref callback, which writes a provisional record into
//     the owner's Refs table, right after the insert admits the solution,
//     and appends the handle it returns to the target's Refs.
//   - A nil ref callback builds no handle: the operator computes triples
//     alone, and the target's Refs stay as they are.
package curve

import (
	"fmt"
	"math"

	"merlin/internal/rc"
)

// Solution is one point of a three-dimensional solution curve. It carries no
// handle: the kernel names a solution by its index in its list, and an
// owner keeps its handles in Curve.Refs.
type Solution struct {
	// Load is the capacitance (pF) presented at the root of the structure.
	Load float64
	// Req is the required time (ns) at the root: the latest time the signal
	// may arrive there while still meeting every sink's requirement.
	Req float64
	// Area is the total buffer area (λ²) used inside the structure.
	Area float64
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
// frontier, with the handles of their reconstruction records. The zero
// value is an empty curve ready for use.
type Curve struct {
	Sols []Solution
	// Refs, on a curve whose owner keeps reconstruction records, is parallel
	// to Sols: Refs[i] is the handle of Sols[i]'s record in the owner's Refs
	// table. The kernel operators append a handle for every solution they
	// admit through a ref callback, and insert, Sort, Cap and PruneNaive move
	// each handle with its solution. A curve filled by Insert alone or with
	// nil ref callbacks, or stored without its records, has none.
	Refs []int32
}

// Len returns the number of stored solutions.
func (c *Curve) Len() int { return len(c.Sols) }

// Empty reports whether the curve holds no solutions.
func (c *Curve) Empty() bool { return len(c.Sols) == 0 }

// Clone returns a copy of the curve with its own solution and handle lists.
func (c *Curve) Clone() *Curve {
	return &Curve{Sols: append([]Solution(nil), c.Sols...), Refs: append([]int32(nil), c.Refs...)}
}

// moveRef moves refs[from] down to refs[to], shifting the handles between up
// by one, as an insertion sort moves their solutions. A curve without
// handles has none to move.
func moveRef(refs []int32, to, from int) {
	if to == from || len(refs) == 0 {
		return
	}
	r := refs[from]
	copy(refs[to+1:from+1], refs[to:from])
	refs[to] = r
}

// Sort orders the curve by increasing load, then increasing area, then
// decreasing required time: the order Flows I and II cap in. The kernel
// keeps every curve non-inferior, so no two solutions compare equal and the
// order is unique. It is an insertion sort, which moves each handle with
// its solution; the curves sorted here are small.
func (c *Curve) Sort() {
	sols, refs := c.Sols, c.Refs
	for i := 1; i < len(sols); i++ {
		s := sols[i]
		j := i - 1
		for ; j >= 0; j-- {
			t := &sols[j]
			if t.Load < s.Load || (t.Load == s.Load && (t.Area < s.Area || (t.Area == s.Area && t.Req >= s.Req))) {
				break
			}
			sols[j+1] = *t
		}
		sols[j+1] = s
		moveRef(refs, j+1, i)
	}
	assertFrontier(c, "Sort")
}

// PruneNaive is the O(s²) reference frontier tests check the kernel
// against: it removes every inferior solution (Definition 6), keeping the
// first of equal triples, then sorts the survivors.
func (c *Curve) PruneNaive() {
	sols, refs := c.Sols, c.Refs
	out := make([]Solution, 0, len(sols))
	var outRefs []int32
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
			if len(refs) > 0 {
				outRefs = append(outRefs, refs[i])
			}
		}
	}
	c.Sols, c.Refs = out, outRefs
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

// Corner returns the optimistic corner of a solution list: its minimum
// load, maximum required time and minimum area, a triple that dominates
// every solution in the list. An empty list's corner is the zero Solution,
// which no operator reads.
func Corner(sols []Solution) Solution {
	if len(sols) == 0 {
		return Solution{}
	}
	lo := sols[0]
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

// Insert adds sols, in order, to a non-inferior curve without handles and
// keeps it non-inferior (see insert). It returns how many of sols were
// admitted; a later one may evict an earlier one. The result holds the
// solutions PruneNaive keeps of the curve's solutions followed by sols, as
// property tests check.
func (c *Curve) Insert(sols ...Solution) int {
	n := 0
	for i := range sols {
		if c.insert(sols[i]) {
			n++
		}
	}
	return n
}

// InsertRef inserts s like Insert into a curve that keeps handles and, only
// if s is admitted, appends the handle ref returns; a nil ref builds none.
// It reports whether s was admitted.
func (c *Curve) InsertRef(s Solution, ref func() int32) bool {
	if !c.insert(s) {
		return false
	}
	if ref != nil {
		c.Refs = append(c.Refs, ref())
	}
	return true
}

// insert is the kernel's one insert, in two scans. The rejection scan walks
// the stored solutions newest first and returns false at the first one that
// dominates s (an equal triple counts, so the first of two duplicates wins),
// leaving the curve unchanged. Only an admitted s gets the second scan: a
// forward walk to the first solution s dominates, then a stable compaction
// that drops every solution s dominates, and its handle with it; s is
// appended last, and the caller appends its handle. Both scans test
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
		refs := c.Refs
		w := first
		for j := first + 1; j < len(sols); j++ {
			t := sols[j]
			sols[w] = t
			if len(refs) > 0 {
				refs[w] = refs[j]
			}
			w += 1 - b2i(s.Load <= t.Load)&b2i(s.Req >= t.Req)&b2i(s.Area <= t.Area)
		}
		sols = sols[:w]
		if len(refs) > 0 {
			c.Refs = refs[:w]
		}
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

// Join inserts into c the merge of every pair (a[i], b[j]) of two
// structures rooted at the same point: loads and areas add, required times
// take the minimum. Pairs are inserted i-major. ref(i, j) returns a
// surviving merge's handle, built from its two parts; a nil ref builds none.
// Join tests no corner (see the package comment).
func (c *Curve) Join(a, b []Solution, ref func(i, j int) int32) {
	for i := range a {
		x := &a[i]
		for j := range b {
			y := &b[j]
			if c.insert(Solution{Load: x.Load + y.Load, Req: minReq(x.Req, y.Req), Area: x.Area + y.Area}) && ref != nil {
				c.Refs = append(c.Refs, ref(i, j))
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

// Wire inserts into c the solutions of every source list srcs[q] except
// srcs[skip] (pass -1 to read them all), each carried through a wire of
// lens[q] λ to c's root: the wire's Elmore delay is charged against the
// required time, its capacitance added to the load (then quantized), and
// areaPerLambda·lens[q] added to the area. Sources are read in index order;
// none may share storage with c. corners[q] is the caller's Corner of
// srcs[q]: a source whose corner, carried through its wire, c dominates is
// skipped whole. ref(q, i) returns a surviving solution's handle, built
// from source solution srcs[q][i]; a nil ref builds none.
func (c *Curve) Wire(t rc.Technology, srcs [][]Solution, corners []Solution, lens []int64, skip int, areaPerLambda float64, ref func(q, i int) int32) {
	for q, src := range srcs {
		if q == skip || len(src) == 0 {
			continue
		}
		wl := lens[q]
		wc := t.WireC(wl)
		wa := areaPerLambda * float64(wl)
		lo := &corners[q]
		if c.dominated(lo.Load+wc, lo.Req-t.WireElmore(wl, lo.Load), lo.Area+wa) {
			continue
		}
		for i := range src {
			s := &src[i]
			d := t.WireElmore(wl, s.Load)
			assertFiniteDelay(d, "curve.Wire: WireElmore")
			if c.insert(Solution{Load: t.QuantizeLoad(s.Load + wc), Req: s.Req - d, Area: s.Area + wa}) && ref != nil {
				c.Refs = append(c.Refs, ref(q, i))
			}
		}
	}
}

// Buffer inserts into c every solution of src driven by each gate in turn
// (gate-major): the load becomes the gate's quantized input capacitance,
// the gate's nominal-slew delay is charged and its area added. src must not
// be c's own list: inserts rewrite c.Sols in place. ref(i, gi) returns a
// surviving solution's handle, built from src[i] and its gate's index in
// gates; a nil ref builds none.
func (c *Curve) Buffer(t rc.Technology, src []Solution, gates []rc.Gate, ref func(i, gi int) int32) {
	assertNotAliased(c, src, "curve.Buffer")
	for gi := range gates {
		g := &gates[gi]
		cin := t.QuantizeLoad(g.Cin)
		for i := range src {
			s := &src[i]
			d := g.DelayNominal(&t, s.Load)
			assertFiniteDelay(d, "curve.Buffer: DelayNominal")
			if c.insert(Solution{Load: cin, Req: s.Req - d, Area: s.Area + g.Area}) && ref != nil {
				c.Refs = append(c.Refs, ref(i, gi))
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
// truncates c.Sols, and c.Refs with it, without allocating.
func (c *Curve) Cap(max int) {
	if max <= 0 || len(c.Sols) <= max {
		return
	}
	// Insertion sort by descending req: curves here are small (a few dozen
	// at most), where this beats the generic sort by a wide margin.
	sols, refs := c.Sols, c.Refs
	for i := 1; i < len(sols); i++ {
		s := sols[i]
		j := i - 1
		for j >= 0 && sols[j].Req < s.Req {
			sols[j+1] = sols[j]
			j--
		}
		sols[j+1] = s
		moveRef(refs, j+1, i)
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
		if len(refs) > 0 {
			refs[w] = refs[idx]
		}
		w++
	}
	c.Sols = sols[:w]
	if len(refs) > 0 {
		c.Refs = refs[:w]
	}
	assertNonInferior(c, "Cap")
}

// BestReq returns the index of the solution with the maximum required time,
// breaking ties by smaller area then smaller load. ok is false on an empty
// curve.
func (c *Curve) BestReq() (best int, ok bool) {
	for i := range c.Sols {
		if i > 0 && better(c.Sols[i], c.Sols[best]) {
			best = i
		}
	}
	return best, len(c.Sols) > 0
}

// ReqAtDriver returns the required time at the input of gate drv driving
// the solution's load, with the technology's nominal input slew.
func (s Solution) ReqAtDriver(t *rc.Technology, drv *rc.Gate) float64 {
	return s.Req - drv.DelayNominal(t, s.Load)
}

// BestAtDriver returns the index of the solution of sols with the largest
// ReqAtDriver, and that required time; ties go to the smaller area, then
// to the earlier solution. With maxArea > 0, solutions whose area exceeds
// it are skipped. The index is −1 when no solution is left.
func BestAtDriver(sols []Solution, t *rc.Technology, drv *rc.Gate, maxArea float64) (int, float64) {
	best, bestReq := -1, 0.0
	for i, s := range sols {
		if maxArea > 0 && s.Area > maxArea {
			continue
		}
		if req := s.ReqAtDriver(t, drv); best < 0 || req > bestReq || (req == bestReq && s.Area < sols[best].Area) {
			best, bestReq = i, req
		}
	}
	return best, bestReq
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
