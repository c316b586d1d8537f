package curve

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"merlin/internal/rc"
)

// The kernel operators are checked against brute force: apply the operator
// to every input solution, append the results to the target's solutions and
// prune with PruneNaive, which keeps the first of equal triples. Every input
// solution carries a distinct handle, and each operator's ref callback
// derives the output handle from its inputs the way the brute force does, so
// the kernel must leave the same solutions — triples and handles — and the
// property covers dominance, first-wins on exact duplicates and Wire's
// corner skip at once. Brute force compares sets; each operator's
// curve must also equal, element for element, the reference insert of
// insertref_test.go applied to the target's solutions and then to the
// produced candidates in operator order, which pins the order Cap reads.
// Every trial runs the operator once more with a nil ref callback on the
// target's triples alone, which must leave the same triples in the same
// order and build no handle.

// kernelTech has wires and quantization coarse enough, next to the test
// grids, that wires create and merge duplicates.
var kernelTech = rc.Technology{RPerLambda: 0.001, CPerLambda: 0.002, NominalSlew: 0.2, LoadQuantum: 0.1}

// gridCurve draws n solutions from a small grid, so duplicates and
// dominations are common, each with a distinct handle starting at id.
func gridCurve(rng *rand.Rand, n int, id int32) *Curve {
	c := randomCurve(rng, n)
	for i := range c.Sols {
		c.Refs = append(c.Refs, id+int32(i))
	}
	return c
}

// randomTarget returns a non-inferior curve in random order, as the kernel
// expects of a target.
func randomTarget(rng *rand.Rand, n int) *Curve {
	c := gridCurve(rng, n, 0)
	c.PruneNaive()
	rng.Shuffle(len(c.Sols), func(i, j int) {
		c.Sols[i], c.Sols[j] = c.Sols[j], c.Sols[i]
		c.Refs[i], c.Refs[j] = c.Refs[j], c.Refs[i]
	})
	return c
}

// bruteForce is the oracle: target's solutions followed by produced, pruned
// by PruneNaive (first of equal triples wins).
func bruteForce(target, produced *Curve) *Curve {
	c := &Curve{
		Sols: append(append([]Solution(nil), target.Sols...), produced.Sols...),
		Refs: append(append([]int32(nil), target.Refs...), produced.Refs...),
	}
	c.PruneNaive()
	return c
}

// produce appends one candidate an operator makes, with the handle the
// brute force derives for it.
func (c *Curve) produce(s Solution, h int32) {
	c.Sols = append(c.Sols, s)
	c.Refs = append(c.Refs, h)
}

// withoutRefs returns a copy of c's triples without handles: the target an
// operator given a nil ref callback builds on.
func withoutRefs(c *Curve) *Curve { return &Curve{Sols: slices.Clone(c.Sols)} }

// checkBare requires the curve an operator left with a nil ref callback to
// hold got's triples, in got's order, and no handle.
func checkBare(t *testing.T, what string, b, got *Curve) {
	t.Helper()
	if !slices.Equal(b.Sols, got.Sols) || len(b.Refs) != 0 {
		t.Fatalf("%s with a nil ref: kernel left\n %v handles %v\nwith refs\n %v", what, b.Sols, b.Refs, got.Sols)
	}
}

// checkSameSolutions compares two curves as sets of (triple, handle).
func checkSameSolutions(t *testing.T, what string, got, want *Curve) {
	t.Helper()
	if err := got.CheckFrontier(false); err != nil {
		t.Fatalf("%s: kernel left an inferior curve: %v", what, err)
	}
	if len(got.Refs) != len(got.Sols) {
		t.Fatalf("%s: kernel left %d handles for %d solutions", what, len(got.Refs), len(got.Sols))
	}
	g := got.Clone()
	g.Sort()
	if len(g.Sols) != len(want.Sols) {
		t.Fatalf("%s: kernel kept %d solutions, brute force %d\n got %v\nwant %v", what, len(g.Sols), len(want.Sols), g.Sols, want.Sols)
	}
	for i := range g.Sols {
		if g.Sols[i] != want.Sols[i] || g.Refs[i] != want.Refs[i] {
			t.Fatalf("%s: solution %d is %v handle %d, brute force %v handle %d", what, i, g.Sols[i], g.Refs[i], want.Sols[i], want.Refs[i])
		}
	}
}

// joinHandle is the handle TestJoinOp derives for the merge of x and y;
// the parts' handles are below 1000, so distinct pairs get distinct handles.
func joinHandle(x, y int32) int32 { return 1000*x + y }

// TestJoinOp: Join into a random non-inferior target keeps exactly what
// brute force keeps. Join tests no corner. Where a caller's test would
// fire, because the target dominates the merge of the inputs' Corners, Join
// must leave the target unchanged, so such a caller may skip the call.
func TestJoinOp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	skips := 0
	for trial := 0; trial < 3000; trial++ {
		target := randomTarget(rng, rng.Intn(10))
		a := gridCurve(rng, 1+rng.Intn(5), 100)
		b := gridCurve(rng, 1+rng.Intn(5), 200)
		if trial%10 == 0 {
			b = &Curve{}
		}
		produced := &Curve{}
		for i, x := range a.Sols {
			for j, y := range b.Sols {
				produced.produce(Solution{x.Load + y.Load, math.Min(x.Req, y.Req), x.Area + y.Area}, joinHandle(a.Refs[i], b.Refs[j]))
			}
		}
		ca, cb := Corner(a.Sols), Corner(b.Sols)
		skip := len(b.Sols) > 0 && target.dominated(ca.Load+cb.Load, math.Min(ca.Req, cb.Req), ca.Area+cb.Area)
		want := bruteForce(target, produced)
		got := target.Clone()
		got.Join(a.Sols, b.Sols, func(i, j int) int32 { return joinHandle(a.Refs[i], b.Refs[j]) })
		checkSameSolutions(t, "Join", got, want)
		checkSameOrder(t, "Join", got, refInserted(target, produced))
		if skip {
			skips++
			checkSameOrder(t, "Join where the corner test fires", got, target)
		}
		nilRef := withoutRefs(target)
		nilRef.Join(a.Sols, b.Sols, nil)
		checkBare(t, "Join", nilRef, got)
	}
	if skips < 100 {
		t.Fatalf("corner test fired in only %d trials", skips)
	}
}

// viaHandle is the handle TestWireOp derives for a wired source solution.
func viaHandle(s int32) int32 { return s + 1<<20 }

// TestWireOp: Wire over nil, empty, skipped and duplicated sources, given
// each source's Corner, keeps exactly what brute force keeps, including
// sources the corner skip drops.
func TestWireOp(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	skips := 0
	for trial := 0; trial < 3000; trial++ {
		target := randomTarget(rng, rng.Intn(10))
		k := 1 + rng.Intn(4)
		srcs := make([]*Curve, k)
		lens := make([]int64, k)
		for q := range srcs {
			lens[q] = int64(rng.Intn(4) * 100)
			switch rng.Intn(6) {
			case 0: // nil and empty sources are skipped
			case 1:
				srcs[q] = &Curve{}
			case 2: // the previous source again, through the same wire: exact duplicates
				if q > 0 && srcs[q-1] != nil {
					srcs[q] = srcs[q-1].Clone()
					for i := range srcs[q].Refs {
						srcs[q].Refs[i] = int32(1000*(q+1) + i)
					}
					lens[q] = lens[q-1]
					continue
				}
				srcs[q] = gridCurve(rng, 1+rng.Intn(5), int32(1000*(q+1)))
			default:
				srcs[q] = gridCurve(rng, 1+rng.Intn(5), int32(1000*(q+1)))
			}
		}
		skip := rng.Intn(k+1) - 1
		areaPerLambda := float64(rng.Intn(3)) / 2
		produced := &Curve{}
		lists := make([][]Solution, k)
		corners := make([]Solution, k)
		for q, src := range srcs {
			if src != nil {
				lists[q] = src.Sols
				corners[q] = Corner(src.Sols)
			}
			if q == skip || src == nil {
				continue
			}
			wc := kernelTech.WireC(lens[q])
			wa := areaPerLambda * float64(lens[q])
			for i, s := range src.Sols {
				produced.produce(Solution{
					kernelTech.QuantizeLoad(s.Load + wc),
					s.Req - kernelTech.WireElmore(lens[q], s.Load),
					s.Area + wa,
				}, viaHandle(src.Refs[i]))
			}
			if len(src.Sols) > 0 {
				lo := corners[q]
				if target.dominated(lo.Load+wc, lo.Req-kernelTech.WireElmore(lens[q], lo.Load), lo.Area+wa) {
					skips++
				}
			}
		}
		want := bruteForce(target, produced)
		got := target.Clone()
		got.Wire(kernelTech, lists, corners, lens, skip, areaPerLambda, func(q, i int) int32 { return viaHandle(srcs[q].Refs[i]) })
		checkSameSolutions(t, "Wire", got, want)
		checkSameOrder(t, "Wire", got, refInserted(target, produced))
		nilRef := withoutRefs(target)
		nilRef.Wire(kernelTech, lists, corners, lens, skip, areaPerLambda, nil)
		checkBare(t, "Wire", nilRef, got)
	}
	if skips < 100 {
		t.Fatalf("corner skip fired in only %d sources", skips)
	}
}

// bufHandle is the handle TestBufferOp derives for solution s driven by
// gate gi; there are fewer than 10 gates.
func bufHandle(s int32, gi int) int32 { return 10*s + int32(gi) }

// kernelGates has two electrically identical cells, so buffering one
// solution with both yields an exact duplicate and first-wins decides.
var kernelGates = []rc.Gate{
	{Name: "B1", K0: 0.1, K1: 2, K2: 0.5, Cin: 0.03, Area: 100},
	{Name: "B2", K0: 0.3, K1: 0.5, K2: 0.5, Cin: 0.25, Area: 300},
	{Name: "B1twin", K0: 0.1, K1: 2, K2: 0.5, Cin: 0.03, Area: 100},
}

// TestBufferOp: Buffer from another curve keeps exactly what brute force
// keeps.
func TestBufferOp(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		target := randomTarget(rng, rng.Intn(10))
		src := gridCurve(rng, 1+rng.Intn(6), 100)
		gates := kernelGates[:1+rng.Intn(len(kernelGates))]
		produced := &Curve{}
		for gi, g := range gates {
			for i, s := range src.Sols {
				produced.produce(Solution{
					kernelTech.QuantizeLoad(g.Cin),
					s.Req - g.DelayNominal(&kernelTech, s.Load),
					s.Area + g.Area,
				}, bufHandle(src.Refs[i], gi))
			}
		}
		want := bruteForce(target, produced)
		got := target.Clone()
		got.Buffer(kernelTech, src.Sols, gates, func(i, gi int) int32 { return bufHandle(src.Refs[i], gi) })
		checkSameSolutions(t, "Buffer", got, want)
		checkSameOrder(t, "Buffer", got, refInserted(target, produced))
		nilRef := withoutRefs(target)
		nilRef.Buffer(kernelTech, src.Sols, gates, nil)
		checkBare(t, "Buffer", nilRef, got)
	}
}

// TestInsertKeepsFirstDuplicate: of two solutions with the same triple, the
// curve keeps the one inserted first, whichever operator inserts them.
func TestInsertKeepsFirstDuplicate(t *testing.T) {
	const first, other, second = 1, 2, 3
	c := &Curve{}
	for _, in := range []struct {
		s Solution
		h int32
	}{{Solution{1, 5, 2}, first}, {Solution{2, 6, 3}, other}, {Solution{1, 5, 2}, second}} {
		c.InsertRef(in.s, func() int32 { return in.h })
	}
	if got := c.Refs; len(got) != 2 || got[0] != first {
		t.Fatalf("InsertRef: kept handles %v, want [%d %d]", got, first, other)
	}

	// Join: a0+b0 and a1+b1 both give (1, 3, 1), which nothing dominates.
	const a0, a1, b0, b1 = 10, 11, 20, 21
	a := &Curve{Sols: []Solution{{1, 5, 0}, {0, 3, 1}}, Refs: []int32{a0, a1}}
	b := &Curve{Sols: []Solution{{0, 3, 1}, {1, 5, 0}}, Refs: []int32{b0, b1}}
	j := &Curve{}
	j.Join(a.Sols, b.Sols, func(x, y int) int32 { return joinHandle(a.Refs[x], b.Refs[y]) })
	if !hasSolution(j, Solution{1, 3, 1}, joinHandle(a0, b0)) || j.Len() != 3 {
		t.Fatalf("Join: got handles %v, want (1, 3, 1) from a0+b0 among 3", j.Refs)
	}

	// Buffer: twin gates produce identical triples; the first gate wins.
	bc := &Curve{}
	bc.Buffer(kernelTech, []Solution{{0.5, 5, 0}}, kernelGates, func(_, gi int) int32 { return int32(gi) })
	if got := bc.Refs; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Buffer: kept gates %v, want [0 1] (B1, B2)", got)
	}
}

func hasSolution(c *Curve, want Solution, h int32) bool {
	for i, s := range c.Sols {
		if s == want && c.Refs[i] == h {
			return true
		}
	}
	return false
}

// TestSortAndCapMoveHandles: Sort and Cap reorder and thin a curve's
// solutions, and every handle must stay with its solution.
func TestSortAndCapMoveHandles(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		c := randomTarget(rng, 1+rng.Intn(40))
		owner := map[Solution]int32{}
		for i, s := range c.Sols {
			owner[s] = c.Refs[i]
		}
		check := func(op string) {
			if len(c.Refs) != len(c.Sols) {
				t.Fatalf("trial %d: %s left %d handles for %d solutions", trial, op, len(c.Refs), len(c.Sols))
			}
			for i, s := range c.Sols {
				if h, ok := owner[s]; !ok || h != c.Refs[i] {
					t.Fatalf("trial %d: after %s, %v carries handle %d, want %d", trial, op, s, c.Refs[i], h)
				}
			}
		}
		c.Sort()
		check("Sort")
		if err := c.CheckFrontier(true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rng.Shuffle(len(c.Sols), func(i, j int) {
			c.Sols[i], c.Sols[j] = c.Sols[j], c.Sols[i]
			c.Refs[i], c.Refs[j] = c.Refs[j], c.Refs[i]
		})
		c.Cap(1 + rng.Intn(8))
		check("Cap")
	}
}

// TestWireOpMonotone: longer wires can only increase load and decrease the
// required time (testing/quick over lengths and loads).
func TestWireOpMonotone(t *testing.T) {
	tech := rc.Default035()
	wire := func(src *Curve, length int64) Solution {
		c := &Curve{}
		c.Wire(tech, [][]Solution{src.Sols}, []Solution{Corner(src.Sols)}, []int64{length}, -1, 0, func(int, int) int32 { return 0 })
		return c.Sols[0]
	}
	prop := func(l1, l2 uint16, loadCenti uint8) bool {
		a, b := int64(l1), int64(l2)
		if a > b {
			a, b = b, a
		}
		c := &Curve{Sols: []Solution{sol(float64(loadCenti)/100+0.001, 5, 0)}}
		short, long := wire(c, a), wire(c, b)
		return long.Load >= short.Load && long.Req <= short.Req+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestBufferOpChargesExactly: area and load transform per the model.
func TestBufferOpChargesExactly(t *testing.T) {
	tech := rc.Default035()
	g := rc.Gate{Name: "B", K0: 0.1, K1: 2, K2: 0.1, Cin: 0.02, Area: 300}
	c := &Curve{Sols: []Solution{sol(0.4, 7, 100), sol(0.8, 9, 500)}}
	out := &Curve{}
	out.Buffer(tech, c.Sols, []rc.Gate{g}, func(int, int) int32 { return 0 })
	if out.Len() != 2 {
		t.Fatalf("both buffered solutions are non-inferior, got %v", out.Sols)
	}
	for i, s := range out.Sols {
		if s.Load != tech.QuantizeLoad(g.Cin) {
			t.Fatalf("sol %d: load %g", i, s.Load)
		}
		if s.Area != c.Sols[i].Area+300 {
			t.Fatalf("sol %d: area %g", i, s.Area)
		}
		if want := c.Sols[i].Req - g.DelayNominal(&tech, c.Sols[i].Load); s.Req != want {
			t.Fatalf("sol %d: req %g, want %g", i, s.Req, want)
		}
	}
}
