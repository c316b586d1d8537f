package curve

import (
	"math"
	"math/rand"
	"sort"
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
// property covers dominance, first-wins on exact duplicates and the corner
// skip at once. Brute force compares sets; each operator's curve must also
// equal, element for element, the reference insert of insertref_test.go
// applied to the target's solutions and then to the produced candidates in
// operator order, which pins the order Cap reads.

// kernelTech has wires and quantization coarse enough, next to the test
// grids, that wires create and merge duplicates.
var kernelTech = rc.Technology{RPerLambda: 0.001, CPerLambda: 0.002, NominalSlew: 0.2, LoadQuantum: 0.1}

// gridCurve draws n solutions from a small grid, so duplicates and
// dominations are common, each with a distinct handle starting at id.
func gridCurve(rng *rand.Rand, n int, id int32) *Curve {
	c := randomCurve(rng, n)
	for i := range c.Sols {
		c.Sols[i].Ref = id + int32(i)
	}
	return c
}

// randomTarget returns a non-inferior curve in random order, as the kernel
// expects of a target.
func randomTarget(rng *rand.Rand, n int) *Curve {
	c := gridCurve(rng, n, 0)
	c.PruneNaive()
	rng.Shuffle(len(c.Sols), func(i, j int) { c.Sols[i], c.Sols[j] = c.Sols[j], c.Sols[i] })
	return c
}

// bruteForce is the oracle: target's solutions followed by produced, pruned
// by PruneNaive (first of equal triples wins).
func bruteForce(target *Curve, produced []Solution) *Curve {
	c := &Curve{Sols: append(append([]Solution(nil), target.Sols...), produced...)}
	c.PruneNaive()
	return c
}

// checkSameSolutions compares two curves as sets of (triple, handle).
func checkSameSolutions(t *testing.T, what string, got, want *Curve) {
	t.Helper()
	if err := got.CheckFrontier(false); err != nil {
		t.Fatalf("%s: kernel left an inferior curve: %v", what, err)
	}
	g := append([]Solution(nil), got.Sols...)
	sort.Slice(g, func(i, j int) bool {
		a, b := g[i], g[j]
		if a.Load != b.Load {
			return a.Load < b.Load
		}
		if a.Area != b.Area {
			return a.Area < b.Area
		}
		return a.Req > b.Req
	})
	if len(g) != len(want.Sols) {
		t.Fatalf("%s: kernel kept %d solutions, brute force %d\n got %v\nwant %v", what, len(g), len(want.Sols), g, want.Sols)
	}
	for i := range g {
		if g[i] != want.Sols[i] {
			t.Fatalf("%s: solution %d is %v handle %d, brute force %v handle %d", what, i, g[i], g[i].Ref, want.Sols[i], want.Sols[i].Ref)
		}
	}
}

// joinHandle is the handle TestJoinOp derives for the merge of x and y;
// the parts' handles are below 1000, so distinct pairs get distinct handles.
func joinHandle(x, y int32) int32 { return 1000*x + y }

// TestJoinOp: Join into a random non-inferior target keeps exactly what
// brute force keeps, including on inputs the corner skip drops.
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
		var produced []Solution
		for _, x := range a.Sols {
			for _, y := range b.Sols {
				produced = append(produced, Solution{x.Load + y.Load, math.Min(x.Req, y.Req), x.Area + y.Area, joinHandle(x.Ref, y.Ref)})
			}
		}
		if len(b.Sols) > 0 {
			ca, cb := corner(a.Sols), corner(b.Sols)
			if target.dominated(ca.Load+cb.Load, math.Min(ca.Req, cb.Req), ca.Area+cb.Area) {
				skips++
			}
		}
		want := bruteForce(target, produced)
		got := target.Clone()
		got.Join(a, b, func(x, y *Solution) int32 { return joinHandle(x.Ref, y.Ref) })
		checkSameSolutions(t, "Join", got, want)
		checkSameOrder(t, "Join", got, refInserted(target, produced))
	}
	if skips < 100 {
		t.Fatalf("corner skip fired in only %d trials", skips)
	}
}

// viaHandle is the handle TestWireOp derives for a wired source solution.
func viaHandle(s int32) int32 { return s + 1<<20 }

// TestWireOp: Wire over nil, empty, skipped and duplicated sources keeps
// exactly what brute force keeps, including sources the corner skip drops.
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
					for i := range srcs[q].Sols {
						srcs[q].Sols[i].Ref = int32(1000*(q+1) + i)
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
		var produced []Solution
		for q, src := range srcs {
			if q == skip || src == nil {
				continue
			}
			wc := kernelTech.WireC(lens[q])
			wa := areaPerLambda * float64(lens[q])
			for _, s := range src.Sols {
				produced = append(produced, Solution{
					kernelTech.QuantizeLoad(s.Load + wc),
					s.Req - kernelTech.WireElmore(lens[q], s.Load),
					s.Area + wa,
					viaHandle(s.Ref),
				})
			}
			if len(src.Sols) > 0 {
				lo := corner(src.Sols)
				if target.dominated(lo.Load+wc, lo.Req-kernelTech.WireElmore(lens[q], lo.Load), lo.Area+wa) {
					skips++
				}
			}
		}
		want := bruteForce(target, produced)
		got := target.Clone()
		got.Wire(kernelTech, srcs, lens, skip, areaPerLambda, func(s *Solution) int32 { return viaHandle(s.Ref) })
		checkSameSolutions(t, "Wire", got, want)
		checkSameOrder(t, "Wire", got, refInserted(target, produced))
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
// keeps, including gates the corner skip drops.
func TestBufferOp(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	skips := 0
	for trial := 0; trial < 3000; trial++ {
		target := randomTarget(rng, rng.Intn(10))
		src := gridCurve(rng, 1+rng.Intn(6), 100)
		gates := kernelGates[:1+rng.Intn(len(kernelGates))]
		var produced []Solution
		for gi, g := range gates {
			for _, s := range src.Sols {
				produced = append(produced, Solution{
					kernelTech.QuantizeLoad(g.Cin),
					s.Req - g.DelayNominal(&kernelTech, s.Load),
					s.Area + g.Area,
					bufHandle(s.Ref, gi),
				})
			}
			if len(src.Sols) > 0 {
				lo := corner(src.Sols)
				if target.dominated(kernelTech.QuantizeLoad(g.Cin), lo.Req-g.DelayNominal(&kernelTech, lo.Load), lo.Area+g.Area) {
					skips++
				}
			}
		}
		want := bruteForce(target, produced)
		got := target.Clone()
		got.Buffer(kernelTech, src, gates, func(s *Solution, gi int) int32 { return bufHandle(s.Ref, gi) })
		checkSameSolutions(t, "Buffer", got, want)
		checkSameOrder(t, "Buffer", got, refInserted(target, produced))
	}
	if skips < 100 {
		t.Fatalf("corner skip fired for only %d gates", skips)
	}
}

// TestInsertKeepsFirstDuplicate: of two solutions with the same triple, the
// curve keeps the one inserted first, whichever operator inserts them.
func TestInsertKeepsFirstDuplicate(t *testing.T) {
	const first, other, second = 1, 2, 3
	c := &Curve{}
	c.Insert(Solution{1, 5, 2, first}, Solution{2, 6, 3, other}, Solution{1, 5, 2, second})
	if got := refsOf(c); len(got) != 2 || got[0] != first {
		t.Fatalf("Insert: kept handles %v, want [%d %d]", got, first, other)
	}

	// Join: a0+b0 and a1+b1 both give (1, 3, 1), which nothing dominates.
	const a0, a1, b0, b1 = 10, 11, 20, 21
	a := &Curve{Sols: []Solution{{1, 5, 0, a0}, {0, 3, 1, a1}}}
	b := &Curve{Sols: []Solution{{0, 3, 1, b0}, {1, 5, 0, b1}}}
	j := &Curve{}
	j.Join(a, b, func(x, y *Solution) int32 { return joinHandle(x.Ref, y.Ref) })
	if !hasSolution(j, Solution{1, 3, 1, joinHandle(a0, b0)}) || j.Len() != 3 {
		t.Fatalf("Join: got handles %v, want (1, 3, 1) from a0+b0 among 3", refsOf(j))
	}

	// Buffer: twin gates produce identical triples; the first gate wins.
	bc := &Curve{}
	bc.Buffer(kernelTech, &Curve{Sols: []Solution{{0.5, 5, 0, 0}}}, kernelGates, func(s *Solution, gi int) int32 { return int32(gi) })
	if got := refsOf(bc); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Buffer: kept gates %v, want [0 1] (B1, B2)", got)
	}
}

func hasSolution(c *Curve, want Solution) bool {
	for _, s := range c.Sols {
		if s == want {
			return true
		}
	}
	return false
}

func refsOf(c *Curve) []int32 {
	out := make([]int32, len(c.Sols))
	for i, s := range c.Sols {
		out[i] = s.Ref
	}
	return out
}

// TestWireOpMonotone: longer wires can only increase load and decrease the
// required time (testing/quick over lengths and loads).
func TestWireOpMonotone(t *testing.T) {
	tech := rc.Default035()
	wire := func(src *Curve, length int64) Solution {
		c := &Curve{}
		c.Wire(tech, []*Curve{src}, []int64{length}, -1, 0, func(*Solution) int32 { return 0 })
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
	out.Buffer(tech, c, []rc.Gate{g}, func(*Solution, int) int32 { return 0 })
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
