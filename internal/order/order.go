// Package order implements sink orders Π (Definition 3 of the paper), the
// swap operation (Definition 5), the order neighborhood
//
//	N(Π) = { Π' : |Π(i) − Π'(i)| ≤ 1 for every sink i }      (Definition 4)
//
// together with its exact size (Theorem 1: a Fibonacci number), plus the
// sink-ordering heuristics the experiments need: the TSP order of [LCLH96]
// (nearest-neighbor seeded, 2-opt improved) and required-time order.
package order

import (
	"fmt"
	"math/rand"
	"sort"

	"merlin/internal/geom"
)

// Order is a permutation of sink identities: Order[pos] = sink index at that
// position (the paper's Π⁻¹ presentation, "(s_4, s_3, …)" in Example 1).
// Positions and sink indices are both 0-based here.
type Order []int

// Identity returns the identity order of n sinks.
func Identity(n int) Order {
	o := make(Order, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// Valid reports whether o is a permutation of 0..len(o)-1.
func (o Order) Valid() bool {
	seen := make([]bool, len(o))
	for _, v := range o {
		if v < 0 || v >= len(o) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Clone returns a copy of o.
func (o Order) Clone() Order {
	c := make(Order, len(o))
	copy(c, o)
	return c
}

// Equal reports whether two orders are identical.
func (o Order) Equal(p Order) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Positions returns the inverse view Π: Positions()[sink] = position of that
// sink in the order.
func (o Order) Positions() []int {
	pos := make([]int, len(o))
	for p, s := range o {
		pos[s] = p
	}
	return pos
}

// String renders the order in the paper's tuple form.
func (o Order) String() string {
	s := "("
	for i, v := range o {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("s%d", v+1)
	}
	return s + ")"
}

// InNeighborhood reports whether p ∈ N(o) per Definition 4: every sink's
// position differs by at most one between the two orders.
func InNeighborhood(o, p Order) bool {
	if len(o) != len(p) {
		return false
	}
	po, pp := o.Positions(), p.Positions()
	for s := range po {
		d := po[s] - pp[s]
		if d < -1 || d > 1 {
			return false
		}
	}
	return true
}

// Neighborhood enumerates N(o) exactly, including o itself. Per Lemma 4
// every member arises from a set of non-overlapping adjacent swaps, so the
// enumeration walks positions left to right choosing "keep" or "swap with the
// next". The result has Fib(n+2) members (Theorem 1).
func Neighborhood(o Order) []Order {
	var out []Order
	cur := o.Clone()
	var rec func(pos int)
	rec = func(pos int) {
		if pos >= len(o)-1 {
			out = append(out, cur.Clone())
			return
		}
		rec(pos + 1)
		cur[pos], cur[pos+1] = cur[pos+1], cur[pos]
		rec(pos + 2)
		cur[pos], cur[pos+1] = cur[pos+1], cur[pos]
	}
	if len(o) == 0 {
		return []Order{{}}
	}
	rec(0)
	return out
}

// NeighborhoodSize returns |N(Π)| for n sinks. Members of N(Π) are exactly
// the sets of non-overlapping adjacent swaps (Lemma 4), i.e. tilings of a
// 1×n strip with monominoes (keep) and dominoes (swap): T(0)=T(1)=1,
// T(n)=T(n-1)+T(n-2), the Fibonacci number F(n+1) in the F(1)=F(2)=1
// convention. Theorem 1 prints the Binet form with exponent n+2, an
// off-by-one in the paper — exhaustive enumeration (TestTheorem1) confirms
// F(n+1); the count is exponential either way, which is all the theorem is
// used for.
func NeighborhoodSize(n int) uint64 {
	if n <= 0 {
		return 1
	}
	a, b := uint64(1), uint64(1) // T(0)=1, T(1)=1
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

// NeighborhoodSizeBinet evaluates the corrected closed form
// (φ^(n+1) − ψ^(n+1))/√5 with integer rounding. It exists so tests can
// confirm the closed form agrees with the recurrence and the enumeration.
func NeighborhoodSizeBinet(n int) uint64 {
	const sqrt5 = 2.23606797749978969640917366873
	const phi = (1 + sqrt5) / 2
	const psi = (1 - sqrt5) / 2
	pow := func(x float64, k int) float64 {
		r := 1.0
		for i := 0; i < k; i++ {
			r *= x
		}
		return r
	}
	v := (pow(phi, n+1) - pow(psi, n+1)) / sqrt5
	return uint64(v + 0.5)
}

// NonOverlappingSwaps decomposes p ∈ N(o) into the unique set of
// non-overlapping swap positions that transform o into p (Lemma 4). The
// second return is false if p is not in N(o).
func NonOverlappingSwaps(o, p Order) ([]int, bool) {
	if len(o) != len(p) {
		return nil, false
	}
	var swaps []int
	for i := 0; i < len(o); {
		switch {
		case o[i] == p[i]:
			i++
		case i+1 < len(o) && o[i] == p[i+1] && o[i+1] == p[i]:
			swaps = append(swaps, i)
			i += 2
		default:
			return nil, false
		}
	}
	return swaps, true
}

// RandomNeighbor returns a uniformly structured random member of N(o): each
// position independently chooses swap/keep left to right with probability
// pSwap, which is the standard perturbation MERLIN's convergence experiments
// use to generate start points near a reference order.
func RandomNeighbor(o Order, pSwap float64, rng *rand.Rand) Order {
	c := o.Clone()
	for i := 0; i+1 < len(c); i++ {
		if rng.Float64() < pSwap {
			c[i], c[i+1] = c[i+1], c[i]
			i++ // swaps must not overlap
		}
	}
	return c
}

// ByRequiredTime returns sink indices sorted by increasing required time
// (most critical first), the order LTTREE consumes in Flow I.
func ByRequiredTime(req []float64) Order {
	o := Identity(len(req))
	sort.SliceStable(o, func(i, j int) bool { return req[o[i]] < req[o[j]] })
	return o
}

// TSP returns a short traveling-salesman-style tour over the sink positions,
// starting from the sink nearest the source: nearest-neighbor construction
// followed by 2-opt improvement. [LCLH96] suggests a TSP order as the P-Tree
// input order; the paper uses the same for all three flows.
func TSP(source geom.Point, sinks []geom.Point) Order {
	n := len(sinks)
	if n == 0 {
		return Order{}
	}
	visited := make([]bool, n)
	o := make(Order, 0, n)
	cur := source
	for len(o) < n {
		best, bestD := -1, int64(0)
		for i, p := range sinks {
			if visited[i] {
				continue
			}
			d := geom.Dist(cur, p)
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		visited[best] = true
		o = append(o, best)
		cur = sinks[best]
	}
	twoOpt(o, source, sinks)
	return o
}

// twoOpt improves a path (not a cycle) by reversing segments while the total
// path length decreases. The path implicitly starts at source.
func twoOpt(o Order, source geom.Point, sinks []geom.Point) {
	n := len(o)
	if n < 3 {
		return
	}
	at := func(i int) geom.Point {
		if i < 0 {
			return source
		}
		return sinks[o[i]]
	}
	improved := true
	for improved {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				// Reverse o[i..j]: edges (i-1,i) and (j,j+1) are replaced by
				// (i-1,j) and (i,j+1). The path end has no successor edge.
				before := geom.Dist(at(i-1), at(i))
				after := geom.Dist(at(i-1), at(j))
				if j+1 < n {
					before += geom.Dist(at(j), at(j+1))
					after += geom.Dist(at(i), at(j+1))
				}
				if after < before {
					for a, b := i, j; a < b; a, b = a+1, b-1 {
						o[a], o[b] = o[b], o[a]
					}
					improved = true
				}
			}
		}
	}
}
