package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"merlin/internal/geom"
)

func TestIdentityAndValid(t *testing.T) {
	o := Identity(5)
	if !o.Valid() {
		t.Fatal("identity must be valid")
	}
	bad := Order{0, 0, 2}
	if bad.Valid() {
		t.Fatal("duplicate entries must be invalid")
	}
	oob := Order{0, 3}
	if oob.Valid() {
		t.Fatal("out-of-range entries must be invalid")
	}
	if !(Order{}).Valid() {
		t.Fatal("empty order is a valid permutation of nothing")
	}
}

func TestPositionsInverse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		o := Order(rng.Perm(n))
		pos := o.Positions()
		for p, s := range o {
			if pos[s] != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTheorem1 is experiment E3: exhaustive neighborhood enumeration equals
// the Fibonacci count. Note the paper's closed form prints exponent n+2 —
// enumeration shows the correct exponent is n+1 (see order.NeighborhoodSize
// docs); the count is exponential either way.
func TestTheorem1(t *testing.T) {
	want := []uint64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181}
	for n := 0; n <= 18; n++ {
		if got := NeighborhoodSize(n); got != want[n] {
			t.Errorf("NeighborhoodSize(%d) = %d, want %d", n, got, want[n])
		}
		if got := NeighborhoodSizeBinet(n); got != want[n] {
			t.Errorf("NeighborhoodSizeBinet(%d) = %d, want %d", n, got, want[n])
		}
	}
	for n := 1; n <= 12; n++ {
		nb := Neighborhood(Identity(n))
		if uint64(len(nb)) != want[n] {
			t.Errorf("enumerated |N(Π)| for n=%d is %d, want %d", n, len(nb), want[n])
		}
	}
}

func TestNeighborhoodMembersValidAndDistinct(t *testing.T) {
	o := Order{2, 0, 3, 1, 4}
	nb := Neighborhood(o)
	seen := map[string]bool{}
	for _, p := range nb {
		if !p.Valid() {
			t.Fatalf("neighbor %v is not a permutation", p)
		}
		if !InNeighborhood(o, p) || !InNeighborhood(p, o) {
			t.Fatalf("neighbor %v fails Definition 4 (symmetry included)", p)
		}
		key := p.String()
		if seen[key] {
			t.Fatalf("duplicate neighbor %v", p)
		}
		seen[key] = true
	}
	// o itself is in N(o) (identity tiling).
	if !seen[o.String()] {
		t.Fatal("o must be in its own neighborhood")
	}
}

func TestInNeighborhoodRejectsFar(t *testing.T) {
	o := Identity(4)
	far := Order{2, 1, 0, 3} // element 0 moved by 2
	if InNeighborhood(o, far) {
		t.Fatal("position shift of 2 must not be in the neighborhood")
	}
	if InNeighborhood(Identity(3), Identity(4)) {
		t.Fatal("length mismatch must be rejected")
	}
}

// TestLemma4 round-trips neighborhood members through their unique
// non-overlapping swap decomposition.
func TestLemma4(t *testing.T) {
	o := Order{1, 3, 0, 2, 4, 5}
	for _, p := range Neighborhood(o) {
		swaps, ok := NonOverlappingSwaps(o, p)
		if !ok {
			t.Fatalf("neighbor %v has no swap decomposition", p)
		}
		// Swaps must be non-overlapping and reconstruct p.
		q := o.Clone()
		last := -2
		for _, s := range swaps {
			if s <= last+1 {
				t.Fatalf("overlapping swaps %v", swaps)
			}
			last = s
			q[s], q[s+1] = q[s+1], q[s]
		}
		if !q.Equal(p) {
			t.Fatalf("swap decomposition %v does not rebuild %v", swaps, p)
		}
	}
	// A non-neighbor must be rejected.
	if _, ok := NonOverlappingSwaps(Identity(3), Order{2, 1, 0}); ok {
		t.Fatal("non-neighbor accepted")
	}
}

func TestRandomNeighborStaysInNeighborhood(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := Order(rng.Perm(10))
	for i := 0; i < 500; i++ {
		p := RandomNeighbor(o, 0.5, rng)
		if !p.Valid() || !InNeighborhood(o, p) {
			t.Fatalf("RandomNeighbor produced %v outside N(%v)", p, o)
		}
	}
	if !RandomNeighbor(o, 0, rng).Equal(o) {
		t.Fatal("pSwap=0 must return the order unchanged")
	}
}

func TestByRequiredTime(t *testing.T) {
	req := []float64{5.0, 1.0, 3.0, 1.0}
	o := ByRequiredTime(req)
	for i := 1; i < len(o); i++ {
		if req[o[i-1]] > req[o[i]] {
			t.Fatalf("not sorted by required time: %v", o)
		}
	}
	// Stability: equal keys keep index order.
	if o[0] != 1 || o[1] != 3 {
		t.Fatalf("expected stable sort, got %v", o)
	}
}

func pathLen(src geom.Point, sinks []geom.Point, o Order) int64 {
	cur := src
	var total int64
	for _, i := range o {
		total += geom.Dist(cur, sinks[i])
		cur = sinks[i]
	}
	return total
}

func TestTSP(t *testing.T) {
	src := geom.Point{X: 0, Y: 0}
	sinks := []geom.Point{{X: 100, Y: 0}, {X: 0, Y: 100}, {X: 50, Y: 50}, {X: 200, Y: 200}, {X: 10, Y: 10}}
	o := TSP(src, sinks)
	if !o.Valid() || len(o) != len(sinks) {
		t.Fatalf("TSP order invalid: %v", o)
	}
	// 2-opt must not be worse than the trivially bad reverse-distance order.
	worst := Order{3, 4, 0, 1, 2}
	if pathLen(src, sinks, o) > pathLen(src, sinks, worst) {
		t.Errorf("TSP path %d longer than a naive order %d", pathLen(src, sinks, o), pathLen(src, sinks, worst))
	}
	if len(TSP(src, nil)) != 0 {
		t.Fatal("TSP of no sinks must be empty")
	}
}

// TestTSPIsLocal2OptOptimal: no single segment reversal improves the tour.
func TestTSPIsLocal2OptOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8)
		sinks := make([]geom.Point, n)
		for i := range sinks {
			sinks[i] = geom.Point{X: rng.Int63n(1000), Y: rng.Int63n(1000)}
		}
		src := geom.Point{X: 0, Y: 0}
		o := TSP(src, sinks)
		base := pathLen(src, sinks, o)
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				r := o.Clone()
				for a, b := i, j; a < b; a, b = a+1, b-1 {
					r[a], r[b] = r[b], r[a]
				}
				if pathLen(src, sinks, r) < base {
					t.Fatalf("trial %d: reversal [%d,%d] improves the TSP path", trial, i, j)
				}
			}
		}
	}
}
