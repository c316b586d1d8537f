package curve

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sol(load, req, area float64) Solution { return Solution{Load: load, Req: req, Area: area} }

func TestDominates(t *testing.T) {
	a := sol(1, 10, 5)
	cases := []struct {
		b    Solution
		want bool
	}{
		{sol(1, 10, 5), true},   // equal dominates (Definition 6 uses ≤/≥)
		{sol(2, 9, 6), true},    // worse everywhere
		{sol(0.5, 9, 6), false}, // better load
		{sol(2, 11, 6), false},  // better req
		{sol(2, 9, 4), false},   // better area
	}
	for i, c := range cases {
		if got := a.Dominates(c.b); got != c.want {
			t.Errorf("case %d: Dominates = %v, want %v", i, got, c.want)
		}
	}
}

// randomCurve builds a solution list with deliberately many mutual
// dominations.
func randomCurve(rng *rand.Rand, n int) *Curve {
	c := &Curve{}
	for i := 0; i < n; i++ {
		c.Sols = append(c.Sols, sol(
			float64(rng.Intn(8))/10,
			float64(rng.Intn(8)),
			float64(rng.Intn(8)*100),
		))
	}
	return c
}

func sameFrontier(a, b *Curve) bool {
	if len(a.Sols) != len(b.Sols) {
		return false
	}
	for i := range a.Sols {
		x, y := a.Sols[i], b.Sols[i]
		if x.Load != y.Load || x.Req != y.Req || x.Area != y.Area {
			return false
		}
	}
	return true
}

// TestInsertMatchesBatch: incremental Insert must yield the same frontier as
// the O(s²) reference PruneNaive over the same solutions — the Lemma 9
// guarantee (pruning loses nothing).
func TestInsertMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(25)
		batch := &Curve{}
		inc := &Curve{}
		for i := 0; i < n; i++ {
			s := sol(float64(rng.Intn(6))/10, float64(rng.Intn(6)), float64(rng.Intn(6)*100))
			batch.Sols = append(batch.Sols, s)
			inc.Insert(s)
		}
		batch.PruneNaive()
		// Same frontier as sets (order may differ).
		if len(batch.Sols) != len(inc.Sols) {
			t.Fatalf("trial %d: incremental %d sols vs batch %d", trial, len(inc.Sols), len(batch.Sols))
		}
		inc2 := inc.Clone()
		inc2.Sort()
		if !sameFrontier(inc2, batch) {
			t.Fatalf("trial %d: frontiers differ: %v vs %v", trial, inc2.Sols, batch.Sols)
		}
	}
}

func TestInsertRejectsDominated(t *testing.T) {
	c := &Curve{}
	if !c.Empty() {
		t.Fatal("zero curve must be empty")
	}
	if c.Insert(sol(1, 10, 5)) != 1 || c.Empty() {
		t.Fatal("insert into empty must succeed")
	}
	if c.Insert(sol(1, 10, 5)) != 0 {
		t.Fatal("duplicate must be rejected")
	}
	if c.Insert(sol(2, 9, 6)) != 0 {
		t.Fatal("dominated must be rejected")
	}
	if c.Insert(sol(0.5, 11, 4)) != 1 {
		t.Fatal("dominating must be accepted")
	}
	if c.Len() != 1 {
		t.Fatalf("dominating insert must evict: len=%d", c.Len())
	}
	if n := c.Insert(sol(0.4, 12, 4), sol(0.3, 13, 3), sol(1, 1, 9)); n != 2 || c.Len() != 1 {
		t.Fatalf("batch insert admitted %d, left %v", n, c.Sols)
	}
}

func TestPruneKeepsNonInferior(t *testing.T) {
	// Three mutually non-inferior points along the trade-off.
	sols := []Solution{sol(0.1, 5, 1000), sol(0.2, 7, 2000), sol(0.3, 9, 3000)}
	c := &Curve{}
	if n := c.Insert(sols...); n != 3 || c.Len() != 3 {
		t.Fatalf("Insert admitted %d and kept %v, want all three", n, c.Sols)
	}
	ref := &Curve{Sols: sols}
	ref.PruneNaive()
	if ref.Len() != 3 {
		t.Fatalf("PruneNaive dropped non-inferior solutions: %v", ref.Sols)
	}
}

func TestCap(t *testing.T) {
	c := &Curve{}
	for i := 0; i < 20; i++ {
		c.Insert(sol(float64(i)/10, float64(i), float64(2000-i*100)))
	}
	c.Sort()
	bi, _ := c.BestReq()
	best := c.Sols[bi]
	c.Cap(5)
	if c.Len() > 5 {
		t.Fatalf("Cap left %d sols", c.Len())
	}
	ai, _ := c.BestReq()
	if after := c.Sols[ai]; after.Req != best.Req {
		t.Fatalf("Cap dropped the best-req solution: %v -> %v", best, after)
	}
	// Cap with zero or large max is the identity.
	n := c.Len()
	c.Cap(0)
	c.Cap(100)
	if c.Len() != n {
		t.Fatal("no-op Cap changed the curve")
	}
	// A cap of one keeps the best-required-time solution alone.
	c.Cap(1)
	if c.Len() != 1 || c.Sols[0] != best {
		t.Fatalf("Cap(1) left %v, want [%v]", c.Sols, best)
	}
}

func TestSelectors(t *testing.T) {
	c := &Curve{}
	if _, ok := c.BestReq(); ok {
		t.Fatal("BestReq on empty must report !ok")
	}
	c.Sols = []Solution{sol(0.1, 5, 3000), sol(0.2, 9, 9000), sol(0.3, 9, 2000), sol(0.1, 9, 2000)}
	best, ok := c.BestReq()
	if !ok || best != 3 {
		t.Fatalf("BestReq = %d, want 3: the max req with the smaller area, then load", best)
	}
}

// TestFrontierMutualNonDomination: in the reference frontier no solution
// dominates another (identical copies are collapsed).
func TestFrontierMutualNonDomination(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCurve(rng, 1+rng.Intn(25))
		c.PruneNaive()
		for i, a := range c.Sols {
			for j, b := range c.Sols {
				if i != j && a.Dominates(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := &Curve{Sols: []Solution{sol(1, 2, 3)}}
	d := c.Clone()
	d.Sols[0].Req = 99
	if c.Sols[0].Req != 2 {
		t.Fatal("Clone must not share solution storage")
	}
}
