package curve

import (
	"math/rand"
	"slices"
	"testing"
)

// insertRef is the kernel's insert as one fused scan: it tests both
// directions of dominance on every stored solution, oldest first. It is the
// reference for the order the kernel leaves a curve in, which Cap reads to
// break required-time ties. The brute-force tests in kernel_test.go compare
// curves as sets, so only this reference pins the order: the two-scan insert
// and every operator must leave exactly the solutions, handles and order
// that insertRef does.
func (c *Curve) insertRef(s Solution) bool {
	sols := c.Sols
	firstDead := -1
	for i := range sols {
		t := &sols[i]
		if t.Load <= s.Load && t.Req >= s.Req && t.Area <= s.Area {
			return false
		}
		if firstDead < 0 && s.Load <= t.Load && s.Req >= t.Req && s.Area <= t.Area {
			firstDead = i
		}
	}
	if firstDead >= 0 {
		out := sols[:firstDead]
		for _, t := range sols[firstDead+1:] {
			if !s.Dominates(t) {
				out = append(out, t)
			}
		}
		sols = out
	}
	c.Sols = append(sols, s)
	assertInserted(c, "insertRef")
	return true
}

// refInserted is the order oracle for an operator: insertRef applied to the
// target's solutions and then to the operator's produced candidates, in
// operator order.
func refInserted(target *Curve, produced []Solution) *Curve {
	c := &Curve{}
	for _, s := range target.Sols {
		c.insertRef(s)
	}
	for _, s := range produced {
		c.insertRef(s)
	}
	return c
}

// checkSameOrder compares two curves element for element: triples, handles
// and order.
func checkSameOrder(t *testing.T, what string, got, want *Curve) {
	t.Helper()
	if !slices.Equal(got.Sols, want.Sols) {
		t.Fatalf("%s: kernel left\n %v handles %v\nthe reference insert\n %v handles %v", what, got.Sols, refsOf(got), want.Sols, refsOf(want))
	}
}

// TestInsertMatchesReference feeds random grid streams, where duplicates and
// dominations are common, to Insert and to insertRef, and requires the same
// decision and the same curve, element for element, after every insert.
func TestInsertMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	evictions := 0
	for trial := 0; trial < 2000; trial++ {
		stream := gridCurve(rng, 1+rng.Intn(60), 0).Sols
		got, want := &Curve{}, &Curve{}
		for i, s := range stream {
			before := want.Len()
			admitted := got.Insert(s) == 1
			if admitted != want.insertRef(s) {
				t.Fatalf("trial %d insert %d %v: kernel admitted=%v, reference %v", trial, i, s, admitted, !admitted)
			}
			if admitted && want.Len() <= before {
				evictions++
			}
			checkSameOrder(t, "Insert", got, want)
		}
	}
	if evictions < 1000 {
		t.Fatalf("only %d inserts evicted anything", evictions)
	}
}
