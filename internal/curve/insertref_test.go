package curve

import (
	"math/rand"
	"slices"
	"testing"
)

// fusedInsert is the kernel's insert as one fused scan: it tests both
// directions of dominance on every stored solution, oldest first, and moves
// each handle with its solution. It is the reference for the order the
// kernel leaves a curve in, which Cap reads to break required-time ties.
// The brute-force tests in kernel_test.go compare curves as sets, so only
// this reference pins the order: the two-scan insert and every operator
// must leave exactly the solutions, handles and order that fusedInsert does.
func (c *Curve) fusedInsert(s Solution, h int32) bool {
	sols, refs := c.Sols, c.Refs
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
		out, outRefs := sols[:firstDead], refs[:firstDead]
		for i := firstDead + 1; i < len(sols); i++ {
			if !s.Dominates(sols[i]) {
				out, outRefs = append(out, sols[i]), append(outRefs, refs[i])
			}
		}
		sols, refs = out, outRefs
	}
	c.Sols, c.Refs = append(sols, s), append(refs, h)
	return true
}

// refInserted is the order oracle for an operator: fusedInsert applied to
// the target's solutions and then to the operator's produced candidates, in
// operator order.
func refInserted(target, produced *Curve) *Curve {
	c := &Curve{}
	for _, from := range []*Curve{target, produced} {
		for i, s := range from.Sols {
			c.fusedInsert(s, from.Refs[i])
		}
	}
	return c
}

// checkSameOrder compares two curves element for element: triples, handles
// and order.
func checkSameOrder(t *testing.T, what string, got, want *Curve) {
	t.Helper()
	if !slices.Equal(got.Sols, want.Sols) || !slices.Equal(got.Refs, want.Refs) {
		t.Fatalf("%s: kernel left\n %v handles %v\nthe reference insert\n %v handles %v", what, got.Sols, got.Refs, want.Sols, want.Refs)
	}
}

// TestInsertMatchesReference feeds random grid streams, where duplicates and
// dominations are common, to InsertRef, to Insert, to InsertRef with a nil
// ref and to fusedInsert, and requires the same decision and the same curve,
// element for element, after every insert: with handles through InsertRef,
// and as triples alone, with no handle, through Insert and the nil ref.
func TestInsertMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	evictions := 0
	for trial := 0; trial < 2000; trial++ {
		stream := gridCurve(rng, 1+rng.Intn(60), 0)
		got, bare, nilRef, want := &Curve{}, &Curve{}, &Curve{}, &Curve{}
		for i, s := range stream.Sols {
			before := want.Len()
			admitted := got.InsertRef(s, func() int32 { return stream.Refs[i] })
			if admitted != want.fusedInsert(s, stream.Refs[i]) || admitted != (bare.Insert(s) == 1) || admitted != nilRef.InsertRef(s, nil) {
				t.Fatalf("trial %d insert %d %v: kernel admitted=%v, reference %v", trial, i, s, admitted, !admitted)
			}
			if admitted && want.Len() <= before {
				evictions++
			}
			checkSameOrder(t, "InsertRef", got, want)
			for _, c := range []struct {
				what string
				c    *Curve
			}{{"Insert", bare}, {"InsertRef with a nil ref", nilRef}} {
				if !slices.Equal(c.c.Sols, want.Sols) || len(c.c.Refs) != 0 {
					t.Fatalf("%s: kernel left\n %v handles %v\nthe reference insert\n %v", c.what, c.c.Sols, c.c.Refs, want.Sols)
				}
			}
		}
	}
	if evictions < 1000 {
		t.Fatalf("only %d inserts evicted anything", evictions)
	}
}
