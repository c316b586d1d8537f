package core

import (
	"testing"

	"merlin/internal/order"
)

// TestRelaxedCaTree: with MaxInternalChildren = 2 the engine must (a) still
// produce consistent solutions whose realized orders stay in N(Π), and (b)
// do at least as well as the strict chain form — its space is a superset.
func TestRelaxedCaTree(t *testing.T) {
	nt, cands, lib, tech := testSetup(6, 123, 8)
	strict := exactOpts()
	strict.MaxSols = 6
	relaxed := strict
	relaxed.MaxInternalChildren = 2

	enS := NewEngine(nt, cands, lib, tech, strict)
	finS, err := enS.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	_, reqS, err := enS.Extract(finS, Goal{})
	if err != nil {
		t.Fatal(err)
	}

	enR := NewEngine(nt, cands, lib, tech, relaxed)
	finR, err := enR.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	solR, reqR, err := enR.Extract(finR, Goal{})
	if err != nil {
		t.Fatal(err)
	}
	if reqR < reqS-1e-9 {
		t.Fatalf("relaxed space (req %.6f) lost to strict chain (req %.6f)", reqR, reqS)
	}
	tr, err := enR.BuildTree(solR)
	if err != nil {
		t.Fatal(err)
	}
	realized := tr.SinkOrder()
	if !realized.Valid() || !order.InNeighborhood(order.Identity(nt.N()), realized) {
		t.Fatalf("relaxed realized order %v breaks the neighborhood property", realized)
	}
	// Solutions across the relaxed frontier keep tree/solution consistency.
	for _, sol := range finR.Sols {
		tr, err := enR.BuildTree(sol)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("strict req=%.6f relaxed req=%.6f", reqS, reqR)
}
