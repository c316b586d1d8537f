package curve

import (
	"fmt"
	"strings"
	"testing"
)

// corruptedFrontier returns a curve violating Definition 6: the second
// solution is inferior to the first (same load, worse req, worse area). No
// kernel operation can produce this state — it models a regression in the
// insert logic, or a caller that sorts a curve the kernel did not build.
func corruptedFrontier() *Curve {
	return &Curve{Sols: []Solution{
		{Load: 1, Req: 10, Area: 5},
		{Load: 1, Req: 9, Area: 6},
	}}
}

// TestCorruptedFrontierDetection is the invariant layer's regression proof,
// run in BOTH build modes (`go test` and `go test -tags merlin_invariants`):
// the insert assertion, handed a curve whose last (just-inserted) solution
// is inferior to a kept one — the state a buggy insert would leave — and
// Sort, handed the same inferior curve, must panic under the tag and pass
// silently without it, demonstrating both that the assertions really detect
// Definition 6 violations and that the production no-op mirrors cost
// nothing.
func TestCorruptedFrontierDetection(t *testing.T) {
	for _, op := range []struct {
		name string
		run  func(*Curve)
	}{
		{"insert", func(c *Curve) { assertInserted(c, "insert") }},
		{"Sort", (*Curve).Sort},
	} {
		corrupted := corruptedFrontier()
		panicked := func() (p any) {
			defer func() { p = recover() }()
			op.run(corrupted)
			return nil
		}()

		if InvariantsEnabled {
			if panicked == nil {
				t.Fatalf("merlin_invariants build: %s on an inferior curve did not panic", op.name)
			}
			msg := fmt.Sprint(panicked)
			if !strings.Contains(msg, "inferior") {
				t.Errorf("%s: panic message does not name the dominance violation: %s", op.name, msg)
			}
		} else {
			if panicked != nil {
				t.Fatalf("production build: %s: invariant assertion fired without the tag: %v", op.name, panicked)
			}
			// The assertion stayed silent; the (test-only) full checker can
			// still prove the frontier is broken.
			if err := corrupted.CheckFrontier(false); err == nil {
				t.Fatalf("production build: %s: frontier not actually corrupted — test scenario is wrong", op.name)
			}
		}
	}
}

// TestCheckFrontier pins the checker itself (it is the oracle the assertion
// layer panics on, so it must be right in both build modes).
func TestCheckFrontier(t *testing.T) {
	good := &Curve{Sols: []Solution{
		{Load: 1, Req: 5, Area: 9},
		{Load: 2, Req: 7, Area: 4},
		{Load: 3, Req: 9, Area: 1},
	}}
	if err := good.CheckFrontier(true); err != nil {
		t.Errorf("valid sorted frontier rejected: %v", err)
	}

	if err := corruptedFrontier().CheckFrontier(false); err == nil {
		t.Error("dominance violation not detected")
	} else if !strings.Contains(err.Error(), "inferior") {
		t.Errorf("wrong error for dominance violation: %v", err)
	}

	dup := &Curve{Sols: []Solution{{Load: 1, Req: 5, Area: 2}, {Load: 1, Req: 5, Area: 2}}}
	if err := dup.CheckFrontier(false); err == nil {
		t.Error("duplicate triple not detected")
	}

	unsorted := &Curve{Sols: []Solution{
		{Load: 2, Req: 7, Area: 4},
		{Load: 1, Req: 5, Area: 9},
	}}
	if err := unsorted.CheckFrontier(true); err == nil {
		t.Error("sort violation not detected with requireSorted")
	}
	if err := unsorted.CheckFrontier(false); err != nil {
		t.Errorf("sort order wrongly demanded without requireSorted: %v", err)
	}

	nan := &Curve{Sols: []Solution{{Load: 1, Req: nanf(), Area: 2}}}
	if err := nan.CheckFrontier(false); err == nil {
		t.Error("NaN coordinate not detected")
	}
}

func nanf() float64 {
	z := 0.0
	return z / z
}

// TestBufferRejectsAliasedSource: Buffer rewrites its target in place, so a
// source that is the target's own list must trip the assertion layer.
func TestBufferRejectsAliasedSource(t *testing.T) {
	if !InvariantsEnabled {
		t.Skip("the aliasing assertion is compiled in only with -tags merlin_invariants")
	}
	c := &Curve{Sols: []Solution{{Load: 0.5, Req: 5, Area: 0}}}
	msg := func() (p any) {
		defer func() { p = recover() }()
		c.Buffer(kernelTech, c.Sols, kernelGates, func(int, int) int32 { return 0 })
		return nil
	}()
	if !strings.Contains(fmt.Sprint(msg), "source list is the target's") {
		t.Fatalf("Buffer with its target as source: got panic %v, want the aliasing assertion", msg)
	}
}
