package curve

import (
	"fmt"
	"strings"
	"testing"
)

// testRec is a record that names the solution it was built for.
type testRec struct{ id int32 }

// panicOf returns the message f panics with, or "" if it returns.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestRefsSeal: after kernel ops, Cap and Seal, the kept region holds exactly
// the records of the curve's surviving provisional solutions, in curve
// order; solutions that already held kept handles keep them; the
// provisional region is empty; handles kept earlier still resolve across a
// chunk boundary; and a provisional handle fails loudly instead of
// resolving.
func TestRefsSeal(t *testing.T) {
	var refs Refs[testRec]
	// Fill the kept region to just short of a chunk boundary, so the seal
	// below crosses it.
	const pre = refChunk - 2
	for i := int32(0); i < pre; i++ {
		if h := refs.Keep(testRec{i}); h != i {
			t.Fatalf("Keep #%d returned handle %d", i, h)
		}
	}

	// Every input solution holds a kept handle. The target's lone solution
	// has the least load and survives; the five joins form a staircase of
	// rising load and required time; the wired and buffered solutions add
	// area for more required time. Cap then drops some of each.
	c := &Curve{Sols: []Solution{{Load: 0.05, Req: 0.5, Area: 0}}, Refs: []int32{0}}
	a, b := &Curve{}, &Curve{Sols: []Solution{{Load: 0.1, Req: 10, Area: 0}}, Refs: []int32{200}}
	for i := range 5 {
		a.Sols = append(a.Sols, Solution{Load: 0.1 * float64(i+1), Req: float64(i + 1), Area: 0})
		a.Refs = append(a.Refs, int32(100+i))
	}
	src := &Curve{Sols: []Solution{{Load: 0.01, Req: 20, Area: 0}}, Refs: []int32{300}}
	base := &Curve{Sols: []Solution{{Load: 0.3, Req: 30, Area: 0}}, Refs: []int32{400}}
	added := map[int32]testRec{}
	add := func(id int32) int32 {
		rec := testRec{id}
		h := refs.Add(rec)
		if h >= 0 {
			t.Fatalf("Add returned kept-looking handle %d", h)
		}
		added[h] = rec
		return h
	}
	c.Join(a.Sols, b.Sols, func(i, j int) int32 { return add(joinHandle(a.Refs[i], b.Refs[j])) })
	c.Wire(kernelTech, [][]Solution{src.Sols}, []Solution{Corner(src.Sols)}, []int64{200}, -1, 0.5, func(q, i int) int32 { return add(viaHandle(src.Refs[i])) })
	c.Buffer(kernelTech, base.Sols, kernelGates, func(i, gi int) int32 { return add(bufHandle(base.Refs[i], gi)) })
	if len(added) == 0 {
		t.Fatal("no provisional records: the scenario exercises nothing")
	}
	c.Cap(6)
	before := c.Clone()
	refs.Seal(c)

	next := int32(pre)
	kept, stayed := 0, 0
	for i, s := range c.Sols {
		old, oldRef, h := before.Sols[i], before.Refs[i], c.Refs[i]
		if s != old {
			t.Fatalf("Seal moved solution %d: %v -> %v", i, old, s)
		}
		if oldRef >= 0 {
			if h != oldRef {
				t.Fatalf("solution %d: Seal rewrote kept handle %d to %d", i, oldRef, h)
			}
			stayed++
			continue
		}
		kept++
		if h != next {
			t.Fatalf("solution %d: sealed to handle %d, want %d (kept records follow curve order)", i, h, next)
		}
		if got, want := refs.At(h), added[oldRef]; got != want {
			t.Fatalf("solution %d: sealed record %v, want the record added for it, %v", i, got, want)
		}
		next++
	}
	if kept < 3 || stayed == 0 || len(added) <= kept {
		t.Fatalf("%d of %d provisional solutions and %d kept ones survived Cap: the scenario must keep some of each and drop some provisional ones", kept, len(added), stayed)
	}
	if refs.Len() != int(next) {
		t.Fatalf("kept region holds %d records, want %d: %d before the seal plus the %d provisional survivors", refs.Len(), next, pre, kept)
	}
	if refs.Len() <= refChunk {
		t.Fatalf("kept region of %d records does not cross the %d-record chunk boundary", refs.Len(), refChunk)
	}
	if len(refs.prov) != 0 {
		t.Fatalf("provisional region holds %d records after Seal", len(refs.prov))
	}
	for h := int32(0); h < pre; h++ {
		if got := refs.At(h); got.id != h {
			t.Fatalf("handle %d resolves to %v after the seal, want id %d", h, got, h)
		}
	}
	for h := range added {
		if msg := panicOf(func() { refs.At(h) }); !strings.Contains(msg, "provisional") {
			t.Fatalf("provisional handle %d: At panicked with %q, want a provisional-handle failure", h, msg)
		}
	}
	if msg := panicOf(func() { refs.At(int32(refs.Len())) }); !strings.Contains(msg, "out of range") {
		t.Fatalf("handle past the end: At panicked with %q, want an out-of-range failure", msg)
	}

	refs.Reset()
	if refs.Len() != 0 || len(refs.prov) != 0 {
		t.Fatalf("Reset left %d kept and %d provisional records", refs.Len(), len(refs.prov))
	}
	if h := refs.Keep(testRec{7}); h != 0 || refs.At(0).id != 7 {
		t.Fatalf("first Keep after Reset returned handle %d", h)
	}
}
