package core

import (
	"errors"
	"slices"
	"testing"

	"merlin/internal/curve"
	"merlin/internal/order"
)

// TestCellTableHoldsOneCell: a construct computes triples alone, so right
// after a cold one the reconstruction table holds no record, kept or
// provisional, and no working curve holds a handle. Every cell resets the
// table, so after a solve and its tree rebuilds, whose replayed cells write
// records, the table holds at most one cell's records, and a cell run twice
// in recording mode leaves the records of one run. A cell keeps, per
// candidate, at most MaxSols survivors of its raw pass and of each buffer
// pass, two per transfer hop and one more pair before it.
func TestCellTableHoldsOneCell(t *testing.T) {
	en := robustEngine(t, 8, 3, Budget{})
	if _, err := en.Construct(order.Identity(en.Net.N())); err != nil {
		t.Fatal(err)
	}
	// Add hands out handle ^0 only into an empty provisional region.
	if kept, next := en.refs.Len(), en.refs.Add(ref{}); kept != 0 || next != ^int32(0) {
		t.Fatalf("a cold construct left %d kept records, and the next provisional handle is %d, not %d", kept, next, ^int32(0))
	}
	en.refs.Reset()
	for _, cs := range [][]curve.Curve{en.cur, en.pre, {en.scratch, en.base}} {
		for p := range cs {
			if len(cs[p].Refs) != 0 {
				t.Fatalf("a cold construct left %d handles in a working curve", len(cs[p].Refs))
			}
		}
	}

	if _, err := en.Merlin(nil); err != nil {
		t.Fatal(err)
	}
	k, o := len(en.Cands), en.Opts
	bound := 2 * (1 + o.TransferHops) * k * o.MaxSols
	stored := 0
	for i := range en.memo {
		stored += len(en.memo[i].sols)
	}
	if en.refs.Len() > bound {
		t.Fatalf("table holds %d records after the solve, more than one cell's %d", en.refs.Len(), bound)
	}
	if stored <= 10*bound {
		t.Fatalf("the memo stores only %d solutions; the net is too small to tell a per-cell table from a kept one", stored)
	}
	t.Logf("%d records in the table, cell bound %d, %d stored solutions", en.refs.Len(), bound, stored)

	// Each kind of cell starts from an empty table: running one twice
	// leaves the same records.
	n := en.Net.N()
	en.g = appendSinkSet(en.g[:0], n-1, n, Chi0)
	en.scanCalls(n, n-1, n)
	for i := range en.calls {
		en.items = en.callItems(en.items[:0], en.ord, i)
		en.calls[i].final = en.finalID(en.items)
	}
	items := en.callItems(nil, en.ord, 0)
	ids := en.intervalIDs(items)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"leaf", func() { en.leafCell(0, true) }},
		{"interval", func() { en.intervalCell(items, ids, 0, len(items)-1, -1, true) }},
		{"gamma", func() { en.gammaCell(-1, true) }},
	} {
		c.run()
		once := en.refs.Len()
		c.run()
		if en.refs.Len() != once || once == 0 || once > bound {
			t.Errorf("%s cell: %d records after one run, %d after two (bound %d)", c.name, once, en.refs.Len(), bound)
		}
	}
}

// TestReplayDetectsAlteredCurves: a replayed cell must reproduce its stored
// curve triple for triple. Altering one stored solution of the final curve
// makes BuildTree fail with ErrInternal; altering any other memo entry makes
// it fail the same way or, when no replayed cell reads the entry or the
// change does not reach a survivor, rebuild the same tree. Some entries
// below the final curve must fail, so the check runs in every replayed cell,
// not only at the root. The alterations write the stored blocks themselves:
// the final curve Construct returns reads its block in place.
func TestReplayDetectsAlteredCurves(t *testing.T) {
	nt, cands, lib, tech := testSetup(5, 11, 7)
	opts := exactOpts()
	opts.MaxSols = 4
	en := NewEngine(nt, cands, lib, tech, opts)
	final, err := en.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	src := en.SourceIndex()
	sol, _, err := en.Extract(final, Goal{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := en.BuildTree(sol)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func() error {
		clear(en.trees)
		tr, err := en.BuildTree(sol)
		if err == nil && tr.String() != want.String() {
			t.Fatalf("rebuilt tree\n%s\nwant\n%s", tr, want)
		}
		return err
	}

	sols := final.Sols
	if len(sols) < 2 {
		t.Fatalf("source curve has %d solutions; need another one to alter", len(sols))
	}
	finalID := en.gamma[nt.N()-1][Chi0][nt.N()-1]
	if &sols[0] != &en.memo[finalID].at(src)[0] {
		t.Fatal("Construct's final curve at the source is a copy, not the stored block")
	}
	j := (slices.Index(sols, sol) + 1) % len(sols)
	sols[j].Req += 1
	if err := rebuild(); !errors.Is(err, ErrInternal) {
		t.Fatalf("altered final curve: BuildTree err = %v, want ErrInternal", err)
	}
	sols[j].Req -= 1
	if err := rebuild(); err != nil {
		t.Fatalf("restored final curve: %v", err)
	}

	caught := 0
	for id := range en.memo {
		e := &en.memo[id]
		if !e.stored() || int32(id) == finalID {
			continue
		}
		alter := func(by float64) {
			for p := range en.Cands {
				if l := e.at(p); len(l) > 0 {
					l[0].Req += by
				}
			}
		}
		alter(1)
		err := rebuild()
		alter(-1)
		switch {
		case errors.Is(err, ErrInternal):
			caught++
		case err != nil:
			t.Fatalf("memo id %d altered: %v", id, err)
		}
	}
	if caught == 0 {
		t.Fatal("no altered memo entry below the final curve was caught")
	}
	t.Logf("%d altered memo entries below the final curve caught", caught)
}
