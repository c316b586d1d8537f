package core

import (
	"fmt"
	"slices"

	"merlin/internal/curve"
	"merlin/internal/tree"
)

// Reconstruction by replay. A cell is the unit of work that stores one memo
// entry: an INITIALIZATION sub-problem (leafCell), one *PTREE interval
// (intervalCell) or one Γ accumulation (gammaCell). A cell writes the
// records of its curves into the engine's one table and resets it when it
// starts, so no record outlives its cell; it stores its curves' triples
// alone, and stored solutions are named by position, (memo id, candidate,
// index). Every stored list is a deterministic function of its inputs
// (Lemma 7), so BuildTree rebuilds a solution by running the cells its tree
// touches again, with the same code, and following the records each
// replayed cell writes.

// treeKey names a solution of a construct's final curve at the source: the
// final Γ's memo id and the solution's index.
type treeKey struct{ id, i int32 }

// spot names a stored solution by position, with what replaying its cell
// needs: an interval [a, b] of a *PTREE call's items, or, when items is
// nil, the sub-problem Γ(l, e, r) of the last construct. slot is the
// expanded record the solution's structure becomes.
type spot struct {
	slot  int32
	p, i  int
	items []item
	a, b  int
	l, r  int
	e     Chi
}

// BuildTree reconstructs the buffered routing tree of solution sol of the
// most recent construct's final curve at the source (Fig. 9 line 22), as
// Extract returns it. A curve is non-inferior, so no two of its solutions
// share a triple, and sol's triple names it. The first rebuild of
// a solution replays the cells its tree touches and checks that each
// reproduces its stored curve, triple for triple and in curve order,
// returning an error wrapping ErrInternal if one does not; the engine keeps
// the expanded records, so a repeat rebuild replays nothing.
func (en *Engine) BuildTree(sol curve.Solution) (t *tree.Tree, err error) {
	defer recoverToErr(&err)
	n := en.Net.N()
	if len(en.ord) != n {
		return nil, fmt.Errorf("core: no finished construct to rebuild a tree from")
	}
	id := en.gamma[n-1][Chi0][n-1]
	i := slices.Index(en.memo[id].at(en.srcIdx), sol)
	if i < 0 {
		return nil, fmt.Errorf("core: solution %v is no solution of the last construct's curve at the source", sol)
	}
	key := treeKey{id, int32(i)}
	recs, ok := en.trees[key]
	if !ok {
		if recs, err = en.expand(spot{p: en.srcIdx, i: i, l: n, e: Chi0, r: n - 1}); err != nil {
			return nil, err
		}
		en.trees[key] = recs
	}
	t = tree.New(en.Net)
	node := en.buildNode(recs, 0)
	if node.Kind == tree.KindSteiner && node.Pos == en.Net.Source {
		t.Root.Children = node.Children
	} else {
		t.Root.AddChild(node)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	assertBuiltTree(t, en.Opts)
	return t, nil
}

// expand rebuilds the structure of the solution at root as expanded
// records: refLeaf, refJoin, refVia and refBuf only, whose parts are
// indices into the returned slice, root first. Each spot's cell is replayed
// and its records copied out before the next replay resets the table.
func (en *Engine) expand(root spot) ([]ref, error) {
	out := make([]ref, 1)
	todo := []spot{root}
	for len(todo) > 0 {
		s := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		h, err := en.replay(s)
		if err != nil {
			return nil, err
		}
		out, todo = en.walk(h, s, out, todo)
	}
	return out, nil
}

// replay runs spot s's cell again into en.cur, checks that it reproduces
// the stored curve at s.p, and returns the handle of solution s.i's record
// in the replayed cell.
func (en *Engine) replay(s spot) (int32, error) {
	en.Replays++
	var id int32
	if s.items != nil {
		ids := en.intervalIDs(s.items)
		id = ids[s.a*len(s.items)+s.b]
		if !en.memo[id].stored() {
			return 0, fmt.Errorf("%w: %s has no stored curves", ErrInternal, s)
		}
		en.intervalCell(s.items, ids, s.a, s.b, s.p, true)
	} else {
		span := s.l + Stretch(s.e)
		id = en.gamma[s.l-1][s.e][s.r]
		if !en.memo[id].stored() {
			return 0, fmt.Errorf("%w: %s has no stored curves", ErrInternal, s)
		}
		en.g = appendSinkSet(en.g[:0], s.r, span, s.e)
		if s.l == 1 {
			en.leafCell(en.ord[en.g[0]], true)
		} else {
			en.scanCalls(s.l, s.r, span)
			for i := range en.calls {
				en.items = en.callItems(en.items[:0], en.ord, i)
				fid := en.finalID(en.items)
				if !en.memo[fid].stored() {
					return 0, fmt.Errorf("%w: %s: call %d has no stored curves", ErrInternal, s, i)
				}
				en.calls[i].final = fid
			}
			en.gammaCell(s.p, true)
		}
	}
	got, want := &en.cur[s.p], en.memo[id].at(s.p)
	if !slices.Equal(got.Sols, want) {
		return 0, fmt.Errorf("%w: replay of %s gives %v, stored %v", ErrInternal, s, got.Sols, want)
	}
	return got.Refs[s.i], nil
}

// String names the spot's cell and candidate for errors.
func (s spot) String() string {
	if s.items != nil {
		return fmt.Sprintf("interval [%d, %d] of %d items at candidate %d", s.a, s.b, len(s.items), s.p)
	}
	return fmt.Sprintf("Γ(%d, %v, %d) at candidate %d", s.l, s.e, s.r, s.p)
}

// walk copies the record of handle h, replayed for spot s, and the records
// it reaches inside the same cell into out[s.slot] and new slots. A part
// that a stored list holds becomes a spot on todo, which takes over the
// part's slot.
func (en *Engine) walk(h int32, s spot, out []ref, todo []spot) ([]ref, []spot) {
	r := en.refs.At(h)
	p := int(r.point)
	switch r.kind {
	case refLeaf:
		out[s.slot] = r
	case refVia, refBuf:
		child := int32(len(out))
		out = append(out, ref{})
		out[s.slot] = ref{kind: r.kind, point: r.point, a: child, b: r.b}
		return en.walk(r.a, spot{slot: child, p: p, items: s.items, a: s.a, b: s.b}, out, todo)
	case refJoin:
		left, right := int32(len(out)), int32(len(out)+1)
		out = append(out, ref{}, ref{})
		out[s.slot] = ref{kind: refJoin, point: r.point, a: left, b: right}
		todo = append(todo,
			spot{slot: right, p: p, i: int(r.b), items: s.items, a: int(r.u) + 1, b: s.b},
			spot{slot: left, p: p, i: int(r.a), items: s.items, a: s.a, b: int(r.u)})
	case refGroup:
		l, e, gr := en.gammaAt(r.b)
		todo = append(todo, spot{slot: s.slot, p: p, i: int(r.a), l: l, e: e, r: gr})
	case refCall:
		// The spot keeps its items on the todo stack, so they get a list
		// of their own.
		items := en.callItems(make([]item, 0, len(en.g)), en.ord, int(r.b))
		todo = append(todo, spot{slot: s.slot, p: p, i: int(r.a), items: items, a: 0, b: len(items) - 1})
	}
	return out, todo
}

// gammaAt returns an (l, e, r) of the last construct whose Γ has memo id
// id. Structures that coincide share an id, and their scans agree, so any
// of them replays the same cell.
func (en *Engine) gammaAt(id int32) (int, Chi, int) {
	for l := range en.gamma {
		for _, e := range en.Opts.Chis {
			for r, g := range en.gamma[l][e] {
				if g == id {
					return l + 1, e, r
				}
			}
		}
	}
	// A group item names a Γ of the construct being replayed; contained
	// by recoverToErr in BuildTree.
	panic(fmt.Sprintf("core: memo id %d is no Γ of the last construct", id)) //lint:allow nopanic -- replay invariant, contained by recoverToErr at the engine boundary
}

// buildNode expands expanded record i into tree nodes; joins at the same
// point flatten into one Steiner/buffer node so child order (and hence the
// realized sink order) is preserved left to right.
func (en *Engine) buildNode(recs []ref, i int32) *tree.Node {
	r := recs[i]
	switch r.kind {
	case refLeaf:
		n := &tree.Node{Kind: tree.KindSteiner, Pos: en.Cands[r.point]}
		sk := en.Net.Sinks[r.a]
		if n.Pos == sk.Pos {
			return &tree.Node{Kind: tree.KindSink, Pos: sk.Pos, SinkIdx: int(r.a)}
		}
		n.AddChild(&tree.Node{Kind: tree.KindSink, Pos: sk.Pos, SinkIdx: int(r.a)})
		return n
	case refBuf:
		n := &tree.Node{Kind: tree.KindBuffer, Pos: en.Cands[r.point], Buffer: en.Lib.Buffers[r.b]}
		child := en.buildNode(recs, r.a)
		if child.Kind == tree.KindSteiner && child.Pos == n.Pos {
			n.Children = child.Children
		} else {
			n.AddChild(child)
		}
		return n
	case refVia:
		n := &tree.Node{Kind: tree.KindSteiner, Pos: en.Cands[r.point]}
		child := en.buildNode(recs, r.a)
		if child.Kind == tree.KindSteiner && child.Pos == n.Pos {
			n.Children = child.Children
		} else {
			n.AddChild(child)
		}
		return n
	default: // refJoin
		n := &tree.Node{Kind: tree.KindSteiner, Pos: en.Cands[r.point]}
		for _, part := range []int32{r.a, r.b} {
			sub := en.buildNode(recs, part)
			if sub.Kind == tree.KindSteiner && sub.Pos == n.Pos {
				n.Children = append(n.Children, sub.Children...)
			} else {
				n.AddChild(sub)
			}
		}
		return n
	}
}
