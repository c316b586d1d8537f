package core

import (
	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/order"
)

// This file implements the relaxation §3.2.1 sketches after Definition 2:
// "Cα_Trees can be relaxed with respect to the first property ... each
// internal node may have more than one internal node (but bounded by a
// certain parameter) among its immediate children. Although the optimal
// structure can still be achieved using dynamic programming, the complexity
// of the corresponding optimal construction algorithm grows significantly."
//
// With Options.MaxInternalChildren = 2 the construction additionally
// enumerates pairs of disjoint inner sub-groups per sub-problem, so internal
// nodes may branch into two chains (the hierarchy becomes a bounded-degree
// tree of buffers instead of Lemma 2's single chain). The quadratic blow-up
// in the inner enumeration is exactly the cost the paper warns about; the
// ablation bench measures it.

// innerGroup describes one already-solved sub-group used as a child.
type innerGroup struct {
	key  int32 // memo id of the group's Γ key
	g    []int // order positions covered
	r    int   // rightmost span position
	span int
	e    Chi
}

// buildItemsMulti generalizes buildItems to any number of inner groups with
// pairwise-disjoint spans. Bubble-out applies per group: a directly attached
// sink occupying a group's right hole is ordered just after that group, a
// left-hole occupant just before it.
func (en *Engine) buildItemsMulti(ord order.Order, G []int, groups []innerGroup) []item {
	covered := map[int]bool{}
	for _, gr := range groups {
		for _, q := range gr.g {
			covered[q] = true
		}
	}
	type keyed struct {
		key float64
		it  item
	}
	var items []keyed
	for _, gr := range groups {
		left := gr.r - gr.span + 1
		gpts := make([]geom.Point, 0, len(gr.g))
		for _, q := range gr.g {
			gpts = append(gpts, en.Net.Sinks[ord[q]].Pos)
		}
		items = append(items, keyed{
			key: float64(left),
			it:  item{group: gr.key, bbox: geom.BoundingBox(gpts)},
		})
	}
	for _, q := range G {
		if covered[q] {
			continue
		}
		key := float64(q)
		for _, gr := range groups {
			left := gr.r - gr.span + 1
			if gr.e.HasRightBubble() && q == gr.r-1 {
				key = float64(gr.r) + 0.5
			}
			if gr.e.HasLeftBubble() && q == left+1 {
				key = float64(left) - 0.5
			}
		}
		pt := en.Net.Sinks[ord[q]].Pos
		items = append(items, keyed{key: key, it: item{sinkIdx: ord[q], pos: q, bbox: geom.Rect{Min: pt, Max: pt}}})
	}
	sortKeyed := func(a, b keyed) bool { return a.key < b.key }
	for i := 1; i < len(items); i++ { // insertion sort; lists are tiny
		for j := i; j > 0 && sortKeyed(items[j], items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	out := make([]item, len(items))
	for i, kv := range items {
		out[i] = kv.it
	}
	return out
}

// enumeratePairs adds, for one (L, E, R) sub-problem, every construction
// using TWO disjoint inner sub-groups. gam reads Γ's memo ids; results are
// merged into acc. Called only when Options.MaxInternalChildren >= 2.
func (en *Engine) enumeratePairs(ord order.Order, G []int, inG map[int]bool, L, R, span int,
	gam func(l int, e Chi, r int) int32, acc []*curve.Curve) {
	k := len(en.Cands)
	type cand struct {
		ig innerGroup
		l  int
	}
	// Collect all legal single groups inside G first.
	var cands []cand
	for l := 1; l <= L-2; l++ {
		for _, e := range en.Opts.Chis {
			ispan := l + Stretch(e)
			if ispan < minSpan(e) {
				continue
			}
			for r := R; r-ispan+1 >= R-span+1; r-- {
				if !SpanFits(len(ord), r, l, e) {
					continue
				}
				g := SinkSet(r, ispan, e)
				if len(g) != l {
					continue
				}
				gid := gam(l, e, r)
				if en.curves[gid] == nil {
					continue
				}
				ok := true
				for _, q := range g {
					if !inG[q] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				cands = append(cands, cand{
					ig: innerGroup{key: gid, g: g, r: r, span: ispan, e: e},
					l:  l,
				})
			}
		}
	}
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			a, b := cands[i], cands[j]
			// Spans must be disjoint (holes live inside spans, so this also
			// keeps bubble-out targets unambiguous).
			aLeft, bLeft := a.ig.r-a.ig.span+1, b.ig.r-b.ig.span+1
			if a.ig.r >= bLeft && b.ig.r >= aLeft {
				continue
			}
			// Fanout: direct sinks + two group children ≤ α.
			t := L - a.l - b.l + 2
			if t > en.Opts.Alpha || t < 2 {
				continue
			}
			// Groups must cover disjoint sinks (spans disjoint ⇒ true) and
			// both fit in G (checked above).
			groups := []innerGroup{a.ig, b.ig}
			if bLeft < aLeft {
				groups[0], groups[1] = groups[1], groups[0]
			}
			items := en.buildItemsMulti(ord, G, groups)
			res := en.starDP(items)
			for p := 0; p < k; p++ {
				acc[p].Insert(res[p].Sols...)
			}
		}
	}
}
