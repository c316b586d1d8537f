// Package vangin implements van Ginneken's dynamic-programming buffer
// insertion on a fixed routing tree [Gi90], the second half of the paper's
// Flow II ("routing tree generation using PTREE is followed by buffer
// insertion using the method of [Gi90]").
//
// The classic algorithm propagates (load, required time) pairs bottom-up
// over the tree, optionally inserting a buffer at every legal position; this
// implementation carries the third buffer-area dimension as well, so Flow II
// reports the same triple as the other flows. Long wires are subdivided to
// create interior insertion points, the standard extension.
package vangin

import (
	"fmt"

	"merlin/internal/buflib"
	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/rc"
	"merlin/internal/tree"
)

// Options control insertion granularity and pruning.
type Options struct {
	// SegLen subdivides wires so no segment exceeds this λ length, creating
	// interior buffer-insertion points. 0 means no subdivision (buffers only
	// at existing tree nodes).
	SegLen int64
	// MaxSols caps solution curves.
	MaxSols int
}

// DefaultOptions returns the experiment configuration.
func DefaultOptions() Options { return Options{SegLen: 0, MaxSols: 12} }

// ref reconstructs the buffered tree.
type ref struct {
	node    *tree.Node // original tree node this solution is rooted at (nil for wire midpoints)
	buffer  *rc.Gate   // buffer inserted here, if any
	child   *ref       // solution below the inserted buffer / this point
	kids    []*ref     // children solutions at a branch node
	pos     geom.Point
	sinkIdx int
	isSink  bool
}

// Insert runs buffer insertion on t (which must be unbuffered or partially
// buffered — existing buffers are kept as-is and treated as fixed gates) and
// returns a new tree with buffers from lib inserted to maximize the required
// time at the driver input, accounting for the driver gate's load-dependent
// delay. The input tree is not modified.
func Insert(t *tree.Tree, lib *buflib.Library, tech rc.Technology, opts Options) (*tree.Tree, curve.Solution, error) {
	if opts.MaxSols <= 0 {
		opts.MaxSols = 12
	}
	root := t.Root
	if root == nil {
		return nil, curve.Solution{}, fmt.Errorf("vangin: empty tree")
	}
	c := bottomUp(t, root, lib, tech, opts)
	if c.Empty() {
		return nil, curve.Solution{}, fmt.Errorf("vangin: no solutions")
	}
	driver := t.Net.Driver
	if driver.Name == "" {
		driver = lib.Driver
	}
	best := c.Sols[0]
	bestVal := best.Req - driver.DelayNominal(tech, best.Load)
	for _, s := range c.Sols[1:] {
		if v := s.Req - driver.DelayNominal(tech, s.Load); v > bestVal ||
			(v == bestVal && s.Area < best.Area) {
			best, bestVal = s, v
		}
	}
	out := tree.New(t.Net)
	out.Root.Children = buildNode(best.Ref.(*ref)).Children
	if err := out.Validate(); err != nil {
		return nil, curve.Solution{}, fmt.Errorf("vangin: rebuilt tree invalid: %w", err)
	}
	return out, best, nil
}

// bottomUp returns the solution curve looking into node n from its parent,
// before the parent wire (the wire to the parent is applied by the caller).
func bottomUp(t *tree.Tree, n *tree.Node, lib *buflib.Library, tech rc.Technology, opts Options) *curve.Curve {
	var base *curve.Curve
	switch n.Kind {
	case tree.KindSink:
		base = &curve.Curve{}
		s := t.Net.Sinks[n.SinkIdx]
		base.Add(curve.Solution{
			Load: tech.QuantizeLoad(s.Load),
			Req:  s.Req,
			Ref:  &ref{node: n, pos: n.Pos, sinkIdx: n.SinkIdx, isSink: true},
		})
		return base // no buffer directly on a sink pin
	default:
		// Join children through their wires.
		base = &curve.Curve{}
		base.Add(curve.Solution{Req: inf(), Ref: &ref{node: n, pos: n.Pos}})
		for _, ch := range n.Children {
			cc := bottomUp(t, ch, lib, tech, opts)
			cc = wireWithInsertion(cc, n.Pos, ch.Pos, lib, tech, opts)
			joined := &curve.Curve{}
			joined.Join(base, cc, func(x, y *curve.Solution) any {
				xr := x.Ref.(*ref)
				merged := &ref{node: n, pos: n.Pos}
				merged.kids = append(merged.kids, xr.kids...)
				if len(xr.kids) == 0 && (xr.isSink || xr.child != nil || xr.buffer != nil) {
					merged.kids = append(merged.kids, xr)
				}
				merged.kids = append(merged.kids, y.Ref.(*ref))
				return merged
			})
			base = joined
			base.Prune()
			base.Cap(opts.MaxSols)
		}
	}
	if n.Kind == tree.KindBuffer {
		// Existing buffer is fixed: apply it, no choice.
		buffered := &curve.Curve{}
		buffered.Buffer(tech, base, []rc.Gate{n.Buffer}, func(old *curve.Solution, g *rc.Gate) any {
			return &ref{node: n, pos: n.Pos, buffer: g, child: old.Ref.(*ref)}
		})
		buffered.Prune()
		return buffered
	}
	if n.Kind == tree.KindSource {
		return base
	}
	// Steiner point: optionally insert a buffer.
	return withBufferOption(base, n.Pos, lib, tech, opts)
}

// withBufferOption unions the unbuffered curve with one buffered variant per
// library cell, at position pos.
func withBufferOption(c *curve.Curve, pos geom.Point, lib *buflib.Library, tech rc.Technology, opts Options) *curve.Curve {
	acc := c.Clone()
	acc.Buffer(tech, c, lib.Buffers, func(old *curve.Solution, g *rc.Gate) any {
		return &ref{pos: pos, buffer: g, child: old.Ref.(*ref)}
	})
	acc.Prune()
	acc.Cap(opts.MaxSols)
	return acc
}

// wireWithInsertion carries curve c (rooted at childPos) up the wire to
// parentPos, inserting optional buffers at interior subdivision points.
func wireWithInsertion(c *curve.Curve, parentPos, childPos geom.Point, lib *buflib.Library, tech rc.Technology, opts Options) *curve.Curve {
	total := geom.Dist(parentPos, childPos)
	if total == 0 {
		return c
	}
	segs := int64(1)
	if opts.SegLen > 0 && total > opts.SegLen {
		segs = (total + opts.SegLen - 1) / opts.SegLen
	}
	cur := c
	for s := int64(0); s < segs; s++ {
		// Segment lengths sum to total; interior points are evenly spaced on
		// the Manhattan path (their exact embedding does not change delay).
		segLen := total / segs
		if s < total%segs {
			segLen++
		}
		frac := float64(s+1) / float64(segs)
		pos := geom.Point{
			X: childPos.X + int64(frac*float64(parentPos.X-childPos.X)),
			Y: childPos.Y + int64(frac*float64(parentPos.Y-childPos.Y)),
		}
		wired := &curve.Curve{}
		wired.Wire(tech, []*curve.Curve{cur}, []int64{segLen}, -1, 0, func(old *curve.Solution) any {
			return &ref{pos: pos, child: old.Ref.(*ref)}
		})
		cur = wired
		cur.Prune()
		if s < segs-1 { // interior point: buffer option
			cur = withBufferOption(cur, pos, lib, tech, opts)
		}
		cur.Cap(opts.MaxSols)
	}
	return cur
}

func inf() float64 { return 1e300 }

// buildNode converts a ref into a tree node subtree rooted at the ref's
// position.
func buildNode(r *ref) *tree.Node {
	switch {
	case r.isSink:
		return &tree.Node{Kind: tree.KindSink, Pos: r.pos, SinkIdx: r.sinkIdx}
	case r.buffer != nil:
		n := &tree.Node{Kind: tree.KindBuffer, Pos: r.pos, Buffer: *r.buffer}
		n.AddChild(buildNode(r.child))
		return n
	case r.child != nil:
		// Pure wire waypoint: collapse — the child carries the position that
		// matters; wirelength is preserved because waypoints lie on the
		// Manhattan path.
		n := &tree.Node{Kind: tree.KindSteiner, Pos: r.pos}
		n.AddChild(buildNode(r.child))
		return n
	default:
		n := &tree.Node{Kind: tree.KindSteiner, Pos: r.pos}
		for _, k := range r.kids {
			n.AddChild(buildNode(k))
		}
		return n
	}
}
