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

// refKind discriminates ref shapes.
type refKind int8

const (
	refSink   refKind = iota // a sink pin
	refBranch                // an original tree node before any child is joined
	refJoin                  // a branch (a) joined with one more child solution (b)
	refVia                   // a wire waypoint above a
	refBuf                   // a buffer at pos driving a
)

// ref is one record of an insertion's reconstruction table; a curve's Refs
// hold the handles of its solutions' records. A branch node with children
// c1 … cm is the chain join(…join(branch, c1)…, cm).
type ref struct {
	kind    refKind
	pos     geom.Point
	gate    *rc.Gate // refBuf: the inserted or fixed buffer
	a, b    int32    // handles of the parts (see refKind)
	sinkIdx int      // refSink only
}

// inserter is one Insert call: its inputs and reconstruction table.
type inserter struct {
	t    *tree.Tree
	lib  *buflib.Library
	tech rc.Technology
	opts Options
	refs curve.Refs[ref]
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
	ins := &inserter{t: t, lib: lib, tech: tech, opts: opts}
	c := ins.bottomUp(root)
	if c.Empty() {
		return nil, curve.Solution{}, fmt.Errorf("vangin: no solutions")
	}
	driver := t.Net.DriverOr(lib.Driver)
	best, _ := curve.BestAtDriver(c.Sols, &tech, &driver, 0)
	out := tree.New(t.Net)
	out.Root.Children = ins.buildNode(c.Refs[best]).Children
	if err := out.Validate(); err != nil {
		return nil, curve.Solution{}, fmt.Errorf("vangin: rebuilt tree invalid: %w", err)
	}
	return out, c.Sols[best], nil
}

// bottomUp returns the solution curve looking into node n from its parent,
// before the parent wire (the wire to the parent is applied by the caller).
// Every curve it returns is sealed.
func (ins *inserter) bottomUp(n *tree.Node) *curve.Curve {
	tech, opts := ins.tech, ins.opts
	var base *curve.Curve
	switch n.Kind {
	case tree.KindSink:
		s := ins.t.Net.Sinks[n.SinkIdx]
		return &curve.Curve{ // no buffer directly on a sink pin
			Sols: []curve.Solution{{Load: tech.QuantizeLoad(s.Load), Req: s.Req}},
			Refs: []int32{ins.refs.Keep(ref{kind: refSink, pos: n.Pos, sinkIdx: n.SinkIdx})},
		}
	default:
		// Join children through their wires.
		base = &curve.Curve{
			Sols: []curve.Solution{{Req: inf()}},
			Refs: []int32{ins.refs.Keep(ref{kind: refBranch, pos: n.Pos})},
		}
		for _, ch := range n.Children {
			cc := ins.wireWithInsertion(ins.bottomUp(ch), n.Pos, ch.Pos)
			joined := &curve.Curve{}
			joined.Join(base.Sols, cc.Sols, func(x, y int) int32 {
				return ins.refs.Add(ref{kind: refJoin, pos: n.Pos, a: base.Refs[x], b: cc.Refs[y]})
			})
			base = joined
			base.Sort()
			base.Cap(opts.MaxSols)
			ins.refs.Seal(base)
		}
	}
	if n.Kind == tree.KindBuffer {
		// Existing buffer is fixed: apply it, no choice.
		buffered := &curve.Curve{}
		buffered.Buffer(tech, base.Sols, []rc.Gate{n.Buffer}, func(i, _ int) int32 {
			return ins.refs.Add(ref{kind: refBuf, pos: n.Pos, gate: &n.Buffer, a: base.Refs[i]})
		})
		buffered.Sort()
		ins.refs.Seal(buffered)
		return buffered
	}
	if n.Kind == tree.KindSource {
		return base
	}
	// Steiner point: optionally insert a buffer.
	return ins.withBufferOption(base, n.Pos)
}

// withBufferOption unions the unbuffered curve with one buffered variant per
// library cell, at position pos. c must be sealed; so is the result.
func (ins *inserter) withBufferOption(c *curve.Curve, pos geom.Point) *curve.Curve {
	acc := c.Clone()
	acc.Buffer(ins.tech, c.Sols, ins.lib.Buffers, func(i, gi int) int32 {
		return ins.refs.Add(ref{kind: refBuf, pos: pos, gate: &ins.lib.Buffers[gi], a: c.Refs[i]})
	})
	acc.Sort()
	acc.Cap(ins.opts.MaxSols)
	ins.refs.Seal(acc)
	return acc
}

// wireWithInsertion carries curve c (rooted at childPos) up the wire to
// parentPos, inserting optional buffers at interior subdivision points.
func (ins *inserter) wireWithInsertion(c *curve.Curve, parentPos, childPos geom.Point) *curve.Curve {
	opts := ins.opts
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
		wired.Wire(ins.tech, [][]curve.Solution{cur.Sols}, []curve.Solution{curve.Corner(cur.Sols)}, []int64{segLen}, -1, 0, func(_, i int) int32 {
			return ins.refs.Add(ref{kind: refVia, pos: pos, a: cur.Refs[i]})
		})
		cur = wired
		cur.Sort()
		if s < segs-1 { // interior point: buffer option, which reads cur's records
			ins.refs.Seal(cur)
			cur = ins.withBufferOption(cur, pos)
		}
		cur.Cap(opts.MaxSols)
		ins.refs.Seal(cur)
	}
	return cur
}

func inf() float64 { return 1e300 }

// buildNode converts the record of handle h into a tree node subtree rooted
// at the record's position.
func (ins *inserter) buildNode(h int32) *tree.Node {
	r := ins.refs.At(h)
	switch r.kind {
	case refSink:
		return &tree.Node{Kind: tree.KindSink, Pos: r.pos, SinkIdx: r.sinkIdx}
	case refBuf:
		n := &tree.Node{Kind: tree.KindBuffer, Pos: r.pos, Buffer: *r.gate}
		n.AddChild(ins.buildNode(r.a))
		return n
	case refVia:
		// Pure wire waypoint: collapse — the child carries the position that
		// matters; wirelength is preserved because waypoints lie on the
		// Manhattan path.
		n := &tree.Node{Kind: tree.KindSteiner, Pos: r.pos}
		n.AddChild(ins.buildNode(r.a))
		return n
	default:
		// A branch: walk the join chain back to its start, collecting the
		// children last to first.
		var kids []int32
		for r.kind == refJoin {
			kids = append(kids, r.b)
			r = ins.refs.At(r.a)
		}
		n := &tree.Node{Kind: tree.KindSteiner, Pos: r.pos}
		for i := len(kids) - 1; i >= 0; i-- {
			n.AddChild(ins.buildNode(kids[i]))
		}
		return n
	}
}
