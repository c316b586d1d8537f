// Package lttree implements LTTREE, the fanout-optimization baseline of
// Flow I: Touati's LT-Tree type-I dynamic program [To90]. Fanout
// optimization is a logic-domain operation — sink positions are unknown to
// it, so wire delay is deliberately ignored (that is precisely the weakness
// the paper's unified approach removes).
//
// An LT-Tree of type I permits at most one internal node among the immediate
// children of every internal node and no left sibling for internal nodes
// (Lemma 3: it is the Cα_Tree special case α = ∞ with the internal child
// leftmost). Internal nodes are buffers; the DP below finds, for the
// required-time-sorted sink list, the non-inferior (load, req, buffer area)
// curve over all such chains.
//
// For Flow I the logical chain must then be embedded: PlaceAndRoute places
// every chain buffer at the center of mass of the cluster it drives and
// routes each hierarchy level with PTREE over the cluster's Hanan points,
// mirroring "fanout optimization using LTTREE is followed by PTREE".
package lttree

import (
	"fmt"
	"math"

	"merlin/internal/buflib"
	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/ptree"
	"merlin/internal/rc"
	"merlin/internal/tree"
)

// Options control the DP.
type Options struct {
	// WireLoadPerSink is the wire-load-model capacitance (pF) added per
	// fanout during the logic-domain DP. Fanout optimizers cannot see real
	// wire loads (positions are unknown at that stage); mapped flows of the
	// paper's era used statistical wire-load models instead, and without one
	// LTTREE would almost never buffer. Flow I derives it from the net's
	// bounding box.
	WireLoadPerSink float64
	// MaxSols caps solution curves.
	MaxSols int
	// PTree configures the per-level routing of PlaceAndRoute.
	PTree ptree.Options
}

// DefaultOptions returns the experiment configuration.
func DefaultOptions() Options {
	return Options{MaxSols: 10, PTree: ptree.DefaultOptions()}
}

// chainRef reconstructs a chain solution: the node drives direct sinks
// ord[i..i+direct-1] plus, unless child is chainEnd, one buffer continuing
// the chain.
type chainRef struct {
	buffer rc.Gate
	i      int   // first direct sink position (in the req-sorted order)
	direct int   // number of direct sinks
	child  int32 // handle of the next level's record, or chainEnd
}

// chainEnd marks the last level of a chain; 0 is a valid handle.
const chainEnd int32 = -1

// Chain is the logic-domain result: the req-sorted order used and the final
// curve at the driver, whose Refs hold the handle of each solution's top
// level's chainRef in refs.
type Chain struct {
	Net   *net.Net
	Order order.Order // sinks sorted by increasing required time
	Curve *curve.Curve
	refs  *curve.Refs[chainRef]
}

// Build runs the LT-Tree DP for the net. Sink loads and required times are
// honored; positions are ignored (logic domain). The returned curve is at
// the driver output (driver delay not yet applied).
func Build(n *net.Net, lib *buflib.Library, tech rc.Technology, opts Options) (*Chain, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	reqs := make([]float64, n.N())
	for i, s := range n.Sinks {
		reqs[i] = s.Req
	}
	ord := order.ByRequiredTime(reqs)
	nn := n.N()
	wlm := opts.WireLoadPerSink

	// dp[i] = curve of buffered chains driving order positions i..nn-1,
	// rooted at a buffer whose input is the chain's interface upward. Each
	// is sealed right after its Cap, before dp[i-1] references it.
	dp := make([]*curve.Curve, nn+1)
	refs := &curve.Refs[chainRef]{}
	// Prefix sums over loads (with the wire-load model applied per fanout)
	// and running min over reqs of the sorted order.
	loadSum := make([]float64, nn+1)
	for i := 0; i < nn; i++ {
		loadSum[i+1] = loadSum[i] + n.Sinks[ord[i]].Load + wlm
	}
	minReq := func(i, j int) float64 { // over positions i..j-1
		m := math.Inf(1)
		for p := i; p < j; p++ {
			if r := n.Sinks[ord[p]].Req; r < m {
				m = r
			}
		}
		return m
	}

	for i := nn - 1; i >= 0; i-- {
		acc := &curve.Curve{}
		for j := i + 1; j <= nn; j++ {
			direct := j - i
			baseLoad := loadSum[j] - loadSum[i]
			baseReq := minReq(i, j)
			tails := chainTails(dp, j)
			for ti, tail := range tails.Sols {
				load := baseLoad + tail.Load
				child := tails.Refs[ti]
				if j < nn {
					load += wlm // the wire reaching the chain buffer
				}
				req := math.Min(baseReq, tail.Req)
				for _, b := range lib.Buffers {
					acc.InsertRef(curve.Solution{
						Load: tech.QuantizeLoad(b.Cin),
						Req:  req - b.DelayNominal(&tech, load),
						Area: tail.Area + b.Area,
					}, func() int32 {
						return refs.Add(chainRef{buffer: b, i: i, direct: direct, child: child})
					})
				}
			}
		}
		acc.Sort()
		acc.Cap(opts.MaxSols)
		refs.Seal(acc)
		dp[i] = acc
	}

	// Driver level: the source drives direct sinks 0..j-1 plus chain dp[j];
	// no buffer at the source itself (the driving gate is the net's driver).
	final := &curve.Curve{}
	for j := 0; j <= nn; j++ {
		direct := j
		baseLoad := loadSum[j]
		baseReq := minReq(0, j)
		if j == 0 {
			baseReq = math.Inf(1)
		}
		tails := chainTails(dp, j)
		for ti, tail := range tails.Sols {
			if j == nn && nn == 0 {
				continue
			}
			child := tails.Refs[ti]
			tailLoad := tail.Load
			if j < nn {
				tailLoad += wlm
			}
			final.InsertRef(curve.Solution{
				Load: tech.QuantizeLoad(baseLoad + tailLoad),
				Req:  math.Min(baseReq, tail.Req),
				Area: tail.Area,
			}, func() int32 {
				return refs.Add(chainRef{i: 0, direct: direct, child: child})
			})
		}
	}
	final.Sort()
	final.Cap(opts.MaxSols)
	refs.Seal(final)
	if final.Empty() {
		return nil, fmt.Errorf("lttree: no solution for net %q", n.Name)
	}
	return &Chain{Net: n, Order: ord, Curve: final, refs: refs}, nil
}

// endOfChain is the tail a level that drives the last sinks itself
// continues with: no load, no area, no requirement, and no next level.
var endOfChain = curve.Curve{Sols: []curve.Solution{{Req: math.Inf(1)}}, Refs: []int32{chainEnd}}

// chainTails returns the curve a level whose direct sinks end before order
// position j continues with: dp[j], or endOfChain past the last sink.
func chainTails(dp []*curve.Curve, j int) *curve.Curve {
	if j == len(dp)-1 {
		return &endOfChain
	}
	return dp[j]
}

// cluster is one hierarchy level of the chosen chain during embedding.
type cluster struct {
	buffer  *rc.Gate // nil at the source level
	sinks   []int    // net sink indices driven directly
	child   *cluster // next chain level
	pos     geom.Point
	chainRq float64 // logic-domain req estimate at this level's input
}

// PlaceAndRoute picks the best-required-time chain, embeds it (each buffer
// at the center of mass of everything it transitively drives), routes every
// level with PTREE over the level's reduced Hanan points, and assembles the
// final buffered routing tree.
//
// maxCands bounds each level's candidate count. The returned tree is ready
// for tree.Evaluate.
func PlaceAndRoute(ch *Chain, lib *buflib.Library, tech rc.Technology, opts Options, maxCands int) (*tree.Tree, error) {
	if ch.Curve.Empty() {
		return nil, fmt.Errorf("lttree: empty chain curve")
	}
	// Pick the chain that maximizes the required time at the driver INPUT:
	// the driver's delay depends on the chain's root load, so comparing raw
	// root required times would always favor the bufferless chain.
	driver := ch.Net.DriverOr(lib.Driver)
	best, _ := curve.BestAtDriver(ch.Curve.Sols, &tech, &driver, 0)
	return placeAndRouteSolution(ch, ch.Curve.Refs[best], tech, opts, maxCands)
}

// placeAndRouteSolution embeds and routes the chain whose top level's
// record has handle first.
func placeAndRouteSolution(ch *Chain, first int32, tech rc.Technology, opts Options, maxCands int) (*tree.Tree, error) {
	n := ch.Net
	// Materialize clusters from the chain of records.
	var top *cluster
	var prev *cluster
	for h := first; h != chainEnd; {
		r := ch.refs.At(h)
		h = r.child
		c := &cluster{}
		if r.buffer.Name != "" {
			b := r.buffer
			c.buffer = &b
		}
		for p := r.i; p < r.i+r.direct; p++ {
			c.sinks = append(c.sinks, ch.Order[p])
		}
		if top == nil {
			top = c
		} else {
			prev.child = c
		}
		prev = c
	}
	if top == nil {
		return nil, fmt.Errorf("lttree: solution has no structure")
	}

	// Position each level at the center of mass of its transitive sinks.
	var place func(c *cluster) []geom.Point
	place = func(c *cluster) []geom.Point {
		var pts []geom.Point
		for _, si := range c.sinks {
			pts = append(pts, n.Sinks[si].Pos)
		}
		if c.child != nil {
			pts = append(pts, place(c.child)...)
		}
		if len(pts) == 0 {
			pts = []geom.Point{n.Source}
		}
		c.pos = geom.CenterOfMass(pts)
		return pts
	}
	place(top)
	top.pos = n.Source // the top level is the driver itself

	// Estimate each level's input required time from the logic-domain DP so
	// PTREE can weigh the chain tap against real sinks.
	for c := top; c != nil; c = c.child {
		rq := math.Inf(1)
		for d := c; d != nil; d = d.child {
			for _, si := range d.sinks {
				if r := n.Sinks[si].Req; r < rq {
					rq = r
				}
			}
		}
		c.chainRq = rq
	}

	// Route levels bottom-up so each buffer's position and pin load are
	// final before its parent's level is routed.
	var build func(c *cluster) (*tree.Node, error)
	build = func(c *cluster) (*tree.Node, error) {
		// Sub-net: root at c.pos, sinks = direct sinks plus (optionally) the
		// child buffer pin.
		sub := &net.Net{Name: n.Name + "/level", Source: c.pos}
		for _, si := range c.sinks {
			sub.Sinks = append(sub.Sinks, n.Sinks[si])
		}
		var childNode *tree.Node
		if c.child != nil {
			var err error
			childNode, err = build(c.child)
			if err != nil {
				return nil, err
			}
			sub.Sinks = append(sub.Sinks, net.Sink{
				Pos:  c.child.pos,
				Load: c.child.buffer.Cin,
				Req:  c.child.chainRq, // conservative stand-in for the pin's criticality
			})
		}
		cands := geom.ReducedHanan(sub.Terminals(), maxCands)
		solver := ptree.NewSolver(sub, cands, tech, opts.PTree)
		// P-Tree DFS realizes the given sink order, so putting the chain tap
		// first keeps the internal child leftmost — the "no left sibling"
		// property that makes the result an LT-Tree of type I (Lemma 3).
		var ord order.Order
		if c.child != nil {
			direct := order.TSP(sub.Source, sub.SinkPoints()[:len(sub.Sinks)-1])
			ord = append(order.Order{len(sub.Sinks) - 1}, direct...)
		} else {
			ord = order.TSP(sub.Source, sub.SinkPoints())
		}
		rt, _, err := solver.Solve(ord)
		if err != nil {
			return nil, fmt.Errorf("lttree: routing level: %w", err)
		}
		// Convert the routed sub-tree into nodes of the final tree: the
		// sub-root becomes this level's node; the pseudo-sink (last index)
		// becomes the child buffer node.
		var convert func(sn *tree.Node) *tree.Node
		convert = func(sn *tree.Node) *tree.Node {
			var out *tree.Node
			if sn.Kind == tree.KindSink && c.child != nil && sn.SinkIdx == len(sub.Sinks)-1 {
				out = childNode // graft the already-built child chain
			} else {
				out = &tree.Node{Kind: sn.Kind, Pos: sn.Pos}
				if sn.Kind == tree.KindSink {
					out.SinkIdx = c.sinks[sn.SinkIdx]
				}
			}
			if out != childNode {
				for _, sc := range sn.Children {
					out.AddChild(convert(sc))
				}
			}
			return out
		}
		root := convert(rt.Root)
		node := &tree.Node{Kind: tree.KindSteiner, Pos: c.pos, Children: root.Children}
		if c.buffer != nil {
			node.Kind = tree.KindBuffer
			node.Buffer = *c.buffer
		}
		return node, nil
	}
	rootNode, err := build(top)
	if err != nil {
		return nil, err
	}
	t := tree.New(n)
	t.Root.Children = rootNode.Children
	return t, t.Validate()
}

// Solve is the Flow I entry point: Build then PlaceAndRoute.
func Solve(n *net.Net, lib *buflib.Library, tech rc.Technology, opts Options, maxCands int) (*tree.Tree, error) {
	ch, err := Build(n, lib, tech, opts)
	if err != nil {
		return nil, err
	}
	return PlaceAndRoute(ch, lib, tech, opts, maxCands)
}
