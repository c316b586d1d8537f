// Package tree defines the buffered rectilinear routing tree produced by
// every algorithm in this repository, together with its timing evaluation
// (Elmore wires + 4-parameter gates with slew propagation), accounting
// (buffer area, wirelength), sink-order extraction (the SINK_ORDER step of
// MERLIN, Fig. 14 line 7), and the structural validity predicates for
// Cα_Trees (Definition 2) and LT-Trees type-I (Lemma 3).
package tree

import (
	"fmt"
	"math"
	"strings"

	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/rc"
)

// Kind discriminates tree node roles.
type Kind int

const (
	// KindSource is the net driver; exactly one per tree, at the root.
	KindSource Kind = iota
	// KindBuffer is an inserted buffer — an internal node of the Cα_Tree
	// abstraction.
	KindBuffer
	// KindSteiner is an unbuffered routing branch point.
	KindSteiner
	// KindSink is a net terminal leaf.
	KindSink
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindBuffer:
		return "buffer"
	case KindSteiner:
		return "steiner"
	case KindSink:
		return "sink"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one vertex of a buffered routing tree. The wire from a node to its
// parent is an L-shaped rectilinear connection whose length is the Manhattan
// distance between their positions.
type Node struct {
	Kind Kind
	Pos  geom.Point
	// Buffer is the inserted cell; only meaningful for KindBuffer.
	Buffer rc.Gate
	// SinkIdx is the index into the net's sink list; only for KindSink.
	SinkIdx int
	// Children are ordered left-to-right; a depth-first traversal visiting
	// children in this order yields the tree's sink order.
	Children []*Node
}

// AddChild appends c as the rightmost child of n and returns c.
func (n *Node) AddChild(c *Node) *Node {
	n.Children = append(n.Children, c)
	return c
}

// Tree is a complete buffered routing solution for a net.
type Tree struct {
	Net  *net.Net
	Root *Node // KindSource
}

// New returns a tree with just the source node for the given net.
func New(n *net.Net) *Tree {
	return &Tree{Net: n, Root: &Node{Kind: KindSource, Pos: n.Source}}
}

// Walk visits every node in depth-first order (parents before children,
// children left-to-right), stopping early if fn returns false.
func (t *Tree) Walk(fn func(n *Node, parent *Node, depth int) bool) {
	var rec func(n, parent *Node, depth int) bool
	rec = func(n, parent *Node, depth int) bool {
		if !fn(n, parent, depth) {
			return false
		}
		for _, c := range n.Children {
			if !rec(c, n, depth+1) {
				return false
			}
		}
		return true
	}
	if t.Root != nil {
		rec(t.Root, nil, 0)
	}
}

// SinkOrder returns the order in which a depth-first traversal meets the
// sinks — the SINK_ORDER(ℜ) of MERLIN's line 7. The result is a valid
// order.Order iff the tree spans every sink exactly once.
func (t *Tree) SinkOrder() order.Order {
	var o order.Order
	t.Walk(func(n, _ *Node, _ int) bool {
		if n.Kind == KindSink {
			o = append(o, n.SinkIdx)
		}
		return true
	})
	return o
}

// Validate checks structural invariants: a source root, every sink covered
// exactly once, buffers only at internal positions, and child links acyclic
// (guaranteed by construction but revalidated after surgery).
func (t *Tree) Validate() error {
	if t.Root == nil || t.Root.Kind != KindSource {
		return fmt.Errorf("tree: root must be the source")
	}
	seen := make(map[*Node]bool)
	covered := make([]int, len(t.Net.Sinks))
	ok := true
	t.Walk(func(n, parent *Node, _ int) bool {
		if seen[n] {
			ok = false
			return false
		}
		seen[n] = true
		switch n.Kind {
		case KindSource:
			if parent != nil {
				ok = false
				return false
			}
		case KindSink:
			if n.SinkIdx < 0 || n.SinkIdx >= len(covered) {
				ok = false
				return false
			}
			covered[n.SinkIdx]++
			if len(n.Children) != 0 {
				ok = false
				return false
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("tree: structural violation (cycle, shared node, nested source, sink fanout, or bad sink index)")
	}
	for i, c := range covered {
		if c != 1 {
			return fmt.Errorf("tree: sink %d covered %d times", i, c)
		}
	}
	return nil
}

// Wirelength returns the total rectilinear wirelength (λ).
func (t *Tree) Wirelength() int64 {
	var wl int64
	t.Walk(func(n, parent *Node, _ int) bool {
		if parent != nil {
			wl += geom.Dist(parent.Pos, n.Pos)
		}
		return true
	})
	return wl
}

// BufferArea returns the total inserted buffer area (λ²). The driver is not
// counted, matching the paper's "total buffer area" column.
func (t *Tree) BufferArea() float64 {
	var a float64
	t.Walk(func(n, _ *Node, _ int) bool {
		if n.Kind == KindBuffer {
			a += n.Buffer.Area
		}
		return true
	})
	return a
}

// NumBuffers returns the number of inserted buffers.
func (t *Tree) NumBuffers() int {
	var c int
	t.Walk(func(n, _ *Node, _ int) bool {
		if n.Kind == KindBuffer {
			c++
		}
		return true
	})
	return c
}

// Eval is the timing summary of a tree.
type Eval struct {
	// LoadAtSource is the capacitance (pF) presented to the driver.
	LoadAtSource float64
	// ReqAtDriverInput is min over sinks of (sink required time − path
	// delay), minus the driver's gate delay: the quantity MERLIN maximizes.
	ReqAtDriverInput float64
	// Delay is the comparable "net delay" reported in the tables:
	// max sink required time − ReqAtDriverInput. Because the max required
	// time is a per-net constant, ranking flows by Delay is the same as
	// ranking them by required time, while reading like a delay.
	Delay float64
	// BufferArea is the total inserted buffer area (λ²).
	BufferArea float64
	// Wirelength is the total rectilinear wirelength (λ).
	Wirelength int64
	// CriticalSink is the sink index that limits ReqAtDriverInput.
	CriticalSink int
}

// Evaluate times the tree with full slew propagation: Elmore wire delays,
// 4-parameter gate delays, first-order slew degradation along wires. The
// driver gate is taken from the net (falling back to drv if the net carries
// none).
func (t *Tree) Evaluate(tech rc.Technology, drv rc.Gate) Eval {
	driver := t.Net.DriverOr(drv)
	ld := t.loads(tech)

	ev := Eval{
		LoadAtSource: ld.driven[0],
		BufferArea:   t.BufferArea(),
		Wirelength:   t.Wirelength(),
		CriticalSink: -1,
	}
	driverDelay := driver.Delay(ld.driven[0], tech.NominalSlew)
	slew0 := driver.SlewOut(ld.driven[0])

	worst := math.Inf(1)
	var maxReq float64 = math.Inf(-1)
	for _, s := range t.Net.Sinks {
		if s.Req > maxReq {
			maxReq = s.Req
		}
	}
	ld.down(t.Root, 0, slew0, func(n *Node, delay, _ float64) {
		req := t.Net.Sinks[n.SinkIdx].Req - delay
		if req < worst {
			worst = req
			ev.CriticalSink = n.SinkIdx
		}
	})

	ev.ReqAtDriverInput = worst - driverDelay
	ev.Delay = maxReq - ev.ReqAtDriverInput
	return ev
}

// nodeLoads holds one tree's node capacitances by preorder index, the
// order of Walk: seen[i] is the capacitance the incoming wire observes at
// node i (the pin cap for buffers and sinks, the whole subtree cap for
// Steiner nodes and the source), driven[i] the capacitance a source or
// buffer at node i drives (its subtree cap below the gate output).
type nodeLoads struct {
	tech         rc.Technology
	seen, driven []float64
	next         int // preorder index of the next node a walk enters
}

// loads computes every node's capacitances in one preorder pass. A sink's
// children, which Validate rejects, are neither counted nor timed.
func (t *Tree) loads(tech rc.Technology) *nodeLoads {
	count := 0
	t.Walk(func(*Node, *Node, int) bool { count++; return true })
	buf := make([]float64, 2*count)
	ld := &nodeLoads{tech: tech, seen: buf[:count], driven: buf[count:]}
	ld.fill(t, t.Root)
	ld.next = 0
	return ld
}

// fill computes the capacitances of n's subtree, children summed left to
// right, and returns seen at n.
func (ld *nodeLoads) fill(t *Tree, n *Node) float64 {
	i := ld.next
	ld.next++
	if n.Kind == KindSink {
		ld.seen[i] = t.Net.Sinks[n.SinkIdx].Load
		return ld.seen[i]
	}
	var l float64
	for _, c := range n.Children {
		wl := geom.Dist(n.Pos, c.Pos)
		l += ld.tech.WireC(wl) + ld.fill(t, c)
	}
	switch n.Kind {
	case KindBuffer:
		ld.driven[i] = l
		ld.seen[i] = n.Buffer.Cin
	case KindSource:
		ld.driven[i] = l
		ld.seen[i] = l
	default:
		ld.seen[i] = l
	}
	return ld.seen[i]
}

// down propagates delay and slew from n to every sink below it, in
// depth-first order with children left to right, calling sink at each.
// n must be the node whose preorder index is ld.next.
func (ld *nodeLoads) down(n *Node, delay, slew float64, sink func(n *Node, delay, slew float64)) {
	i := ld.next
	ld.next++
	switch n.Kind {
	case KindSink:
		sink(n, delay, slew)
		return
	case KindBuffer:
		d := n.Buffer.Delay(ld.driven[i], slew)
		assertFiniteDelay(d, "tree: buffer delay")
		delay += d
		slew = n.Buffer.SlewOut(ld.driven[i])
	}
	for _, c := range n.Children {
		wl := geom.Dist(n.Pos, c.Pos)
		el := ld.tech.WireElmore(wl, ld.seen[ld.next]) // c enters next
		assertFiniteDelay(el, "tree: wire Elmore")
		ld.down(c, delay+el, ld.tech.WireSlewOut(slew, el), sink)
	}
}

// PathTiming is the delay and transition time at one sink of a tree, as
// seen from the tree root (driver gate delay excluded — static timing
// computes that with the true pin slew).
type PathTiming struct {
	Delay float64 // ns from the driver output to the sink pin
	Slew  float64 // ns transition at the sink pin
}

// PathDelays times every source-to-sink path with full slew propagation,
// given the transition time at the tree root (the driver's output slew).
// It returns the capacitance the driver must drive and one PathTiming per
// net sink. Static timing analysis uses this to fold routed nets into
// arrival-time propagation.
func (t *Tree) PathDelays(tech rc.Technology, rootSlew float64) (loadAtSource float64, per []PathTiming) {
	ld := t.loads(tech)
	per = make([]PathTiming, len(t.Net.Sinks))
	ld.down(t.Root, 0, rootSlew, func(n *Node, delay, slew float64) {
		per[n.SinkIdx] = PathTiming{Delay: delay, Slew: slew}
	})
	return ld.driven[0], per
}

// String renders an indented dump for debugging and golden tests.
func (t *Tree) String() string {
	var b strings.Builder
	t.Walk(func(n, _ *Node, depth int) bool {
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Kind {
		case KindSource:
			fmt.Fprintf(&b, "source %v\n", n.Pos)
		case KindBuffer:
			fmt.Fprintf(&b, "buffer %s %v\n", n.Buffer.Name, n.Pos)
		case KindSteiner:
			fmt.Fprintf(&b, "steiner %v\n", n.Pos)
		case KindSink:
			fmt.Fprintf(&b, "sink s%d %v\n", n.SinkIdx+1, n.Pos)
		}
		return true
	})
	return b.String()
}

// bufferChildren returns, for a buffer-or-source node, its immediate
// children in the buffer hierarchy: buffers and sinks reachable without
// passing through another buffer, in left-to-right order. Steiner nodes are
// transparent — they belong to the routing inside one hierarchy layer, not
// to the Cα_Tree abstraction.
func bufferChildren(n *Node) []*Node {
	var out []*Node
	var rec func(m *Node)
	rec = func(m *Node) {
		for _, c := range m.Children {
			switch c.Kind {
			case KindBuffer, KindSink:
				out = append(out, c)
			default:
				rec(c)
			}
		}
	}
	rec(n)
	return out
}

// IsCaTree reports whether the tree's buffer hierarchy is a Cα_Tree for the
// given α (Definition 2): every internal node has at most one internal node
// among its immediate children, branching factor ≤ α, and the child order is
// consistent with the order the sinks appear in (alphabetic property). The
// returned order is the sink order the hierarchy realizes. alpha ≤ 0 means
// unbounded.
func (t *Tree) IsCaTree(alpha int) (order.Order, error) {
	var sinkSeq order.Order
	var rec func(n *Node) error
	rec = func(n *Node) error {
		kids := bufferChildren(n)
		if alpha > 0 && len(kids) > alpha {
			return fmt.Errorf("tree: node at %v has branching %d > α=%d", n.Pos, len(kids), alpha)
		}
		internal := 0
		for _, k := range kids {
			if k.Kind == KindBuffer {
				internal++
			}
		}
		if internal > 1 {
			return fmt.Errorf("tree: node at %v has %d internal children (Cα allows 1)", n.Pos, internal)
		}
		for _, k := range kids {
			if k.Kind == KindSink {
				sinkSeq = append(sinkSeq, k.SinkIdx)
				continue
			}
			if err := rec(k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.Root); err != nil {
		return nil, err
	}
	if !sinkSeq.Valid() {
		return nil, fmt.Errorf("tree: hierarchy does not cover each sink exactly once")
	}
	return sinkSeq, nil
}

// IsLTTreeI reports whether the buffer hierarchy is an LT-Tree of type I
// (Lemma 3 / [To90]): a Cα_Tree with α unbounded where no internal node has
// a left sibling, i.e. the single internal child is always leftmost.
func (t *Tree) IsLTTreeI() error {
	if _, err := t.IsCaTree(0); err != nil {
		return err
	}
	var rec func(n *Node) error
	rec = func(n *Node) error {
		kids := bufferChildren(n)
		for i, k := range kids {
			if k.Kind == KindBuffer {
				if i != 0 {
					return fmt.Errorf("tree: internal node at %v has a left sibling", k.Pos)
				}
				if err := rec(k); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return rec(t.Root)
}

// BufferChainLength returns the length of the internal-node chain (Lemma 2):
// the maximum depth of buffers below the source in the buffer hierarchy.
func (t *Tree) BufferChainLength() int {
	var rec func(n *Node) int
	rec = func(n *Node) int {
		best := 0
		for _, k := range bufferChildren(n) {
			if k.Kind == KindBuffer {
				if d := 1 + rec(k); d > best {
					best = d
				}
			}
		}
		return best
	}
	return rec(t.Root)
}
