// Package ptree implements PTREE, the second phase of the P-Tree algorithm
// of Lillis, Cheng, Lin and Ho [LCLH96], which the paper uses as the routing
// baseline in Flows I and II and as the skeleton that *PTREE extends.
//
// Given a sink order, PTREE finds the optimal rectilinear routing embedding
// over a set of candidate (Hanan) points by dynamic programming over
// contiguous order intervals: S(p,i,j) is the non-inferior solution curve of
// routings rooted at candidate p driving sinks i..j of the order. Curves are
// (load, required time, wirelength) triples pruned per Definition 6; the
// wirelength in λ occupies the curve's Area dimension so callers get the
// paper's explicit area/delay trade-off.
package ptree

import (
	"fmt"

	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/rc"
	"merlin/internal/tree"
)

// Options tune the DP's practical knobs.
type Options struct {
	// MaxSols caps every solution curve (0 = uncapped). Capping trades
	// optimality for speed exactly like coarser load quantization.
	MaxSols int
}

// DefaultOptions returns the options used by the experiments.
func DefaultOptions() Options {
	return Options{MaxSols: 10}
}

// transferHops is the number of Bellman-Ford sweeps propagating merged
// curves across candidate locations (the S = min{d(p,p′)+S′} recursion).
// One sweep finds all single-hop transfers; the second approaches the fixed
// point, and more rarely change results.
const transferHops = 2

// refKind discriminates ref shapes.
type refKind int8

const (
	refLeaf refKind = iota // direct wire from point to a sink
	refJoin                // two sub-routings joined at point (a=left, b=right)
	refVia                 // transfer: wire from point to a's point
)

// ref is one record of the solver's reconstruction table; a curve's Refs
// hold the handles of its solutions' records.
type ref struct {
	kind  refKind
	point int32 // candidate index the solution is rooted at
	a     int32 // refLeaf: sink index; otherwise the handle of the (left) part
	b     int32 // refJoin: handle of the right part
}

// Solver runs PTREE on one net. Create with NewSolver, then call Solve with
// any sink order; the candidate set and technology are fixed per solver.
//
// Each Curves call (and so each Solve) starts the solver's reconstruction
// table afresh, so BuildTree takes solutions of the latest Curves call
// only. A Solver is not safe for concurrent use.
type Solver struct {
	Net   *net.Net
	Cands []geom.Point
	Tech  rc.Technology
	Opts  Options

	srcIdx int
	dist   [][]int64 // candidate-to-candidate Manhattan distances
	refs   curve.Refs[ref]
}

// NewSolver prepares a PTREE solver. The source position is appended to the
// candidate set if not already present, because the final tree is rooted
// there.
func NewSolver(n *net.Net, cands []geom.Point, tech rc.Technology, opts Options) *Solver {
	s := &Solver{Net: n, Tech: tech, Opts: opts}
	s.Cands = append(s.Cands, cands...)
	s.srcIdx = -1
	for i, p := range s.Cands {
		if p == n.Source {
			s.srcIdx = i
			break
		}
	}
	if s.srcIdx < 0 {
		s.srcIdx = len(s.Cands)
		s.Cands = append(s.Cands, n.Source)
	}
	k := len(s.Cands)
	s.dist = make([][]int64, k)
	for i := range s.dist {
		s.dist[i] = make([]int64, k)
		for j := range s.dist[i] {
			s.dist[i][j] = geom.Dist(s.Cands[i], s.Cands[j])
		}
	}
	return s
}

// SourceIndex returns the candidate index of the net source.
func (s *Solver) SourceIndex() int { return s.srcIdx }

// leafCurve builds S(p, i, i): the direct minimum-distance routing from
// candidate p to the sink at order position i. Its record is kept directly.
func (s *Solver) leafCurve(p, sinkIdx int) *curve.Curve {
	sk := s.Net.Sinks[sinkIdx]
	wl := geom.Dist(s.Cands[p], sk.Pos)
	return &curve.Curve{
		Sols: []curve.Solution{{
			Load: s.Tech.QuantizeLoad(sk.Load + s.Tech.WireC(wl)),
			Req:  sk.Req - s.Tech.WireElmore(wl, sk.Load),
			Area: float64(wl),
		}},
		Refs: []int32{s.refs.Keep(ref{kind: refLeaf, point: int32(p), a: int32(sinkIdx)})},
	}
}

// Curves computes the full DP table for the given order and returns the
// final solution curve at every candidate: result[p] covers all sinks rooted
// at candidate p. The caller picks a solution and calls BuildTree. Curves
// empties the reconstruction table first, invalidating the solutions of
// earlier calls.
func (s *Solver) Curves(ord order.Order) []*curve.Curve {
	n := len(ord)
	if n == 0 {
		return nil
	}
	s.refs.Reset()
	k := len(s.Cands)
	// tab[p][i][j] with j >= i; index intervals by i*n + j.
	tab := make([][]*curve.Curve, k)
	for p := 0; p < k; p++ {
		tab[p] = make([]*curve.Curve, n*n)
		for i := 0; i < n; i++ {
			tab[p][i*n+i] = s.leafCurve(p, ord[i])
		}
	}
	for L := 2; L <= n; L++ {
		for i := 0; i+L-1 < n; i++ {
			j := i + L - 1
			for p := 0; p < k; p++ {
				acc := &curve.Curve{}
				for u := i; u < j; u++ {
					l, r := tab[p][i*n+u], tab[p][(u+1)*n+j]
					acc.Join(l.Sols, r.Sols, func(x, y int) int32 {
						return s.refs.Add(ref{kind: refJoin, point: int32(p), a: l.Refs[x], b: r.Refs[y]})
					})
				}
				acc.Sort()
				acc.Cap(s.Opts.MaxSols)
				s.refs.Seal(acc)
				tab[p][i*n+j] = acc
			}
			s.transfer(tab, i, j, n)
		}
	}
	out := make([]*curve.Curve, k)
	for p := 0; p < k; p++ {
		out[p] = tab[p][0*n+(n-1)]
	}
	return out
}

// transfer runs the S(p,i,j) = min{ d(p,p′) + S(p′,i,j) } relaxation for one
// interval across all candidate pairs, transferHops times.
//
// Unlike core's Jacobi transfer, each sweep is Gauss–Seidel: the sources
// are the live table curves, which Sort and Cap rewrite as each target is
// finished, so target p already sees the transfers the sweep made into
// targets 0..p−1. Flow I and II answers rest on this order.
func (s *Solver) transfer(tab [][]*curve.Curve, i, j, n int) {
	k := len(s.Cands)
	idx := i*n + j
	live := make([][]curve.Solution, k)
	for p := 0; p < k; p++ {
		live[p] = tab[p][idx].Sols
	}
	for hop := 0; hop < transferHops; hop++ {
		for p := 0; p < k; p++ {
			acc := tab[p][idx]
			acc.Wire(s.Tech, live, s.dist[p], p, 1, func(q, x int) int32 {
				return s.refs.Add(ref{kind: refVia, point: int32(p), a: tab[q][idx].Refs[x]})
			})
			acc.Sort()
			acc.Cap(s.Opts.MaxSols)
			s.refs.Seal(acc)
			live[p] = acc.Sols
		}
	}
}

// Solve runs the DP for the given order, picks the best-required-time
// solution at the source, and returns the routing tree plus the chosen
// solution triple. It returns an error if the net is degenerate.
func (s *Solver) Solve(ord order.Order) (*tree.Tree, curve.Solution, error) {
	if len(ord) != s.Net.N() || !ord.Valid() {
		return nil, curve.Solution{}, fmt.Errorf("ptree: order must be a permutation of the %d sinks", s.Net.N())
	}
	finals := s.Curves(ord)
	final := finals[s.srcIdx]
	if final == nil || final.Empty() {
		return nil, curve.Solution{}, fmt.Errorf("ptree: no solution at source")
	}
	best, _ := final.BestReq()
	t := s.BuildTree(final.Refs[best])
	return t, final.Sols[best], nil
}

// BuildTree reconstructs the routing tree of the solution whose handle is h,
// its entry in the Refs of a curve of the latest Curves or Solve call. The
// solution must be rooted at the source candidate.
func (s *Solver) BuildTree(h int32) *tree.Tree {
	t := tree.New(s.Net)
	node := s.buildNode(h)
	if int(s.refs.At(h).point) == s.srcIdx {
		// The DP root coincides with the source: graft its children directly.
		t.Root.Children = node.Children
	} else {
		t.Root.AddChild(node)
	}
	return t
}

// buildNode turns the record DAG below handle h into tree nodes. Joins at
// the same point are flattened into a single Steiner node so the output
// degree reflects the physical branch.
func (s *Solver) buildNode(h int32) *tree.Node {
	r := s.refs.At(h)
	n := &tree.Node{Kind: tree.KindSteiner, Pos: s.Cands[r.point]}
	switch r.kind {
	case refLeaf:
		n.AddChild(&tree.Node{Kind: tree.KindSink, Pos: s.Net.Sinks[r.a].Pos, SinkIdx: int(r.a)})
	case refVia:
		child := s.buildNode(r.a)
		if child.Pos == n.Pos {
			n.Children = child.Children
		} else {
			n.AddChild(child)
		}
	default:
		for _, part := range []int32{r.a, r.b} {
			sub := s.buildNode(part)
			// Sub is rooted at the same point; flatten its children here.
			n.Children = append(n.Children, sub.Children...)
		}
	}
	return n
}
