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
	"slices"

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
// table and DP table afresh, so BuildTree takes solutions of the latest
// Curves call only. A Solver is not safe for concurrent use.
type Solver struct {
	Net   *net.Net
	Cands []geom.Point
	Tech  rc.Technology
	Opts  Options

	srcIdx int
	dist   [][]int64 // candidate-to-candidate Manhattan distances
	refs   curve.Refs[ref]

	// The DP table of the latest Curves call, over its n sinks: slot
	// v = ivl(i, j)·k + p holds S(p, i, j), the curve of candidate p over
	// the order interval [i, j], i ≤ j, as the triples sols[lo:hi] and
	// their handles hs[lo:hi], where {lo, hi} = slots[v].
	n     int
	sols  []curve.Solution
	hs    []int32
	slots []span
	// scratch is the curve every join accumulation and every transfer
	// target is built in before store copies it into its slot. corners[p]
	// is the Corner of the list last stored for candidate p, computed once,
	// when its slot is written; srcs views one interval's lists, the sources
	// of a transfer target; out holds the views Curves returns.
	scratch curve.Curve
	corners []curve.Solution
	srcs    [][]curve.Solution
	out     []curve.Curve
}

// span is where a slot's list sits in the solver's slabs.
type span struct{ lo, hi int32 }

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
	s.corners = make([]curve.Solution, k)
	s.srcs = make([][]curve.Solution, k)
	s.out = make([]curve.Curve, k)
	return s
}

// SourceIndex returns the candidate index of the net source.
func (s *Solver) SourceIndex() int { return s.srcIdx }

// ivl returns the index of order interval [i, j], i ≤ j, in the upper
// triangle of the latest Curves call's n×n intervals, row by row.
func (s *Solver) ivl(i, j int) int { return i*(2*s.n-i+1)/2 + j - i }

// list returns slot v's solutions and their handles, read in place.
func (s *Solver) list(v int) ([]curve.Solution, []int32) {
	sp := s.slots[v]
	return s.sols[sp.lo:sp.hi:sp.hi], s.hs[sp.lo:sp.hi:sp.hi]
}

// startScratch empties the scratch curve and returns it.
func (s *Solver) startScratch() *curve.Curve {
	sc := &s.scratch
	sc.Sols, sc.Refs = sc.Sols[:0], sc.Refs[:0]
	return sc
}

// store sorts and caps the scratch curve, seals its survivors' records and
// copies them to the end of the slabs as slot v's list; their corner goes
// to corners[p], where p = v mod k is the slot's candidate.
func (s *Solver) store(v int) {
	sc := &s.scratch
	sc.Sort()
	sc.Cap(s.Opts.MaxSols)
	s.refs.Seal(sc)
	lo := int32(len(s.sols))
	s.sols = append(s.sols, sc.Sols...)
	s.hs = append(s.hs, sc.Refs...)
	s.slots[v] = span{lo, int32(len(s.sols))}
	s.corners[v%len(s.corners)] = curve.Corner(sc.Sols)
}

// leaf stores S(p, i, i) in slot v: the direct minimum-distance routing
// from candidate p to the sink sinkIdx. Its record is kept directly.
func (s *Solver) leaf(v, p, sinkIdx int) {
	sk := s.Net.Sinks[sinkIdx]
	wl := geom.Dist(s.Cands[p], sk.Pos)
	sc := s.startScratch()
	sc.Sols = append(sc.Sols, curve.Solution{
		Load: s.Tech.QuantizeLoad(sk.Load + s.Tech.WireC(wl)),
		Req:  sk.Req - s.Tech.WireElmore(wl, sk.Load),
		Area: float64(wl),
	})
	sc.Refs = append(sc.Refs, s.refs.Keep(ref{kind: refLeaf, point: int32(p), a: int32(sinkIdx)}))
	s.store(v)
}

// Curves computes the full DP table for the given order and returns the
// final solution curve at every candidate: result[p] covers all sinks rooted
// at candidate p. The caller picks a solution and calls BuildTree. Curves
// empties the reconstruction table and the DP table first, invalidating the
// solutions of earlier calls: the curves it returns are views into the
// solver's slabs, valid until the next call, and must not be modified.
func (s *Solver) Curves(ord order.Order) []curve.Curve {
	n := len(ord)
	if n == 0 {
		return nil
	}
	k := len(s.Cands)
	s.n = n
	s.refs.Reset()
	nslots := n * (n + 1) / 2 * k
	s.slots = slices.Grow(s.slots[:0], nslots)[:nslots]
	s.sols, s.hs = s.sols[:0], s.hs[:0]
	if m := s.Opts.MaxSols; m > 0 {
		// Every slot holds at most m solutions, and the last interval's
		// transfer hops append k lists each before their compaction.
		s.sols = slices.Grow(s.sols, (nslots+transferHops*k)*m)
		s.hs = slices.Grow(s.hs, (nslots+transferHops*k)*m)
	}
	for i := 0; i < n; i++ {
		for p := 0; p < k; p++ {
			s.leaf(s.ivl(i, i)*k+p, p, ord[i])
		}
	}
	for L := 2; L <= n; L++ {
		for i := 0; i+L-1 < n; i++ {
			j := i + L - 1
			base := s.ivl(i, j) * k
			for p := 0; p < k; p++ {
				sc := s.startScratch()
				for u := i; u < j; u++ {
					a, ah := s.list(s.ivl(i, u)*k + p)
					b, bh := s.list(s.ivl(u+1, j)*k + p)
					sc.Join(a, b, func(x, y int) int32 {
						return s.refs.Add(ref{kind: refJoin, point: int32(p), a: ah[x], b: bh[y]})
					})
				}
				s.store(base + p)
			}
			s.transfer(base)
		}
	}
	base := s.ivl(0, n-1) * k
	for p := range s.out {
		a, ah := s.list(base + p)
		s.out[p] = curve.Curve{Sols: a, Refs: ah}
	}
	return s.out
}

// transfer runs the S(p,i,j) = min{ d(p,p′) + S(p′,i,j) } relaxation for the
// interval whose k slots start at slot base, the last lists stored, across
// all candidate pairs, transferHops times.
//
// Unlike core's Jacobi transfer, each sweep is Gauss–Seidel: the sources
// are the live slots, and each target's slot and corner are rewritten as
// soon as it is finished, so target p already sees the transfers the sweep
// made into targets 0..p−1. Flow I and II answers rest on this order.
//
// Every target appends its new list to the slabs, so when the last sweep is
// done its k lists sit at the slabs' end in candidate order, and transfer
// moves them down over the interval's dead lists.
func (s *Solver) transfer(base int) {
	k := len(s.Cands)
	start := s.slots[base].lo
	for hop := 0; hop < transferHops; hop++ {
		for p := 0; p < k; p++ {
			for q := range s.srcs {
				s.srcs[q], _ = s.list(base + q)
			}
			sc := s.startScratch()
			a, ah := s.list(base + p)
			sc.Sols = append(sc.Sols, a...)
			sc.Refs = append(sc.Refs, ah...)
			sc.Wire(s.Tech, s.srcs, s.corners, s.dist[p], p, 1, func(q, x int) int32 {
				return s.refs.Add(ref{kind: refVia, point: int32(p), a: s.hs[s.slots[base+q].lo+int32(x)]})
			})
			s.store(base + p)
		}
	}
	from := s.slots[base].lo
	copy(s.sols[start:], s.sols[from:])
	copy(s.hs[start:], s.hs[from:])
	shift := from - start
	s.sols, s.hs = s.sols[:int32(len(s.sols))-shift], s.hs[:int32(len(s.hs))-shift]
	for v := base; v < base+k; v++ {
		s.slots[v].lo -= shift
		s.slots[v].hi -= shift
	}
}

// Solve runs the DP for the given order, picks the best-required-time
// solution at the source, and returns the routing tree plus the chosen
// solution triple. It returns an error if the net is degenerate.
func (s *Solver) Solve(ord order.Order) (*tree.Tree, curve.Solution, error) {
	if len(ord) != s.Net.N() || !ord.Valid() {
		return nil, curve.Solution{}, fmt.Errorf("ptree: order must be a permutation of the %d sinks", s.Net.N())
	}
	final := &s.Curves(ord)[s.srcIdx]
	if final.Empty() {
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
