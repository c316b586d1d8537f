package ptree

import (
	"math/rand"
	"slices"
	"testing"

	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/order"
)

// referenceCurves is the reference for Curves: the DP as it stood before
// the flat table, with one heap curve per (candidate, interval) over all
// n×n intervals, each grown by append, and a fresh corner scan of every
// transfer source in every Wire. It writes s's reconstruction table, so
// s.BuildTree rebuilds the trees of the solutions it returns.
func referenceCurves(s *Solver, ord order.Order) []*curve.Curve {
	n := len(ord)
	s.refs.Reset()
	k := len(s.Cands)
	tab := make([][]*curve.Curve, k)
	for p := 0; p < k; p++ {
		tab[p] = make([]*curve.Curve, n*n)
		for i := 0; i < n; i++ {
			sk := s.Net.Sinks[ord[i]]
			wl := geom.Dist(s.Cands[p], sk.Pos)
			tab[p][i*n+i] = &curve.Curve{
				Sols: []curve.Solution{{
					Load: s.Tech.QuantizeLoad(sk.Load + s.Tech.WireC(wl)),
					Req:  sk.Req - s.Tech.WireElmore(wl, sk.Load),
					Area: float64(wl),
				}},
				Refs: []int32{s.refs.Keep(ref{kind: refLeaf, point: int32(p), a: int32(ord[i])})},
			}
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
			referenceTransfer(s, tab, i*n+j)
		}
	}
	out := make([]*curve.Curve, k)
	for p := range out {
		out[p] = tab[p][n-1]
	}
	return out
}

// referenceTransfer is referenceCurves' Gauss–Seidel transfer of interval
// idx: each target is rewritten in place, and later targets read it.
func referenceTransfer(s *Solver, tab [][]*curve.Curve, idx int) {
	k := len(s.Cands)
	live := make([][]curve.Solution, k)
	for p := 0; p < k; p++ {
		live[p] = tab[p][idx].Sols
	}
	for hop := 0; hop < transferHops; hop++ {
		for p := 0; p < k; p++ {
			corners := make([]curve.Solution, k)
			for q := range live {
				corners[q] = curve.Corner(live[q])
			}
			acc := tab[p][idx]
			acc.Wire(s.Tech, live, corners, s.dist[p], p, 1, func(q, x int) int32 {
				return s.refs.Add(ref{kind: refVia, point: int32(p), a: tab[q][idx].Refs[x]})
			})
			acc.Sort()
			acc.Cap(s.Opts.MaxSols)
			s.refs.Seal(acc)
			live[p] = acc.Sols
		}
	}
}

// TestCurvesMatchReference: on random nets and random orders, with MaxSols
// 0 (uncapped) and 1–10, Curves returns at every candidate the triples the
// reference DP returns, in the same curve order, and every solution's tree
// is the one the reference rebuilds for it. The slabs must hold the table's
// lists and nothing else, so no transfer hop leaves a dead list behind.
// Each solver runs two orders in a row, so the second call checks a reused
// solver's slabs.
func TestCurvesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 110; trial++ {
		maxSols := trial % 11
		n := 1 + rng.Intn(10)
		if maxSols == 0 {
			n = 1 + rng.Intn(7)
		}
		nt := testNet(n, int64(100+trial))
		cands := geom.ReducedHanan(nt.Terminals(), 4+rng.Intn(9))
		opts := Options{MaxSols: maxSols}
		s := NewSolver(nt, cands, testTech(), opts)
		for call := 0; call < 2; call++ {
			ord := order.Order(rng.Perm(n))
			ref := NewSolver(nt, cands, testTech(), opts)
			want := referenceCurves(ref, ord)
			got := s.Curves(ord)
			if len(got) != len(want) {
				t.Fatalf("trial %d call %d: %d curves, reference %d", trial, call, len(got), len(want))
			}
			held := 0
			for _, sp := range s.slots {
				held += int(sp.hi - sp.lo)
			}
			if held != len(s.sols) || held != len(s.hs) {
				t.Fatalf("trial %d call %d: the slabs hold %d solutions and %d handles, the table's lists %d", trial, call, len(s.sols), len(s.hs), held)
			}
			for p := range got {
				g, w := &got[p], want[p]
				if !slices.Equal(g.Sols, w.Sols) {
					t.Fatalf("trial %d call %d (n=%d, MaxSols=%d): candidate %d holds\n %v\nthe reference\n %v", trial, call, n, maxSols, p, g.Sols, w.Sols)
				}
				for i := range g.Sols {
					if gt, wt := s.BuildTree(g.Refs[i]).String(), ref.BuildTree(w.Refs[i]).String(); gt != wt {
						t.Fatalf("trial %d call %d: candidate %d solution %d builds\n%s\nthe reference\n%s", trial, call, p, i, gt, wt)
					}
				}
			}
		}
	}
}
