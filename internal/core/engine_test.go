package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"merlin/internal/buflib"
	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/rc"
)

// testSetup returns a small reproducible configuration: exact arithmetic
// (no quantization), modest candidate set.
func testSetup(nSinks int, seed int64, maxCands int) (*net.Net, []geom.Point, *buflib.Library, rc.Technology) {
	tech := rc.Default035()
	tech.LoadQuantum = 0
	lib := buflib.Default035().Small(4)
	nt := net.Generate(net.DefaultGenSpec(nSinks, seed), tech, lib.Driver)
	cands := geom.ReducedHanan(nt.Terminals(), maxCands)
	return nt, cands, lib, tech
}

func exactOpts() Options {
	o := DefaultOptions()
	o.Alpha = 4
	o.MaxSols = 0 // uncapped: exact within the structure space
	return o
}

// TestSolutionTreeConsistency: for every solution of the final curve, the
// reconstructed tree must realize exactly the solution's buffer area. This
// is the regression test for the extraction path (Fig. 9 lines 21–22). The
// seeds give it at least 54 trees to check.
func TestSolutionTreeConsistency(t *testing.T) {
	checked := 0
	for seed := int64(5); seed < 14; seed++ {
		nt, cands, lib, tech := testSetup(6, seed, 10)
		opts := exactOpts()
		opts.MaxSols = 6
		en := NewEngine(nt, cands, lib, tech, opts)
		final, err := en.Construct(order.Identity(nt.N()))
		if err != nil {
			t.Fatal(err)
		}
		for _, sol := range final.Sols {
			tr, err := en.BuildTree(sol)
			if err != nil {
				t.Fatalf("seed %d: BuildTree: %v", seed, err)
			}
			if math.Abs(tr.BufferArea()-sol.Area) > 1e-6 {
				t.Fatalf("seed %d: solution area %.2f but tree area %.2f\n%s", seed, sol.Area, tr.BufferArea(), tr)
			}
			checked++
		}
	}
	if checked < 54 {
		t.Fatalf("only %d trees checked, want at least 54", checked)
	}
	t.Logf("%d trees checked", checked)
}

// TestDPReqMatchesEvaluation: with quantization off and a slew-insensitive
// library (K2=K3=0, so the DP's nominal-slew restriction is exact), the
// DP's predicted required time at the driver equals the tree evaluation.
func TestDPReqMatchesEvaluation(t *testing.T) {
	nt, cands, lib, tech := testSetup(5, 8, 8)
	flat := &buflib.Library{Driver: lib.Driver}
	for _, b := range lib.Buffers {
		b.K2, b.K3 = 0, 0
		flat.Buffers = append(flat.Buffers, b)
	}
	flat.Driver.K2, flat.Driver.K3 = 0, 0
	nt.Driver = flat.Driver
	lib = flat
	en := NewEngine(nt, cands, lib, tech, exactOpts())
	final, err := en.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	sol, reqAt, err := en.Extract(final, Goal{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := en.BuildTree(sol)
	if err != nil {
		t.Fatal(err)
	}
	ev := tr.Evaluate(tech, lib.Driver)
	if math.Abs(ev.ReqAtDriverInput-reqAt) > 1e-6 {
		t.Fatalf("DP req %.6f but evaluation %.6f\n%s", reqAt, ev.ReqAtDriverInput, tr)
	}
}

// TestLemma5: any order realized by BUBBLE_CONSTRUCT is in N(Π). The seeds
// give it at least 225 trees to check.
func TestLemma5(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 45; seed++ {
		nt, cands, lib, tech := testSetup(6, 20+seed, 8)
		opts := exactOpts()
		opts.MaxSols = 5
		en := NewEngine(nt, cands, lib, tech, opts)
		rng := rand.New(rand.NewSource(seed))
		pi := order.Order(rng.Perm(nt.N()))
		final, err := en.Construct(pi)
		if err != nil {
			t.Fatal(err)
		}
		for _, sol := range final.Sols {
			tr, err := en.BuildTree(sol)
			if err != nil {
				t.Fatal(err)
			}
			realized := tr.SinkOrder()
			if !realized.Valid() {
				t.Fatalf("realized %v is not a permutation", realized)
			}
			if !order.InNeighborhood(pi, realized) {
				t.Fatalf("Lemma 5 violated: realized %v not in N(%v)", realized, pi)
			}
			checked++
		}
	}
	if checked < 225 {
		t.Fatalf("only %d trees checked, want at least 225", checked)
	}
	t.Logf("%d trees checked", checked)
}

// TestLemma6AndTheorem4: BUBBLE_CONSTRUCT (with bubbling) must do at least
// as well as running its χ0-only restriction on every member of N(Π)
// individually — i.e. the neighborhood really is searched.
func TestLemma6AndTheorem4(t *testing.T) {
	nt, cands, lib, tech := testSetup(5, 33, 7)
	opts := exactOpts()
	opts.Alpha = 3

	full := NewEngine(nt, cands, lib, tech, opts)
	finals, err := full.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	_, fullReq, err := full.Extract(finals, Goal{})
	if err != nil {
		t.Fatal(err)
	}

	chi0 := opts
	chi0.Chis = []Chi{Chi0}
	bestNeighbor := math.Inf(-1)
	for _, pi := range order.Neighborhood(order.Identity(nt.N())) {
		en := NewEngine(nt, cands, lib, tech, chi0)
		fin, err := en.Construct(pi)
		if err != nil {
			t.Fatal(err)
		}
		if _, req, err := en.Extract(fin, Goal{}); err == nil && req > bestNeighbor {
			bestNeighbor = req
		}
	}
	if fullReq < bestNeighbor-1e-9 {
		t.Fatalf("bubbled run (req %.6f) lost to a χ0-only neighbor (req %.6f): neighborhood not covered", fullReq, bestNeighbor)
	}
	t.Logf("bubbled req %.6f ≥ best χ0 neighbor %.6f over %d orders", fullReq, bestNeighbor, len(order.Neighborhood(order.Identity(nt.N()))))
}

// TestBubblingFindsBetterOrders: on some instance the bubbled engine must
// strictly beat the χ0-only engine for the same initial order — otherwise
// the local order-perturbation machinery is dead code.
func TestBubblingFindsBetterOrders(t *testing.T) {
	improved := false
	for seed := int64(0); seed < 10 && !improved; seed++ {
		nt, cands, lib, tech := testSetup(6, 50+seed, 8)
		opts := exactOpts()
		opts.MaxSols = 6
		// A deliberately poor initial order: reverse TSP.
		tsp := order.TSP(nt.Source, nt.SinkPoints())
		pi := make(order.Order, len(tsp))
		for i, v := range tsp {
			pi[len(tsp)-1-i] = v
		}
		en := NewEngine(nt, cands, lib, tech, opts)
		fin, err := en.Construct(pi)
		if err != nil {
			t.Fatal(err)
		}
		_, fullReq, err := en.Extract(fin, Goal{})
		if err != nil {
			t.Fatal(err)
		}
		chi0 := opts
		chi0.Chis = []Chi{Chi0}
		en0 := NewEngine(nt, cands, lib, tech, chi0)
		fin0, err := en0.Construct(pi)
		if err != nil {
			t.Fatal(err)
		}
		_, req0, err := en0.Extract(fin0, Goal{})
		if err != nil {
			t.Fatal(err)
		}
		if fullReq < req0-1e-9 {
			t.Fatalf("seed %d: bubbling made things worse: %.6f < %.6f", seed, fullReq, req0)
		}
		if fullReq > req0+1e-9 {
			improved = true
		}
	}
	if !improved {
		t.Error("bubbling never improved on χ0-only across 10 seeds — suspicious")
	}
}

// TestCaTreeStructure: with Steiner buffering off and buffered group roots
// forced, the output must be a strict Cα_Tree (Definition 2) for the
// engine's α.
func TestCaTreeStructure(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		nt, cands, lib, tech := testSetup(6, 70+seed, 8)
		opts := exactOpts()
		opts.MaxSols = 6
		opts.BufferAtSteiner = false
		opts.ForceGroupBuffers = true
		en := NewEngine(nt, cands, lib, tech, opts)
		final, err := en.Construct(order.Identity(nt.N()))
		if err != nil {
			t.Fatal(err)
		}
		sol, _, err := en.Extract(final, Goal{})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := en.BuildTree(sol)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.IsCaTree(opts.Alpha); err != nil {
			t.Fatalf("seed %d: not a Cα tree: %v\n%s", seed, err, tr)
		}
	}
}

// TestGoalModes: variant II returns the smallest area meeting the floor;
// variant I respects the budget.
func TestGoalModes(t *testing.T) {
	nt, cands, lib, tech := testSetup(6, 90, 10)
	opts := exactOpts()
	opts.MaxSols = 8
	en := NewEngine(nt, cands, lib, tech, opts)
	final, err := en.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	best, bestReq, err := en.Extract(final, Goal{Mode: GoalMaxReq})
	if err != nil {
		t.Fatal(err)
	}
	// Budget below the unconstrained optimum's area must yield less area.
	if best.Area > 0 {
		capped, cappedReq, err := en.Extract(final, Goal{Mode: GoalMaxReq, AreaBudget: best.Area / 2})
		if err == nil {
			if capped.Area > best.Area/2 {
				t.Fatalf("budget violated: %.0f > %.0f", capped.Area, best.Area/2)
			}
			if cappedReq > bestReq+1e-9 {
				t.Fatalf("budgeted run cannot beat the unconstrained optimum")
			}
		}
	}
	// Variant II at a floor just under the optimum must meet it with minimal
	// area ≤ the optimum's.
	floor := bestReq - 0.05
	sol2, req2, err := en.Extract(final, Goal{Mode: GoalMinArea, ReqFloor: floor})
	if err != nil {
		t.Fatal(err)
	}
	if req2 < floor {
		t.Fatalf("variant II missed its floor: %.6f < %.6f", req2, floor)
	}
	if sol2.Area > best.Area {
		t.Fatalf("variant II used more area (%.0f) than the max-req solution (%.0f)", sol2.Area, best.Area)
	}
}

// TestMerlinLoopMonotone: the chosen cost never worsens from loop to loop,
// and MaxLoops is honored.
func TestMerlinLoopMonotone(t *testing.T) {
	nt, cands, lib, tech := testSetup(7, 4, 9)
	opts := exactOpts()
	opts.MaxSols = 5
	opts.MaxLoops = 3
	en := NewEngine(nt, cands, lib, tech, opts)
	res, err := en.Merlin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loops > opts.MaxLoops {
		t.Fatalf("ran %d loops with MaxLoops=%d", res.Loops, opts.MaxLoops)
	}
	// One BUBBLE_CONSTRUCT pass from the same initial order is MERLIN's
	// first loop, so it must not beat MERLIN.
	once := opts
	once.MaxLoops = 1
	first, err := Merlin(nt, cands, lib, tech, once, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Loops != 1 {
		t.Fatalf("MaxLoops=1 ran %d loops", first.Loops)
	}
	if res.ReqAtDriverInput < first.ReqAtDriverInput {
		t.Fatalf("MERLIN (req %.6f) lost to its own first loop (req %.6f)", res.ReqAtDriverInput, first.ReqAtDriverInput)
	}
}

// TestGammaMemoReuse: a second Construct over the same order must be much
// cheaper (all Γ sub-problems hit the cross-iteration memo).
func TestGammaMemoReuse(t *testing.T) {
	nt, cands, lib, tech := testSetup(6, 6, 8)
	opts := exactOpts()
	opts.MaxSols = 5
	en := NewEngine(nt, cands, lib, tech, opts)
	if _, err := en.Construct(order.Identity(nt.N())); err != nil {
		t.Fatal(err)
	}
	calls := en.StarDPCalls
	if _, err := en.Construct(order.Identity(nt.N())); err != nil {
		t.Fatal(err)
	}
	if en.StarDPCalls != calls {
		t.Fatalf("identical reconstruct ran %d extra starDP calls", en.StarDPCalls-calls)
	}
}

// TestCoincidentGammaKeys: grouping structures that coincide, as the paper
// notes, share one memo id: all of them at L = 1, and χ1 and χ2 at L = 2.
// Structures that differ keep their own ids even over the same sinks, which
// another order can place under another structure.
func TestCoincidentGammaKeys(t *testing.T) {
	nt, cands, lib, tech := testSetup(6, 6, 8)
	en := NewEngine(nt, cands, lib, tech, exactOpts())
	key := func(ord order.Order, l int, e Chi, r int) int32 {
		return en.gammaID(e, ord, SinkSet(r, l+Stretch(e), e))
	}
	id := order.Identity(nt.N())
	// χ1 holds sink q at r = q, χ2 at r = q+1 (a span of two with a hole).
	for q := 1; q < nt.N()-1; q++ {
		if a, b, c := key(id, 1, Chi0, q), key(id, 1, Chi1, q), key(id, 1, Chi2, q+1); a != b || a != c {
			t.Errorf("sink %d: one-sink ids χ0 %d, χ1 %d, χ2 %d, want one", q, a, b, c)
		}
	}
	for r := 2; r < nt.N(); r++ {
		if a, b := key(id, 2, Chi1, r), key(id, 2, Chi2, r); a != b {
			t.Errorf("(2, χ1, %d) has id %d and (2, χ2, %d) %d, want one", r, a, r, b)
		}
	}
	// Sinks {0, 1, 3}: χ1 at L = 3 under the identity (hole at position 2),
	// χ2 with its hole at position 1 under a swap of sinks 1 and 2.
	if a, b := key(id, 3, Chi1, 3), key(order.Order{0, 2, 1, 3, 4, 5}, 3, Chi2, 3); a == b {
		t.Errorf("χ1 and χ2 at L = 3 over sinks {0, 1, 3} share id %d", a)
	}
	// Sinks {2, 3}: χ0 at L = 2 under the identity, χ1 with sink 5 in its
	// hole.
	if a, b := key(id, 2, Chi0, 3), key(order.Order{0, 1, 2, 5, 3, 4}, 2, Chi1, 4); a == b {
		t.Errorf("χ0 and χ1 at L = 2 over sinks {2, 3} share id %d", a)
	}
}

// TestWarmEngineMatchesFresh: the memo is keyed by content alone, so an
// engine that has already built other orders must return, for every order,
// exactly the final curve a fresh engine builds — triple for triple in
// curve order. The orders chain TSP, three random neighbors and the identity,
// so later constructions reuse intervals and sub-groups of earlier ones.
// The option sets cover both pipelines of a final interval: with
// BufferAtSteiner off or ForceGroupBuffers on, a final interval is built
// differently from the non-final interval with the same items.
func TestWarmEngineMatchesFresh(t *testing.T) {
	for _, v := range []struct {
		name string
		set  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"no-steiner-buffers", func(o *Options) { o.BufferAtSteiner = false }},
		{"force-group-buffers", func(o *Options) { o.ForceGroupBuffers = true }},
		{"max-internal-2", func(o *Options) { o.MaxInternalChildren = 2 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			warmMatchesFresh(t, 5, 140, v.set)
			warmMatchesFresh(t, 6, 160, v.set)
		})
	}
}

// warmMatchesFresh runs one seeded net's order chain through one warm
// engine and compares each final curve at the source, and each Γ entry of
// the construct at every candidate, with a fresh engine's.
func warmMatchesFresh(t *testing.T, n int, seed int64, set func(*Options)) {
	nt, cands, lib, tech := testSetup(n, seed, 8)
	opts := DefaultOptions()
	set(&opts)
	rng := rand.New(rand.NewSource(seed))
	orders := []order.Order{order.TSP(nt.Source, nt.SinkPoints())}
	for i := 0; i < 3; i++ {
		orders = append(orders, order.RandomNeighbor(orders[len(orders)-1], 0.5, rng))
	}
	orders = append(orders, order.Identity(nt.N()))
	warm := NewEngine(nt, cands, lib, tech, opts)
	for i, pi := range orders {
		got, err := warm.Construct(pi)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewEngine(nt, cands, lib, tech, opts)
		want, err := fresh.Construct(pi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Sols, want.Sols) {
			t.Fatalf("n=%d order %d %v: warm curve %v, fresh %v", n, i, pi, got.Sols, want.Sols)
		}
		for l := range warm.gamma {
			for e := range warm.gamma[l] {
				for r, id := range warm.gamma[l][e] {
					g, w := &warm.memo[id], &fresh.memo[fresh.gamma[l][e][r]]
					if !slices.Equal(g.sols, w.sols) || !slices.Equal(g.off, w.off) {
						t.Fatalf("n=%d order %d %v: Γ(%d, %v, %d) warm %v %v, fresh %v %v", n, i, pi, l+1, Chi(e), r, g.off, g.sols, w.off, w.sols)
					}
				}
			}
		}
	}
}

// TestTopLevelAtSourceOnly: Fig. 9 reads the top sub-problem Γ(n, χ0, n−1)
// at the source alone (lines 21–22), so a construct builds that level there
// alone. After it, the final Γ's memo entry and the final interval of each
// of that Γ's *PTREE calls hold solutions at the source and at no other
// candidate, while the Γ entries one level down still hold curves at other
// candidates. A second order on the same engine, and a repeat of the first
// served from the memo, keep it so. The option sets cover both pipelines of
// a final interval, the relaxed class and a two-hop transfer.
func TestTopLevelAtSourceOnly(t *testing.T) {
	for _, v := range []struct {
		name string
		set  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"no-steiner-buffers", func(o *Options) { o.BufferAtSteiner = false }},
		{"force-group-buffers", func(o *Options) { o.ForceGroupBuffers = true }},
		{"max-internal-2", func(o *Options) { o.MaxInternalChildren = 2 }},
		{"two-transfer-hops", func(o *Options) { o.TransferHops = 2 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			nt, cands, lib, tech := testSetup(6, 160, 8)
			opts := DefaultOptions()
			v.set(&opts)
			en := NewEngine(nt, cands, lib, tech, opts)
			tsp := order.TSP(nt.Source, nt.SinkPoints())
			for _, pi := range []order.Order{tsp, order.Identity(nt.N()), tsp} {
				if _, err := en.Construct(pi); err != nil {
					t.Fatal(err)
				}
				checkTopLevelAtSource(t, en, pi)
			}
		})
	}
}

// checkTopLevelAtSource checks the top level of en's last construct, over
// order pi, as TestTopLevelAtSourceOnly describes.
func checkTopLevelAtSource(t *testing.T, en *Engine, pi order.Order) {
	t.Helper()
	n, src := en.Net.N(), en.SourceIndex()
	atSourceOnly := func(what string, id int32) {
		t.Helper()
		e := &en.memo[id]
		if !e.stored() || len(e.at(src)) == 0 {
			t.Fatalf("order %v: %s (memo id %d) holds no solution at the source", pi, what, id)
		}
		for p := range en.Cands {
			if l := e.at(p); p != src && len(l) > 0 {
				t.Fatalf("order %v: %s (memo id %d) holds %d solutions at candidate %d", pi, what, id, len(l), p)
			}
		}
	}
	atSourceOnly("the final Γ", en.gamma[n-1][Chi0][n-1])
	en.g = appendSinkSet(en.g[:0], n-1, n, Chi0)
	en.scanCalls(n, n-1, n)
	if len(en.calls) == 0 {
		t.Fatalf("order %v: the final Γ has no calls", pi)
	}
	for i := range en.calls {
		en.items = en.callItems(en.items[:0], en.ord, i)
		atSourceOnly(fmt.Sprintf("call %d's final interval", i), en.finalID(en.items))
	}
	elsewhere := false
	for _, id := range en.gamma[n-2][Chi0] {
		for p := range en.Cands {
			if e := &en.memo[id]; p != src && e.stored() && len(e.at(p)) > 0 {
				elsewhere = true
			}
		}
	}
	if !elsewhere {
		t.Fatalf("order %v: no Γ(%d, χ0, ·) holds a curve away from the source", pi, n-1)
	}
}

// TestConstructRejectsBadOrders covers the error paths.
func TestConstructRejectsBadOrders(t *testing.T) {
	nt, cands, lib, tech := testSetup(4, 1, 6)
	en := NewEngine(nt, cands, lib, tech, exactOpts())
	if _, err := en.Construct(order.Order{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := en.Construct(order.Order{0, 0, 1, 2}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := en.Construct(nil); err == nil {
		t.Error("nil order accepted")
	}
}

// TestSourceInCandidates: the engine must append the source if missing and
// dedupe candidate points.
func TestSourceInCandidates(t *testing.T) {
	nt, _, lib, tech := testSetup(4, 2, 6)
	dup := []geom.Point{{X: 100, Y: 100}, {X: 100, Y: 100}, {X: 200, Y: 200}}
	en := NewEngine(nt, dup, lib, tech, exactOpts())
	if en.Cands[en.SourceIndex()] != nt.Source {
		t.Fatal("source candidate missing")
	}
	seen := map[geom.Point]bool{}
	for _, p := range en.Cands {
		if seen[p] {
			t.Fatalf("duplicate candidate %v", p)
		}
		seen[p] = true
	}
}

// TestExtractGoalFallback: an impossible required-time floor falls back to
// the best-req solution rather than failing.
func TestExtractGoalFallback(t *testing.T) {
	nt, cands, lib, tech := testSetup(4, 3, 6)
	en := NewEngine(nt, cands, lib, tech, exactOpts())
	final, err := en.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	_, reqBest, err := en.Extract(final, Goal{Mode: GoalMaxReq})
	if err != nil {
		t.Fatal(err)
	}
	_, reqFall, err := en.Extract(final, Goal{Mode: GoalMinArea, ReqFloor: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if reqFall != reqBest {
		t.Fatalf("fallback req %.6f != best req %.6f", reqFall, reqBest)
	}
}

// TestBuildTreeRejectsBadHandles: BuildTree names a stored solution by its
// triple, so a solution that is no solution of the final curve at the
// source is an error, not a panic.
func TestBuildTreeRejectsBadHandles(t *testing.T) {
	nt, cands, lib, tech := testSetup(4, 3, 6)
	en := NewEngine(nt, cands, lib, tech, exactOpts())
	final, err := en.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := en.Extract(final, Goal{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.BuildTree(sol); err != nil {
		t.Fatalf("extracted solution: %v", err)
	}
	for _, bad := range []curve.Solution{
		{Load: sol.Load, Req: sol.Req + 1, Area: sol.Area},
		{Load: -1, Req: sol.Req, Area: sol.Area},
	} {
		tr, err := en.BuildTree(bad)
		if err == nil || !strings.Contains(err.Error(), "is no solution of the last construct's curve") {
			t.Fatalf("solution %v: got tree %v, error %v; want the no-such-solution error", bad, tr, err)
		}
	}
}

// TestStoredListsAreBounded: a memo entry stores the lists of all its
// candidates back to back in one block, and each candidate's list, read in
// place, ends where the next one starts. Appending to it, directly or by a
// kernel insert that evicts nothing, must copy the list and leave the next
// candidate's triples unchanged.
func TestStoredListsAreBounded(t *testing.T) {
	nt, cands, lib, tech := testSetup(5, 11, 7)
	opts := exactOpts()
	opts.MaxSols = 4
	en := NewEngine(nt, cands, lib, tech, opts)
	final, err := en.Construct(order.Identity(nt.N()))
	if err != nil {
		t.Fatal(err)
	}
	// Nothing dominates it, and it dominates nothing: no stored solution has
	// zero load, and every one has a better required time.
	extra := curve.Solution{Load: 0, Req: -1e9, Area: 0}
	checked := 0
	for id := range en.memo {
		e := &en.memo[id]
		if !e.stored() {
			continue
		}
		for p := 0; p+1 < len(en.Cands); p++ {
			l, next := e.at(p), e.at(p+1)
			if len(l) == 0 || len(next) == 0 {
				continue
			}
			if &e.sols[e.off[p+1]] != &next[0] {
				t.Fatalf("memo id %d: candidate %d's list is not in the entry's block", id, p+1)
			}
			want := slices.Clone(next)
			grown := append(l, extra)
			c := curve.Curve{Sols: l}
			if c.Insert(extra) != 1 {
				t.Fatalf("memo id %d candidate %d: %v was not admitted", id, p, extra)
			}
			if &grown[0] == &l[0] || &c.Sols[0] == &l[0] {
				t.Fatalf("memo id %d candidate %d: an append wrote into the block", id, p)
			}
			if !slices.Equal(e.at(p+1), want) {
				t.Fatalf("memo id %d: appending to candidate %d changed candidate %d's list to %v, want %v", id, p, p+1, e.at(p+1), want)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d adjacent pairs of non-empty lists checked", checked)
	}
	stored := &en.memo[en.gamma[nt.N()-1][Chi0][nt.N()-1]]
	before := slices.Clone(stored.sols)
	final.Sols = append(final.Sols, extra)
	if !slices.Equal(stored.sols, before) {
		t.Fatalf("appending to the final curve changed the stored block to %v, want %v", stored.sols, before)
	}
}
