package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"merlin/internal/buflib"
	"merlin/internal/curve"
	"merlin/internal/faultinject"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/rc"
)

// GoalMode selects the problem variant of §III.1.
type GoalMode int

const (
	// GoalMaxReq maximizes the driver required time, optionally subject to a
	// total buffer area budget (variant I).
	GoalMaxReq GoalMode = iota
	// GoalMinArea minimizes total buffer area subject to a required-time
	// floor at the driver input (variant II).
	GoalMinArea
)

// Goal is the optimization objective handed to extraction (Fig. 9 line 21).
type Goal struct {
	Mode GoalMode
	// AreaBudget caps total buffer area for GoalMaxReq; 0 means unbounded.
	AreaBudget float64
	// ReqFloor is the minimum driver-input required time for GoalMinArea.
	ReqFloor float64
}

// Options tune BUBBLE_CONSTRUCT and MERLIN.
type Options struct {
	// Alpha is the maximum branching factor α of the Cα_Tree (Definition 2).
	Alpha int
	// MaxSols caps every solution curve; 0 = uncapped. See DESIGN.md §5.
	MaxSols int
	// TransferHops is the number of candidate-to-candidate relaxation sweeps
	// per DP interval (the S = min{d(p,p′)+S′} recursion of §3.2.3).
	TransferHops int
	// BufferAtSteiner enables buffer insertion at interior routing Steiner
	// points (the full *P_Tree). When false, buffers appear only at Cα_Tree
	// internal nodes.
	BufferAtSteiner bool
	// MaxInternalChildren bounds how many internal nodes an internal node
	// may have among its immediate children: 0 or 1 (the default) is
	// Definition 2's Cα_Tree, whose internal nodes form a chain (Lemma 2); 2
	// enables the relaxed class §3.2.1 mentions, at a significant enumeration
	// cost. Construction enumerates at most pairs of inner groups, so larger
	// values are rejected.
	MaxInternalChildren int
	// ForceGroupBuffers drops unbuffered roots from every sub-group curve,
	// so each internal node of the hierarchy really is a buffer; with
	// BufferAtSteiner off (Steiner-point buffers are internal nodes outside
	// the hierarchy) the output is a strict Cα_Tree (Definition 2). The
	// paper's base case keeps both options ("driven with or without a
	// buffer"), letting a group stay a plain Steiner point; structural tests
	// use this switch to pin the strict form, where the buffer-fanout bound
	// α is observable in the final tree.
	ForceGroupBuffers bool
	// Chis lists the grouping structures to explore. nil means all four;
	// []Chi{Chi0} disables bubbling (the ablation of experiment E8).
	Chis []Chi
	// MaxLoops bounds MERLIN's outer iterations; 0 means run to the order
	// fixpoint (Theorem 7 guarantees termination).
	MaxLoops int
	// Goal selects the extraction objective.
	Goal Goal
	// Budget bounds one search's resource usage (retained solutions, wall
	// time); the zero value is unlimited. Exceeding it aborts with
	// ErrBudgetExceeded. Like Goal and MaxLoops, Budget does not shape the
	// memoized curves, so engines may be reused across budgets.
	Budget Budget
}

// DefaultOptions returns a balanced configuration.
func DefaultOptions() Options {
	return Options{
		Alpha:           8,
		MaxSols:         8,
		TransferHops:    1,
		BufferAtSteiner: true,
	}
}

// rootWindow restricts the candidate roots of each sub-group to points
// within its sink bounding box inflated by this fraction of the net's
// half-perimeter (plus the source, always). This is the standard P-Tree
// candidate-pruning heuristic: structures rooted far from everything they
// drive are dominated once the connecting wire is charged. It cuts the k²
// transfer and k join work per sub-problem at a small optimality cost
// (measured in the E6/E8 benches).
const rootWindow = 0.08

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 8
	}
	if o.TransferHops <= 0 {
		o.TransferHops = 1
	}
	if len(o.Chis) == 0 {
		o.Chis = []Chi{Chi0, Chi1, Chi2, Chi3}
	}
	return o
}

// refKind discriminates ref shapes.
type refKind int8

const (
	refLeaf  refKind = iota // direct wire from point to sink a
	refJoin                 // two parts joined at point: a of interval [.., u], b of [u+1, ..]
	refVia                  // wire from point to a's point
	refBuf                  // buffer gate b at point driving a
	refGroup                // solution a of inner group b's stored curve at point
	refCall                 // solution a of the b-th *PTREE call's final curve at point
)

// ref is one record of a cell's reconstruction table (see replay.go). While
// a cell runs, each of its curves' Refs holds the handle of the record that
// rebuilds a solution's structure, and a record's a names either another
// record of the cell (refVia, refBuf) or, by its index, a solution of a
// stored list the cell reads (refJoin, refGroup, refCall). The cell stores
// its curves' triples alone: a stored solution is named by its index in its
// list, and the records go with the next cell.
type ref struct {
	kind  refKind
	point int32 // candidate index the structure is rooted at
	a     int32 // refLeaf: net sink index; otherwise the handle or index of the (left) part
	b     int32 // refJoin: index of the right part; refBuf: gate index in Lib.Buffers; refGroup: the group's memo id; refCall: the call's index in Engine.calls
	u     int32 // refJoin: the split item
}

// memoKey names a memoized key by its longest proper prefix and last code.
type memoKey struct{ prefix, code int32 }

// finalCode ends the key of a final *PTREE interval whose pipeline differs
// from that of the non-final interval with the same items. A Γ key starts
// with its structure's code −1−χ; item codes are ≥ 0, so no two kinds of key
// share an id.
const finalCode = -1 - int32(NumChi)

// Engine runs BUBBLE_CONSTRUCT for one net over a fixed candidate set,
// library and technology. It is reusable across MERLIN iterations; its memo
// persists so overlapping neighborhoods share sub-solutions (the OVERLAP
// reuse discussed in §III.4).
type Engine struct {
	Net   *net.Net
	Cands []geom.Point
	Lib   *buflib.Library
	Tech  rc.Technology
	Opts  Options

	srcIdx int
	dist   [][]int64
	margin int64 // root-window inflation in λ

	// ids and memo are the memo: the per-candidate curves of every Γ
	// sub-problem and every *PTREE interval computed so far, keyed by
	// content. A key is a sequence of int32 codes, interned one code at a
	// time: ids maps (prefix id, next code) to the key's id, and memo[id]
	// holds its curves once computed (see entry). Id 0 is the empty key,
	// which never holds curves. A Γ key is its structure's code followed by
	// its net-sink indices (see gammaID); an interval key is its items'
	// codes (see itemCode). Curves depend only on content (Lemma 7), so
	// entries serve every (L,E,R) sub-problem and every MERLIN iteration:
	// this is the OVERLAP optimization of §III.4.
	ids  map[memoKey]int32
	memo []entry
	// ivl holds one starDP call's interval ids, [a*t+b] for interval [a, b].
	ivl []int32
	// ord and gamma are the last successful ConstructCtx's order and the
	// memo ids of its Γ(L, E, R), indexed [L-1][E][R]; BuildTree replays
	// that construct's cells. ord is empty while no construct has finished.
	ord   order.Order
	gamma [][][]int32
	// g holds the sink set of the (L, E, R) sub-problem being built or
	// replayed, and inG marks its order positions while its inner groups
	// are scanned.
	g   []int
	inG []bool
	// inner holds one (L, E, R) sub-problem's legal inner groups, whose sink
	// sets slice innerSinks, and calls its *PTREE calls.
	inner      []innerGroup
	innerSinks []int
	calls      []call
	// pts, keyed and items are buildItems' working lists; items holds the
	// items of the call being computed.
	pts   []geom.Point
	keyed []keyedItem
	items []item

	// refs holds the reconstruction records of the cell being computed or
	// replayed; every cell resets it when it starts. rec reports whether the
	// running cell writes records at all: a construct computes triples alone,
	// except in a final interval under ForceGroupBuffers, whose
	// keepBufferedRoots reads its records, and every replayed cell writes
	// them. Without records, the cell's curves carry no handles.
	refs curve.Refs[ref]
	rec  bool
	// scratch is the curve every join, buffer and wire pass accumulates
	// into; its capped result is sealed and moved into a curve of cur (see
	// storeScratch).
	scratch curve.Curve
	// base is bufferScratch's copy of the capped scratch, the source its
	// buffer pass reads while it inserts into the scratch.
	base curve.Curve
	// mask is intervalMask's result, reused by every interval.
	mask []bool
	// cur holds, per candidate, the curves of the cell being computed or
	// replayed, with their handles; a computed cell's triples are stored
	// from it as one block. pre holds an interval's curves before a
	// transfer hop, which reads them while it writes cur, srcs views their
	// solution lists and corners holds their corners, computed once per hop.
	cur, pre []curve.Curve
	srcs     [][]curve.Solution
	corners  []curve.Solution
	// trees keeps the expanded records of every solution BuildTree has
	// rebuilt, so a repeat rebuild replays nothing.
	trees map[treeKey][]ref

	// StarDPCalls counts *PTREE calls that ran the interval DP; MemoHits
	// counts *PTREE intervals, whole calls included, served from the memo;
	// Replays counts the cells BuildTree re-ran to rebuild trees.
	StarDPCalls int
	MemoHits    int
	Replays     int

	// budget accounting (see robust.go); valid inside one budget window.
	budgetActive bool
	budgetUsed   int
	budgetStart  time.Time
}

// NewEngine prepares an engine. The candidate set is deduplicated and the
// source position appended if missing.
//
// Concurrency contract: an Engine is NOT safe for concurrent use. Construct
// and Merlin mutate the engine's memo (ids, curves), its scratch curves, its
// stats counters and its per-cell table of reconstruction records, which
// every cell resets (a construct writes records only in a final interval
// under ForceGroupBuffers), without synchronization, and BuildTree replays
// cells, which write their records into the same table, into the same
// scratch curves and adds to the engine's kept trees — the memo is the
// whole point of engine reuse (§III.4's OVERLAP optimization), and guarding
// them would serialize the DP hot loops. Use one Engine per goroutine. The
// inputs (net, candidates, library, technology) are only read, so any
// number of engines may share them; this is what a worker pool relies on
// when each worker owns its engines over shared immutable nets and
// libraries (see internal/service, TestEnginePerGoroutine and
// TestFlowsConcurrent).
func NewEngine(n *net.Net, cands []geom.Point, lib *buflib.Library, tech rc.Technology, opts Options) *Engine {
	en := &Engine{
		Net: n, Lib: lib, Tech: tech, Opts: opts.withDefaults(),
		ids:  map[memoKey]int32{},
		memo: []entry{{}},
	}
	en.Cands = geom.Dedup(cands)
	en.srcIdx = -1
	for i, p := range en.Cands {
		if p == n.Source {
			en.srcIdx = i
			break
		}
	}
	if en.srcIdx < 0 {
		en.srcIdx = len(en.Cands)
		en.Cands = append(en.Cands, n.Source)
	}
	k := len(en.Cands)
	en.mask = make([]bool, k)
	en.cur = make([]curve.Curve, k)
	en.pre = make([]curve.Curve, k)
	en.srcs = make([][]curve.Solution, k)
	en.corners = make([]curve.Solution, k)
	en.trees = map[treeKey][]ref{}
	en.inG = make([]bool, n.N())
	en.gamma = make([][][]int32, n.N())
	for L := range en.gamma {
		en.gamma[L] = make([][]int32, NumChi)
		for e := range en.gamma[L] {
			en.gamma[L][e] = make([]int32, n.N())
		}
	}
	en.dist = make([][]int64, k)
	for i := range en.dist {
		en.dist[i] = make([]int64, k)
		for j := range en.dist[i] {
			en.dist[i][j] = geom.Dist(en.Cands[i], en.Cands[j])
		}
	}
	hp := geom.BoundingBox(n.Terminals()).HalfPerimeter()
	en.margin = int64(rootWindow * float64(hp))
	return en
}

// intervalMask returns, for a run of items, which candidate roots are inside
// the items' inflated bounding box (the source is always allowed). The mask
// is the engine's, valid until the next call.
func (en *Engine) intervalMask(items []item) []bool {
	box := items[0].bbox
	for _, it := range items[1:] {
		b := it.bbox
		if b.Min.X < box.Min.X {
			box.Min.X = b.Min.X
		}
		if b.Min.Y < box.Min.Y {
			box.Min.Y = b.Min.Y
		}
		if b.Max.X > box.Max.X {
			box.Max.X = b.Max.X
		}
		if b.Max.Y > box.Max.Y {
			box.Max.Y = b.Max.Y
		}
	}
	box.Min.X -= en.margin
	box.Min.Y -= en.margin
	box.Max.X += en.margin
	box.Max.Y += en.margin
	mask := en.mask
	for i, p := range en.Cands {
		mask[i] = box.Contains(p)
	}
	mask[en.srcIdx] = true
	return mask
}

// SourceIndex returns the candidate index of the net source.
func (en *Engine) SourceIndex() int { return en.srcIdx }

// innerGroup is an already-solved sub-group Γ(l, e, r) nested in the
// sub-group being constructed, where it can become a child.
type innerGroup struct {
	id    int32 // memo id of the group's Γ key
	sinks []int // order positions covered, ascending (SinkSet)
	r     int   // rightmost span position
	span  int   // span length l + Stretch(e)
	e     Chi
}

// left returns the group's leftmost span position.
func (g *innerGroup) left() int { return g.r - g.span + 1 }

// call is one *PTREE call of a Γ sub-problem: inner group a alone (b < 0)
// or with inner group b, both indices into Engine.inner.
type call struct {
	a, b  int
	final int32 // memo id of the call's final interval
}

// item is one child of the sub-group being constructed: either a directly
// attached sink or an inner sub-group.
type item struct {
	group   int32     // memo id of the inner group's Γ key; 0 for sinks
	sinkIdx int       // net sink index (valid when group == 0)
	pos     int       // order position (sinks only; diagnostic)
	bbox    geom.Rect // bounding box of the item's sinks (root window)
}

// Construct runs BUBBLE_CONSTRUCT (Fig. 9) for the given sink order and
// returns the final solution curve at the source, Γ(n, χ0, R=n−1) rooted
// at the driver. Use Extract / BuildTree on the result.
func (en *Engine) Construct(ord order.Order) (*curve.Curve, error) {
	return en.ConstructCtx(context.Background(), ord)
}

// ConstructCtx is Construct with cooperative cancellation: the DP checks
// ctx between (L, E, R) sub-problems — the outer loops of Fig. 9 — and
// returns an error wrapping ctx.Err() once the context is done. Sub-problems
// are the natural check granularity: each is itself a bounded *PTREE call,
// so cancellation latency is one sub-problem, not one whole construction.
//
// ConstructCtx is an engine boundary: panics from the DP internals
// (including the invariant panics of group.go) are recovered and returned
// as errors wrapping ErrInternal, and Opts.Budget is enforced at the same
// sub-problem granularity as cancellation, returning ErrBudgetExceeded when
// the retained-solution count or wall-time bound is crossed.
//
// The final curve reads the engine's memo entry in place: its solution list
// is the source's part of the stored block (see entry), which later
// constructions read back, so callers must treat it as read-only and Clone
// it before trimming or editing it.
func (en *Engine) ConstructCtx(ctx context.Context, ord order.Order) (final *curve.Curve, err error) {
	defer recoverToErr(&err)
	if en.beginBudget() {
		defer en.endBudget()
	}
	src, err := en.construct(ctx, ord)
	if err != nil {
		return nil, err
	}
	return &curve.Curve{Sols: src}, nil
}

// construct is ConstructCtx inside the caller's budget window and panic
// guard. It returns the final curve at the source, read in place from the
// final Γ's memo entry.
func (en *Engine) construct(ctx context.Context, ord order.Order) ([]curve.Solution, error) {
	n := len(ord)
	if n == 0 || n != en.Net.N() || !ord.Valid() {
		return nil, fmt.Errorf("core: order must be a permutation of the %d sinks", en.Net.N())
	}
	if en.Opts.MaxInternalChildren > 2 {
		return nil, fmt.Errorf("core: MaxInternalChildren is %d, but at most 2 internal children per node are enumerated", en.Opts.MaxInternalChildren)
	}

	// The memo ids of Γ(L, E, R, ·). Entries stay 0, the empty key, when the
	// span does not fit; a Γ with no solution keeps its id without curves.
	// Either way its entry holds no curves.
	en.ord = en.ord[:0]
	gamma := en.gamma
	for _, row := range gamma {
		for _, ids := range row {
			clear(ids)
		}
	}

	// INITIALIZATION (lines 1–4): length-1 sub-groups for every structure,
	// candidate and rightmost position: non-inferior paths from the
	// candidate to the (single) sink, driven with or without a buffer.
	for _, e := range en.Opts.Chis {
		for r := 0; r < n; r++ {
			if !SpanFits(n, r, 1, e) {
				continue
			}
			en.g = appendSinkSet(en.g[:0], r, 1+Stretch(e), e)
			if len(en.g) != 1 {
				continue
			}
			key := en.gammaID(e, ord, en.g)
			gamma[0][e][r] = key
			if !en.memo[key].stored() {
				en.leafCell(ord[en.g[0]], false)
				en.memo[key] = storeEntry(en.cur)
			}
			en.chargeSols(&en.memo[key])
		}
	}
	if err := en.checkBudget(); err != nil {
		return nil, err
	}

	// CONSTRUCTION (lines 5–20). Lines 21–22 read the top sub-problem
	// Γ(n, χ0, n−1) at the source alone, so that level is built there alone:
	// its calls' final intervals run their last transfer hop into the
	// source, and its Γ cell accumulates there.
	for L := 2; L <= n; L++ {
		root := -1
		if L == n {
			root = en.srcIdx
		}
		for _, E := range en.Opts.Chis {
			span := L + Stretch(E)
			if span > n {
				continue
			}
			for R := n - 1; R >= span-1; R-- {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("core: construct canceled at L=%d: %w", L, err)
				}
				if err := en.checkBudget(); err != nil {
					return nil, err
				}
				if err := faultinject.Fire(faultinject.SiteCoreConstruct); err != nil {
					return nil, fmt.Errorf("core: construct aborted at L=%d: %w", L, err)
				}
				if !SpanFits(n, R, L, E) {
					continue
				}
				en.g = appendSinkSet(en.g[:0], R, span, E)
				key := en.gammaID(E, ord, en.g)
				gamma[L-1][E][R] = key
				if !en.memo[key].stored() {
					en.scanCalls(L, R, span)
					for i := range en.calls {
						en.items = en.callItems(en.items[:0], ord, i)
						en.calls[i].final = en.starDP(en.items, root)
					}
					if !en.gammaCell(root, false) {
						continue
					}
					en.memo[key] = storeEntry(en.cur)
				}
				en.chargeSols(&en.memo[key])
			}
		}
	}

	top := &en.memo[gamma[n-1][Chi0][n-1]]
	if !top.stored() {
		return nil, fmt.Errorf("core: no solution constructed (n=%d, α=%d)", n, en.Opts.Alpha)
	}
	src := top.at(en.srcIdx)
	assertFinalCurves(src, "construct")
	en.ord = append(en.ord, ord...)
	return src, nil
}

// scanCalls lists the *PTREE calls of sub-problem Γ(L, E, R), whose span
// and sink set en.g were fixed by the caller, from the Γ ids of the current
// construct. en.inner gets the solved groups Γ(l, e, r) inside the span, in
// (l, χ, r) order; line 15 skips incompatible nestings (g ⊄ G). en.calls
// gets the calls they make: every group alone that keeps the fanout within
// α, then, with MaxInternalChildren = 2, every admissible pair. The scan
// depends only on the span and G, so Γ ids that structures share are
// scanned alike.
func (en *Engine) scanCalls(L, R, span int) {
	n := len(en.gamma)
	for _, q := range en.g {
		en.inG[q] = true
	}
	// A child group of l sinks leaves L−l direct sinks, so one group keeps
	// the fanout within α from l ≥ L−α+1 on. With MaxInternalChildren = 2,
	// two disjoint groups of at most L−2 sinks each may also be children:
	// the relaxed class §3.2.1 sketches after Definition 2, whose hierarchy
	// is a tree of buffers instead of Lemma 2's chain.
	lMin := max(1, L-en.Opts.Alpha+1)
	lo := lMin
	if en.Opts.MaxInternalChildren >= 2 {
		lo = 1
	}
	inner, sinks := en.inner[:0], en.innerSinks[:0]
	for l := lo; l <= L-1; l++ {
		for _, e := range en.Opts.Chis {
			ispan := l + Stretch(e)
			if ispan < minSpan(e) {
				continue
			}
			for r := R; r-ispan+1 >= R-span+1; r-- {
				if !SpanFits(n, r, l, e) {
					continue
				}
				gid := en.gamma[l-1][e][r]
				if !en.memo[gid].stored() {
					continue
				}
				at := len(sinks)
				sinks = appendSinkSet(sinks, r, ispan, e)
				g := sinks[at:]
				if len(g) != l || slices.ContainsFunc(g, func(q int) bool { return !en.inG[q] }) {
					sinks = sinks[:at]
					continue
				}
				inner = append(inner, innerGroup{id: gid, sinks: g, r: r, span: ispan, e: e})
			}
		}
	}
	for _, q := range en.g {
		en.inG[q] = false
	}
	calls := en.calls[:0]
	for i := range inner {
		if len(inner[i].sinks) >= lMin {
			calls = append(calls, call{a: i, b: -1})
		}
	}
	if en.Opts.MaxInternalChildren >= 2 {
		for i := range inner {
			for j := i + 1; j < len(inner) && len(inner[j].sinks) <= L-2; j++ {
				a, b := &inner[i], &inner[j]
				// Disjoint spans keep the holes, and so the bubble-out
				// targets, unambiguous; the direct sinks and both groups
				// must fit in α.
				t := L - len(a.sinks) - len(b.sinks) + 2
				if (a.r >= b.left() && b.r >= a.left()) || t < 2 || t > en.Opts.Alpha {
					continue
				}
				calls = append(calls, call{a: i, b: j})
			}
		}
	}
	en.inner, en.innerSinks, en.calls = inner, sinks, calls
}

// callItems appends the items of the i-th call scanCalls listed to dst and
// returns the extended list.
func (en *Engine) callItems(dst []item, ord order.Order, i int) []item {
	c := &en.calls[i]
	if c.b < 0 {
		return en.buildItems(dst, ord, en.g, en.inner[c.a])
	}
	return en.buildItems(dst, ord, en.g, en.inner[c.a], en.inner[c.b])
}

// gammaCell is the cell of one Γ sub-problem: for every candidate, the
// final curves of its *PTREE calls (en.calls, already computed) inserted in
// call order and capped into en.cur. Candidates are independent, so root ≥
// 0 computes that candidate's curve alone, which is all a replay and the
// top level need. rec writes the cell's records. It reports whether any
// computed curve has a solution.
func (en *Engine) gammaCell(root int, rec bool) bool {
	en.refs.Reset()
	en.rec = rec
	any := false
	for p := range en.cur {
		c := clearCurve(&en.cur[p])
		if root >= 0 && p != root {
			continue
		}
		for j := range en.calls {
			for i, s := range en.memo[en.calls[j].final].at(p) {
				var call func() int32
				if rec {
					call = func() int32 {
						return en.refs.Add(ref{kind: refCall, point: int32(p), a: int32(i), b: int32(j)})
					}
				}
				c.InsertRef(s, call)
			}
		}
		c.Cap(en.Opts.MaxSols)
		en.refs.Seal(c)
		if !c.Empty() {
			any = true
		}
	}
	return any
}

// leafCell is the cell of one INITIALIZATION sub-problem: for every
// candidate, the minimum-distance path to net sink s, driven with or
// without a buffer, into en.cur. rec writes the cell's records.
func (en *Engine) leafCell(s int, rec bool) {
	en.refs.Reset()
	en.rec = rec
	for p := range en.cur {
		en.startLeaf(p, s)
		en.bufferScratch(p)
		en.storeScratch(&en.cur[p])
	}
}

// gammaID interns the content identity of a Γ sub-problem: a structure
// code, then the net sinks at order positions pos. Sub-problems with equal
// keys have identical solution curves regardless of where in the order they
// sit or which MERLIN iteration asks (Lemma 7 across the whole run). The
// code is e's, except where structures coincide, as the paper notes: at
// L = 1 every structure holds just its one sink, so all take χ0's code, and
// at L = 2 χ1 and χ2 hold the same sinks {R−2, R} over the same span and
// hole, so χ2 takes χ1's. Parents order and bubble their items by each
// group's own χ and span, never by its key.
func (en *Engine) gammaID(e Chi, ord order.Order, pos []int) int32 {
	switch {
	case len(pos) == 1:
		e = Chi0
	case len(pos) == 2 && e == Chi2:
		e = Chi1
	}
	id := en.intern(0, -1-int32(e))
	for _, q := range pos {
		id = en.intern(id, int32(ord[q]))
	}
	return id
}

// intern returns the id of the key that extends key prefix by code, and
// gives a key it has not seen the next id, with no curves yet.
func (en *Engine) intern(prefix, code int32) int32 {
	k := memoKey{prefix, code}
	if id, ok := en.ids[k]; ok {
		return id
	}
	id := int32(len(en.memo))
	en.ids[k] = id
	en.memo = append(en.memo, entry{})
	return id
}

// itemCode is an item's code in an interval key: a sink's net index, or the
// net's sink count plus the memo id of the inner group's Γ key.
func (en *Engine) itemCode(it *item) int32 {
	if it.group != 0 {
		return int32(len(en.Net.Sinks)) + it.group
	}
	return int32(it.sinkIdx)
}

// startLeaf seeds the scratch curve with the minimum-distance path from
// candidate p to net sink sinkIdx. It is the only solution of its curve, so
// no Cap can drop it, and its record, if the cell writes records, is kept
// directly.
func (en *Engine) startLeaf(p, sinkIdx int) {
	sk := en.Net.Sinks[sinkIdx]
	wl := geom.Dist(en.Cands[p], sk.Pos)
	sc := en.startScratch()
	sc.Sols = append(sc.Sols, curve.Solution{
		Load: en.Tech.QuantizeLoad(sk.Load + en.Tech.WireC(wl)),
		Req:  sk.Req - en.Tech.WireElmore(wl, sk.Load),
	})
	if en.rec {
		sc.Refs = append(sc.Refs, en.refs.Keep(ref{kind: refLeaf, point: int32(p), a: int32(sinkIdx)}))
	}
}

// entry is one memo entry: the curves of all k candidates, stored as one
// block of (load, req, area) triples, candidate p's at
// sols[off[p]:off[p+1]]. The block is written once, when its cell stores
// its curves, and a stored solution's index in its candidate's list is its
// identity. The entries of the top level, built at the source alone (see
// construct), hold an empty list at every other candidate. An entry
// without offsets holds no curves.
type entry struct {
	sols []curve.Solution
	off  []int32
}

// storeEntry copies the triples of a cell's curves, one per candidate, into
// a new entry.
func storeEntry(cs []curve.Curve) entry {
	n := 0
	for p := range cs {
		n += len(cs[p].Sols)
	}
	e := entry{sols: make([]curve.Solution, 0, n), off: make([]int32, len(cs)+1)}
	for p := range cs {
		e.sols = append(e.sols, cs[p].Sols...)
		e.off[p+1] = int32(len(e.sols))
	}
	return e
}

// stored reports whether the entry holds curves.
func (e *entry) stored() bool { return e.off != nil }

// at returns candidate p's solution list, read in place. Its capacity ends
// where the next candidate's list starts, so an append to it copies the
// list instead of writing over the next one.
func (e *entry) at(p int) []curve.Solution {
	lo, hi := e.off[p], e.off[p+1]
	return e.sols[lo:hi:hi]
}

// clearCurve empties c, keeping its lists for reuse, and returns it.
func clearCurve(c *curve.Curve) *curve.Curve {
	c.Sols, c.Refs = c.Sols[:0], c.Refs[:0]
	return c
}

// copyCurve makes dst a copy of src's solutions and handles, reusing dst's
// lists.
func copyCurve(dst, src *curve.Curve) {
	dst.Sols = append(dst.Sols[:0], src.Sols...)
	dst.Refs = append(dst.Refs[:0], src.Refs...)
}

// startScratch empties the scratch curve and returns it.
func (en *Engine) startScratch() *curve.Curve { return clearCurve(&en.scratch) }

// storeScratch caps the scratch curve, seals its survivors' records and
// moves them into c by swapping the two curves' lists: c's old lists become
// the next scratch.
func (en *Engine) storeScratch(c *curve.Curve) {
	sc := &en.scratch
	sc.Cap(en.Opts.MaxSols)
	en.refs.Seal(sc)
	*c, *sc = *sc, *c
}

// bufferScratch caps the scratch curve and seals its survivors' records,
// then adds to it, for every survivor and every library buffer, the variant
// driven by that buffer placed at candidate p. The survivors are read from a
// copy, since Buffer inserts into the scratch in place.
func (en *Engine) bufferScratch(p int) {
	sc := &en.scratch
	sc.Cap(en.Opts.MaxSols)
	en.refs.Seal(sc)
	copyCurve(&en.base, sc)
	var buf func(i, gi int) int32
	if en.rec {
		buf = func(i, gi int) int32 {
			return en.refs.Add(ref{kind: refBuf, point: int32(p), a: en.base.Refs[i], b: int32(gi)})
		}
	}
	sc.Buffer(en.Tech, en.base.Sols, en.Lib.Buffers, buf)
}

// keyedItem is an item with its place in buildItems' ordering.
type keyedItem struct {
	key float64
	it  item
}

// buildItems appends to dst the ordered child list of the sub-group G being
// built: its inner groups, whose spans are pairwise disjoint, plus the
// directly attached sinks, G minus the groups' sinks. Bubble-out (Fig. 5): a
// sink occupying a group's right hole is ordered immediately after that
// group; one occupying its left hole immediately before it. Keys are in
// half-position units to express "just before/after". Two sinks bubbled out
// of adjacent groups into the gap between them tie, and the stable sort keeps
// them in G's order. The working lists are the engine's.
func (en *Engine) buildItems(dst []item, ord order.Order, G []int, groups ...innerGroup) []item {
	keyed := en.keyed[:0]
	for i := range groups {
		gr := &groups[i]
		pts := en.pts[:0]
		for _, q := range gr.sinks {
			pts = append(pts, en.Net.Sinks[ord[q]].Pos)
		}
		en.pts = pts
		keyed = append(keyed, keyedItem{key: float64(gr.left()), it: item{group: gr.id, bbox: geom.BoundingBox(pts)}})
	}
sinks:
	for _, q := range G {
		key := float64(q)
		for i := range groups {
			gr := &groups[i]
			switch {
			case slices.Contains(gr.sinks, q):
				continue sinks
			case gr.e.HasRightBubble() && q == gr.r-1:
				key = float64(gr.r) + 0.5
			case gr.e.HasLeftBubble() && q == gr.left()+1:
				key = float64(gr.left()) - 0.5
			}
		}
		pt := en.Net.Sinks[ord[q]].Pos
		keyed = append(keyed, keyedItem{key: key, it: item{sinkIdx: ord[q], pos: q, bbox: geom.Rect{Min: pt, Max: pt}}})
	}
	slices.SortStableFunc(keyed, func(a, b keyedItem) int { return cmp.Compare(a.key, b.key) })
	for _, kv := range keyed {
		dst = append(dst, kv.it) //lint:allow hotpath-alloc -- dst is the caller's: construct passes the engine's list, a replay's walk one sized to G
	}
	en.keyed = keyed
	return dst
}

// starDP is *PTREE (§3.2.3): the P-Tree interval DP over the ordered item
// list, producing for every candidate p the non-inferior curve of buffered
// routings rooted at p that drive all items; root ≥ 0 builds the final
// interval's curve at that candidate alone (see intervalCell). Every
// interval is memoized by its items' codes, across sub-problems and MERLIN
// iterations. It returns the memo id of the final interval [0, t−1].
func (en *Engine) starDP(items []item, root int) int32 {
	t := len(items)
	id := en.intervalIDs(items)
	if en.memo[id[t-1]].stored() {
		en.MemoHits++
		return id[t-1]
	}
	en.StarDPCalls++
	for length := 1; length <= t; length++ {
		for a := 0; a+length-1 < t; a++ {
			b := a + length - 1
			if en.memo[id[a*t+b]].stored() {
				en.MemoHits++
				continue
			}
			r := -1
			if length == t {
				r = root
			}
			en.intervalCell(items, id, a, b, r, false)
			en.memo[id[a*t+b]] = storeEntry(en.cur)
		}
	}
	return id[t-1]
}

// intervalIDs interns the memo ids of every interval of items into the
// engine's ivl, [a*t+b] for interval [a, b], and returns them.
func (en *Engine) intervalIDs(items []item) []int32 {
	t := len(items)
	if cap(en.ivl) < t*t {
		en.ivl = make([]int32, t*t)
	}
	id := en.ivl[:t*t]
	for a := range items {
		prev := int32(0)
		for b := a; b < t; b++ {
			prev = en.intern(prev, en.itemCode(&items[b]))
			id[a*t+b] = prev
		}
	}
	id[t-1] = en.finalKey(id[t-1])
	return id
}

// finalID interns only the chain of keys that ends in the memo id of items'
// final interval [0, t−1], and returns that id: intervalIDs(items)[t−1].
func (en *Engine) finalID(items []item) int32 {
	id := int32(0)
	for i := range items {
		id = en.intern(id, en.itemCode(&items[i]))
	}
	return en.finalKey(id)
}

// finalKey returns the memo id of the final interval whose items have key
// id. The final interval [0, t−1] runs the buffer passes even with
// BufferAtSteiner off and may drop unbuffered roots (ForceGroupBuffers);
// under either option its key ends with finalCode, and otherwise it shares
// the non-final interval's id.
func (en *Engine) finalKey(id int32) int32 {
	if !en.Opts.BufferAtSteiner || en.Opts.ForceGroupBuffers {
		return en.intern(id, finalCode)
	}
	return id
}

// intervalCell is the cell of interval [a, b] of one *PTREE call's items,
// whose shorter intervals are stored under id: it computes the interval's
// curve at every candidate into en.cur. root < 0 runs the last transfer hop
// into every candidate; root ≥ 0 runs it into that one, which is all a
// replay of that candidate's curve, or a final interval of the top level,
// needs. rec writes the cell's records; a final interval under
// ForceGroupBuffers writes them anyway, since keepBufferedRoots reads them.
//
// Per-interval passes: raw → buffer → transfer → buffer, run in the scratch
// curve as two pipelines: raw (join, leaf or inner group) → buffer below,
// and wire → buffer in transfer's last hop. Buffering before the transfer
// lets "buffer at q, wire q→p" structures migrate to p (a plain-wire detour
// is never useful — Elmore is path-additive — but a buffered one often is);
// the second pass lets a buffer at p drive the incoming wire. This realizes
// the paper's mutual S/S_b recursion with buffers at Steiner points to one
// relaxation depth per level.
func (en *Engine) intervalCell(items []item, id []int32, a, b int, root int, rec bool) {
	t := len(items)
	final := b-a+1 == t
	buffered := final || en.Opts.BufferAtSteiner
	en.refs.Reset()
	en.rec = rec || final && en.Opts.ForceGroupBuffers
	mask := en.intervalMask(items[a : b+1])
	for p := range en.cur {
		c := clearCurve(&en.cur[p])
		if !mask[p] {
			continue
		}
		switch it := &items[a]; {
		case a < b:
			sc := en.startScratch()
			for u := a; u < b; u++ {
				var join func(x, y int) int32
				if en.rec {
					join = func(x, y int) int32 {
						return en.refs.Add(ref{kind: refJoin, point: int32(p), a: int32(x), b: int32(y), u: int32(u)})
					}
				}
				sc.Join(en.memo[id[a*t+u]].at(p), en.memo[id[(u+1)*t+b]].at(p), join)
			}
		case it.group != 0:
			sc := en.startScratch()
			sc.Sols = append(sc.Sols, en.memo[it.group].at(p)...)
			if en.rec {
				for i := range sc.Sols {
					sc.Refs = append(sc.Refs, en.refs.Keep(ref{kind: refGroup, point: int32(p), a: int32(i), b: it.group}))
				}
			}
		default:
			en.startLeaf(p, it.sinkIdx)
		}
		if buffered {
			en.bufferScratch(p)
		}
		en.storeScratch(c)
	}
	en.transfer(mask, buffered, root)
	if final && en.Opts.ForceGroupBuffers {
		for p := range en.cur {
			en.keepBufferedRoots(&en.cur[p])
		}
	}
}

// keepBufferedRoots filters a curve to solutions whose structure root (via
// chains stripped) is a buffer, making the sub-group a true internal node.
// It reads the cell's own records: a final interval joins at least two
// items, so its root, through its via chain, is a join or buffer record
// made in the cell.
func (en *Engine) keepBufferedRoots(c *curve.Curve) {
	w := 0
	for i, h := range c.Refs {
		r := en.refs.At(h)
		for r.kind == refVia {
			r = en.refs.At(r.a)
		}
		if r.kind == refBuf {
			c.Sols[w], c.Refs[w] = c.Sols[i], h
			w++
		}
	}
	c.Sols, c.Refs = c.Sols[:w], c.Refs[:w]
}

// transfer relaxes an interval's curves across candidate locations: a
// structure rooted at p′ may serve root p through a direct wire p→p′ (the
// S = min{d(p,p′)+S′} recursion). Opts.TransferHops sweeps are performed;
// with buffered, the last one also runs the buffer pass on each target
// before storing it. Each sweep is Jacobi: it swaps en.cur into en.pre, and
// every target reads the sources there, as they stood before the sweep,
// while it writes its curve in en.cur. So the last sweep may run into root
// alone (root ≥ 0).
func (en *Engine) transfer(mask []bool, buffered bool, root int) {
	for hop := 1; hop <= en.Opts.TransferHops; hop++ {
		en.pre, en.cur = en.cur, en.pre
		pre := en.pre
		for q := range pre {
			en.srcs[q] = pre[q].Sols
			en.corners[q] = curve.Corner(pre[q].Sols)
		}
		for p := range en.cur {
			c := clearCurve(&en.cur[p])
			if !mask[p] || (hop == en.Opts.TransferHops && root >= 0 && p != root) {
				continue
			}
			copyCurve(&en.scratch, &pre[p])
			var via func(q, i int) int32
			if en.rec {
				via = func(q, i int) int32 {
					return en.refs.Add(ref{kind: refVia, point: int32(p), a: pre[q].Refs[i]})
				}
			}
			en.scratch.Wire(en.Tech, en.srcs, en.corners, en.dist[p], p, 0, via)
			if buffered && hop == en.Opts.TransferHops {
				en.bufferScratch(p)
			}
			en.storeScratch(c)
		}
	}
}

// Extract picks the solution of the final curve at the source that best
// satisfies the goal (Fig. 9 lines 21–22), accounting for the driver's
// load-dependent delay, and returns the solution together with its
// driver-input required time.
func (en *Engine) Extract(final *curve.Curve, goal Goal) (curve.Solution, float64, error) {
	return en.extract(final.Sols, goal)
}

// extract is Extract on the final curve's solution list, src.
func (en *Engine) extract(src []curve.Solution, goal Goal) (curve.Solution, float64, error) {
	if len(src) == 0 {
		return curve.Solution{}, 0, fmt.Errorf("core: no solution at source")
	}
	drv := en.Net.DriverOr(en.Lib.Driver)
	switch goal.Mode {
	case GoalMaxReq:
		if i, req := curve.BestAtDriver(src, &en.Tech, &drv, goal.AreaBudget); i >= 0 {
			return src[i], req, nil
		}
	case GoalMinArea:
		var best curve.Solution
		bestReq, found := 0.0, false
		for _, s := range src {
			req := s.ReqAtDriver(&en.Tech, &drv)
			if req < goal.ReqFloor {
				continue
			}
			if !found || s.Area < best.Area || (s.Area == best.Area && req > bestReq) {
				best, bestReq, found = s, req, true
			}
		}
		if found {
			return best, bestReq, nil
		}
		// Infeasible floor: fall back to the max-req solution so callers
		// still get the closest structure; they can detect the shortfall.
		return en.extract(src, Goal{Mode: GoalMaxReq})
	}
	return curve.Solution{}, 0, fmt.Errorf("core: no solution satisfies the goal")
}
