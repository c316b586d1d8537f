package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"merlin/internal/buflib"
	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/rc"
	"merlin/internal/trace"
	"merlin/internal/tree"
)

// Result is the output of a MERLIN run.
type Result struct {
	// Tree is the hierarchical buffered routing tree ℜ.
	Tree *tree.Tree
	// Solution is the chosen point of the final 3-D curve.
	Solution curve.Solution
	// ReqAtDriverInput is the required time at the driver input for the
	// chosen solution, per the DP's nominal-slew model.
	ReqAtDriverInput float64
	// Loops is the number of BUBBLE_CONSTRUCT invocations until the sink
	// order reached a fixpoint (the paper's "Loops" column).
	Loops int
	// FinalOrder is the realized sink order of the returned tree.
	FinalOrder order.Order
	// Frontier is the final non-inferior curve at the source (Fig. 8),
	// useful for area/required-time trade-off exploration. It is the
	// caller's copy: editing it leaves the engine's memo untouched.
	Frontier *curve.Curve
	// Runtime is the wall-clock time of the whole search.
	Runtime time.Duration
}

// Merlin runs the outer local-neighborhood search (Fig. 14): repeated
// BUBBLE_CONSTRUCT calls, each optimally searching the neighborhood of the
// current order; the realized sink order of the best structure seeds the
// next iteration; the loop stops at an order fixpoint (or Opts.MaxLoops).
//
// initOrder may be nil, in which case the TSP order of [LCLH96] is used —
// the paper's Setup III choice.
func Merlin(n *net.Net, cands []geom.Point, lib *buflib.Library, tech rc.Technology, opts Options, initOrder order.Order) (*Result, error) {
	en := NewEngine(n, cands, lib, tech, opts)
	return en.Merlin(initOrder)
}

// MerlinCtx is Merlin with cooperative cancellation; see Engine.MerlinCtx.
func MerlinCtx(ctx context.Context, n *net.Net, cands []geom.Point, lib *buflib.Library, tech rc.Technology, opts Options, initOrder order.Order) (*Result, error) {
	en := NewEngine(n, cands, lib, tech, opts)
	return en.MerlinCtx(ctx, initOrder)
}

// Merlin runs the outer search on an existing engine (reusing its memo).
//
// Like every Engine method, Merlin is not safe for concurrent use: it mutates
// the engine's memo tables. One engine per goroutine; see NewEngine.
func (en *Engine) Merlin(initOrder order.Order) (*Result, error) {
	return en.MerlinCtx(context.Background(), initOrder)
}

// MerlinCtx runs the outer search with cooperative cancellation: ctx is
// checked between outer-loop iterations (and, via ConstructCtx, between the
// DP's sub-problems), so a deadline or cancel aborts the search within one
// sub-problem. The returned error wraps ctx.Err() on cancellation.
//
// MerlinCtx is an engine boundary (see robust.go): internal panics anywhere
// in the search — construction, extraction, tree rebuild — surface as
// errors wrapping ErrInternal, and Opts.Budget spans the whole outer search
// (every iteration draws on the same account), surfacing as
// ErrBudgetExceeded.
func (en *Engine) MerlinCtx(ctx context.Context, initOrder order.Order) (out *Result, err error) {
	defer recoverToErr(&err)
	if en.beginBudget() {
		defer en.endBudget()
	}
	start := time.Now()
	if err := en.Net.Validate(); err != nil {
		return nil, err
	}
	pi := initOrder
	if pi == nil {
		// dp.order: the TSP-heuristic initial sink order (Fig. 14 line 1).
		_, osp := trace.StartSpan(ctx, "dp.order")
		pi = order.TSP(en.Net.Source, en.Net.SinkPoints())
		osp.End()
	}
	if !pi.Valid() || len(pi) != en.Net.N() {
		return nil, fmt.Errorf("core: initial order must be a permutation of the %d sinks", en.Net.N())
	}

	res := &Result{}
	bestCost := costInf
	var best []curve.Solution // the best loop's final curve at the source
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: merlin canceled after %d loops: %w", res.Loops, err)
		}
		res.Loops++
		// dp.construct: one BUBBLE_CONSTRUCT pass over the current order —
		// the DP hot phase a traced request mostly consists of.
		cctx, csp := trace.StartSpan(ctx, "dp.construct")
		csp.SetAttr("loop", strconv.Itoa(res.Loops))
		frontier, err := en.construct(cctx, pi)
		csp.End()
		if err != nil {
			return nil, err
		}
		// dp.extract: final eval — walk the frontier for the goal's best
		// solution and rebuild its embedded tree. The frontier is read in
		// place, from the stored block.
		_, esp := trace.StartSpan(ctx, "dp.extract")
		sol, reqAt, err := en.extract(frontier, en.Opts.Goal)
		if err != nil {
			esp.End()
			return nil, err
		}
		t, err := en.BuildTree(sol)
		esp.End()
		if err != nil {
			return nil, err
		}
		next := t.SinkOrder()
		if !next.Valid() {
			return nil, fmt.Errorf("core: extracted tree does not realize a sink order")
		}
		cost := en.costOf(sol, reqAt)
		improved := cost < bestCost
		if improved {
			bestCost = cost
			res.Tree = t
			res.Solution = sol
			res.ReqAtDriverInput = reqAt
			res.FinalOrder = next
			best = frontier
		}
		if next.Equal(pi) {
			break // order fixpoint: N(Π) holds nothing better (Fig. 14 line 8)
		}
		if !improved && res.Loops > 1 {
			// Theorem 7: the best cost strictly decreases except on the last
			// visit; a non-improving iteration means convergence even when
			// equal-cost neighbors keep the order string churning.
			break
		}
		pi = next
		if en.Opts.MaxLoops > 0 && res.Loops >= en.Opts.MaxLoops {
			break
		}
	}
	// The best loop's curve belongs to the engine's memo; hand out a copy
	// so a caller that trims or edits it cannot corrupt later searches.
	res.Frontier = &curve.Curve{Sols: slices.Clone(best)}
	res.Runtime = time.Since(start)
	return res, nil
}

const costInf = 1e300

// costOf maps a solution to the scalar MERLIN descends on, per the goal:
// variant I descends on −required-time (area only as tie-break via the
// budget filter); variant II descends on buffer area.
func (en *Engine) costOf(sol curve.Solution, reqAt float64) float64 {
	switch en.Opts.Goal.Mode {
	case GoalMinArea:
		if reqAt >= en.Opts.Goal.ReqFloor {
			return sol.Area
		}
		// Infeasible solutions sort after all feasible ones, closer floors
		// first, so the search still makes progress toward feasibility.
		return costInf/2 + (en.Opts.Goal.ReqFloor - reqAt)
	default:
		return -reqAt
	}
}
