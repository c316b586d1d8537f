package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"merlin/internal/buflib"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/rc"
)

// §II notes that "simulated annealing is a special case of local
// neighborhood search that sometimes allows uphill moves". Annealer is that
// generalization of MERLIN's outer loop: instead of always re-seeding with
// the best order of the current neighborhood, it proposes random members of
// N(Π) (plus occasional random restarts of the proposal temperature) and
// accepts worsening moves with the Metropolis criterion. Because each
// BUBBLE_CONSTRUCT call already searches a whole neighborhood optimally,
// the annealer explores the order space in neighborhood-sized strides —
// the comparison bench shows when the extra wandering pays off.

// AnnealOptions configure the outer annealing schedule.
type AnnealOptions struct {
	// Engine carries the inner-engine knobs.
	Engine Options
	// Moves is the total number of BUBBLE_CONSTRUCT evaluations.
	Moves int
	// T0 is the initial temperature in cost units (ns of required time);
	// 0 derives it from the first move's cost spread.
	T0 float64
	// Cooling is the geometric cooling factor per move.
	Cooling float64
	// PSwap is the per-position swap probability when proposing a random
	// neighbor of the current order.
	PSwap float64
	// Seed drives the proposal stream.
	Seed int64
}

// DefaultAnnealOptions returns a modest schedule for experimentation.
func DefaultAnnealOptions() AnnealOptions {
	return AnnealOptions{
		Engine:  DefaultOptions(),
		Moves:   12,
		Cooling: 0.8,
		PSwap:   0.4,
		Seed:    1,
	}
}

// AnnealResult reports an annealing run.
type AnnealResult struct {
	Result
	// Accepted counts accepted moves (including improving ones).
	Accepted int
	// Uphill counts accepted worsening moves.
	Uphill int
}

// Anneal runs the simulated-annealing variant of the outer search.
func Anneal(n *net.Net, cands []geom.Point, lib *buflib.Library, tech rc.Technology, opts AnnealOptions, initOrder order.Order) (*AnnealResult, error) {
	if opts.Moves <= 0 {
		opts.Moves = 12
	}
	if opts.Cooling <= 0 || opts.Cooling >= 1 {
		opts.Cooling = 0.8
	}
	if opts.PSwap <= 0 || opts.PSwap > 1 {
		opts.PSwap = 0.4
	}
	start := time.Now()
	en := NewEngine(n, cands, lib, tech, opts.Engine)
	if err := n.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	pi := initOrder
	if pi == nil {
		pi = order.TSP(n.Source, n.SinkPoints())
	}
	if !pi.Valid() || len(pi) != n.N() {
		return nil, fmt.Errorf("core: initial order must be a permutation of the %d sinks", n.N())
	}

	res := &AnnealResult{}
	evaluate := func(o order.Order) (float64, order.Order, func() error, error) {
		final, err := en.Construct(o)
		if err != nil {
			return 0, nil, nil, err
		}
		sol, reqAt, err := en.Extract(final, en.Opts.Goal)
		if err != nil {
			return 0, nil, nil, err
		}
		cost := en.costOf(sol, reqAt)
		commit := func() error {
			t, err := en.BuildTree(sol)
			if err != nil {
				return err
			}
			res.Tree = t
			res.Solution = sol
			res.ReqAtDriverInput = reqAt
			res.FinalOrder = t.SinkOrder()
			res.Frontier = final[en.srcIdx]
			return nil
		}
		tr, err := en.BuildTree(sol)
		if err != nil {
			return 0, nil, nil, err
		}
		return cost, tr.SinkOrder(), commit, nil
	}

	curCost, curOrder, commit, err := evaluate(pi)
	if err != nil {
		return nil, err
	}
	bestCost := curCost
	if err := commit(); err != nil {
		return nil, err
	}
	res.Loops = 1

	temp := opts.T0
	if temp <= 0 {
		temp = math.Max(1e-3, math.Abs(curCost)*0.02)
	}
	for move := 1; move < opts.Moves; move++ {
		proposal := order.RandomNeighbor(curOrder, opts.PSwap, rng)
		if proposal.Equal(curOrder) {
			proposal = curOrder.Swap(rng.Intn(len(curOrder) - 1))
		}
		cost, realized, commitMove, err := evaluate(proposal)
		if err != nil {
			return nil, err
		}
		res.Loops++
		delta := cost - curCost
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			res.Accepted++
			if delta > 0 {
				res.Uphill++
			}
			curCost, curOrder = cost, realized
			if cost < bestCost {
				bestCost = cost
				if err := commitMove(); err != nil {
					return nil, err
				}
			}
		}
		temp *= opts.Cooling
	}
	// As in MerlinCtx: the frontier is the caller's copy, not the memo's.
	res.Frontier = res.Frontier.Clone()
	res.Runtime = time.Since(start)
	return res, nil
}
