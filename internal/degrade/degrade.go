// Package degrade implements merlind's graceful-degradation ladder: a
// quality-ordered sequence of solvers the repository already contains,
// behind one Solve entry point that serves the best answer the remaining
// budget affords instead of failing the request.
//
// MERLIN's own structure defines the ladder. The full Cα_Tree search with
// bubbling subsumes the bubble-free DP (restricting the grouping structures
// to Chi0 recovers Lillis et al.'s *P_Tree recursion); LT-Tree type-I
// construction is the α=∞ special case of the same family (Lemma 3); and
// plain van Ginneken insertion on a fixed routing tree is the degenerate
// rung where topology search is skipped entirely. Each rung down trades
// solution quality for a smaller search space:
//
//	tier      solver                              paper grounding
//	full      Cα_Tree + bubbling (Flow III)       §III, Table 1 "MERLIN"
//	nobubble  Cα_Tree, Chis = {Chi0}              Lillis DAC'96 *P_Tree DP
//	lttree    LT-Tree type-I + PTREE (Flow I)     Lemma 3 (α=∞ special case)
//	vangin    PTREE route + GI90 insert (Flow II) van Ginneken on fixed tree
//
// Ladder.Solve runs the highest admissible tier under a slice of the
// request's wall-time budget, reserving the remainder for the rungs below,
// and falls down a rung when a tier exhausts its slice
// (core.ErrBudgetWallTime), outgrows the solution budget
// (core.ErrBudgetSolutions), or panics (contained per tier). The result is
// annotated with the tier served, every tier attempted, and the tier's
// expected quality relative to full.
//
// Hysteresis is the brownout rule that picks the rung merlind admits
// degradable work at; merlinrouter's fleet brownout uses it too.
package degrade

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"merlin/internal/core"
	"merlin/internal/faultinject"
	"merlin/internal/flows"
	"merlin/internal/net"
	"merlin/internal/trace"
)

// Tier identifies one rung of the ladder. Tiers are ordered best-first:
// a numerically larger tier is cheaper and expected to be no better.
type Tier int

const (
	// TierFull is the complete MERLIN search (Flow III): Cα_Tree DP over all
	// four grouping structures with bubbling.
	TierFull Tier = iota
	// TierNoBubble restricts the same DP to Chi0 — no bubbles — which is the
	// *P_Tree recursion of Lillis et al. (DAC'96). Same engine, strictly
	// smaller search space.
	TierNoBubble
	// TierLTTree is Flow I: LT-Tree type-I fanout construction (the α=∞
	// special case of Cα_Tree, Lemma 3) followed by per-level PTREE routing.
	TierLTTree
	// TierVanGin is Flow II: PTREE routing of the whole net on the TSP
	// order, then van Ginneken buffer insertion on the fixed topology. The
	// bottom rung: no topology search under timing at all.
	TierVanGin

	numTiers
)

// String renders the wire name of a tier.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierNoBubble:
		return "nobubble"
	case TierLTTree:
		return "lttree"
	case TierVanGin:
		return "vangin"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier parses a wire name ("full", "nobubble", "lttree", "vangin").
func ParseTier(s string) (Tier, error) {
	for t := TierFull; t < numTiers; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("degrade: unknown tier %q", s)
}

// Tiers returns all tiers, best first.
func Tiers() []Tier {
	out := make([]Tier, numTiers)
	for i := range out {
		out[i] = Tier(i)
	}
	return out
}

// QualityFactor is the tier's expected solution quality relative to the
// full tier (1.0), a coarse a-priori estimate read off the paper's Table 1
// ratios (MERLIN vs. the sequential flows on comparable nets). It is an
// expectation, not a guarantee — responses pair it with the tree's actual
// evaluated required time and buffer area so callers can judge how far
// below full-tier expectation a degraded answer landed.
func (t Tier) QualityFactor() float64 {
	switch t {
	case TierFull:
		return 1.0
	case TierNoBubble:
		return 0.95
	case TierLTTree:
		return 0.85
	}
	return 0.75
}

// tierWeight is each tier's share of the remaining wall-time pool when
// rungs below it are still in reserve: the full search gets the lion's
// share, the bubble-free DP half of that, and the cheap constructive tiers
// run in whatever is left (they are orders of magnitude faster, so a small
// reservation suffices). The bottom admissible rung always gets everything
// that remains.
func tierWeight(t Tier) int {
	switch t {
	case TierFull:
		return 8
	case TierNoBubble:
		return 4
	}
	return 1
}

// Request is one ladder invocation.
type Request struct {
	// Net is the net to route.
	Net *net.Net
	// Profile carries the solver knobs; the full tier runs it unchanged, so
	// an undegraded ladder answer is identical to a direct Flow III run.
	Profile flows.Profile
	// Start is the highest-quality tier to attempt — TierFull normally, a
	// lower rung when the brownout controller has pre-degraded admission.
	Start Tier
	// Floor is the lowest tier the caller admits. Start is clamped to Floor;
	// Floor == TierFull means no degradation is allowed and the ladder is a
	// plain Flow III run.
	Floor Tier
	// EngineFor supplies the DP engine for the engine-backed tiers (full,
	// nobubble), letting the service reuse per-worker memoized engines.
	// The profile passed in already has the tier applied (TierProfile); the
	// returned engine's Chis must match it. nil builds a fresh engine per
	// attempt.
	EngineFor func(t Tier, p flows.Profile) *core.Engine
}

// Attempt records one tier try.
type Attempt struct {
	Tier Tier
	// Err is why the tier did not produce the answer ("" for the tier that
	// did). Panics are contained per tier and recorded here.
	Err string
	// Runtime is the attempt's wall time.
	Runtime time.Duration
}

// Result is a ladder answer: the winning tier's flow result plus the
// degradation annotations.
type Result struct {
	flows.Result
	// Tier is the rung that produced the answer.
	Tier Tier
	// Degraded reports Tier != TierFull.
	Degraded bool
	// Quality is Tier.QualityFactor(): the expected quality of this answer
	// relative to an undegraded one.
	Quality float64
	// Attempts lists every tier tried, in order, including the winner.
	Attempts []Attempt
}

// TierProfile specializes a profile for a tier. Only the nobubble tier
// changes anything: it restricts the grouping structures to Chi0, turning
// the Cα_Tree DP into the bubble-free *P_Tree recursion. Chis is part of
// the engine identity (it keys the DP memos), so engine caches must key on
// the tier as well as the base profile.
func TierProfile(t Tier, p flows.Profile) flows.Profile {
	if t == TierNoBubble {
		p.Core.Chis = []core.Chi{core.Chi0}
	}
	return p
}

// Ladder is the tiered solver. The zero value is ready to use.
type Ladder struct{}

// Solve runs the ladder: tiers from req.Start down to req.Floor, each under
// its slice of the remaining wall-time pool, falling a rung on budget
// exhaustion, tier error, or contained panic. It returns the first tier
// that produces a valid result. When every admissible tier fails, the
// error is the last (cheapest) tier's — by then the budget verdicts of the
// expensive rungs are moot.
//
// Deadline pressure is handled by construction: the wall pool is the
// smaller of the context's remaining deadline and the profile's
// Budget.MaxWallTime, and a tier with rungs in reserve below it only ever
// gets its weighted share of that pool, so exhausting a slice surfaces as
// core.ErrBudgetWallTime — "too slow for this rung" — with wall time still
// in hand for the rungs below. The bottom admissible rung runs under the
// request's own budget unchanged, so a ladder with Floor == TierFull is
// byte-identical to a direct Flow III run, including its error taxonomy
// (a context deadline there is still the caller's 504, not a 422).
func (l Ladder) Solve(ctx context.Context, req Request) (Result, error) {
	if err := faultinject.Fire(faultinject.SiteDegradeLadder); err != nil {
		return Result{}, fmt.Errorf("degrade: ladder: %w", err)
	}
	start, floor := req.Start, req.Floor
	if floor < TierFull || floor >= numTiers {
		return Result{}, fmt.Errorf("degrade: invalid floor tier %d", int(floor))
	}
	if start < TierFull {
		start = TierFull
	}
	if start > floor {
		// The brownout controller wants a cheaper rung than this request
		// admits; the request's floor wins.
		start = floor
	}
	pool := wallPool(ctx, req.Profile.Core.Budget)
	began := time.Now()
	res := Result{}
	var lastErr error
	for t := start; t <= floor; t++ {
		if err := ctx.Err(); err != nil {
			// The caller is gone; surface their verdict, not a tier's.
			return Result{Attempts: res.Attempts}, err
		}
		p := TierProfile(t, req.Profile)
		if t < floor && pool > 0 {
			// Rungs remain below: run this tier under its weighted slice of
			// what is left, reserving the rest. The original per-request
			// MaxWallTime still caps the slice.
			remaining := pool - time.Since(began)
			if remaining <= 0 {
				remaining = time.Millisecond
			}
			slice := remaining * time.Duration(tierWeight(t)) / time.Duration(weightSum(t, floor))
			if slice < time.Millisecond {
				slice = time.Millisecond
			}
			if p.Core.Budget.MaxWallTime == 0 || slice < p.Core.Budget.MaxWallTime {
				p.Core.Budget.MaxWallTime = slice
			}
		}
		attemptStart := time.Now()
		fr, err := l.runTier(ctx, t, req, p)
		at := Attempt{Tier: t, Runtime: time.Since(attemptStart)}
		if err == nil {
			res.Result = fr
			res.Tier = t
			res.Degraded = t != TierFull
			res.Quality = t.QualityFactor()
			res.Attempts = append(res.Attempts, at)
			return res, nil
		}
		at.Err = err.Error()
		res.Attempts = append(res.Attempts, at)
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The parent context died mid-tier; no rung below can run.
			break
		}
	}
	if start == floor {
		// A single admissible rung is not a ladder failure: surface that
		// rung's own verdict verbatim, so a Floor == TierFull request reads
		// exactly like a direct Flow III run.
		return Result{Attempts: res.Attempts}, lastErr
	}
	return Result{Attempts: res.Attempts}, fmt.Errorf("degrade: all tiers %s..%s failed: %w", start, floor, lastErr)
}

// runTier runs one rung with per-tier panic containment, so a panic in a
// higher tier degrades the request instead of failing it (the chaos test
// forces exactly this via SiteDegradeTier).
func (l Ladder) runTier(ctx context.Context, t Tier, req Request, p flows.Profile) (fr flows.Result, err error) {
	// rung.<tier>: one ladder attempt. The span closes inside the
	// panic-containment defer, after a contained panic has been rewritten
	// into err, so a panicking rung still shows up as a failed span.
	ctx, sp := trace.StartSpan(ctx, "rung."+t.String())
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: panic in tier %s: %v\n%s", core.ErrInternal, t, r, debug.Stack())
		}
		if err != nil {
			sp.SetAttr("error", "true")
		}
		sp.End()
	}()
	if err := faultinject.Fire(faultinject.SiteDegradeTier); err != nil {
		return flows.Result{}, fmt.Errorf("degrade: tier %s: %w", t, err)
	}
	switch t {
	case TierFull, TierNoBubble:
		en := (*core.Engine)(nil)
		if req.EngineFor != nil {
			en = req.EngineFor(t, p)
		}
		if en == nil {
			en = flows.NewEngineIII(req.Net, p)
		}
		return flows.RunFlowIIIOn(ctx, en, p)
	case TierLTTree:
		// Flow I is a monolithic DP without context support; its slice of
		// the pool bounds what we hand it, not what it checks. It is cheap
		// enough (seconds-scale nets run in ms) that this is acceptable.
		return flows.RunCtx(ctx, flows.FlowI, req.Net, p)
	default:
		return flows.RunCtx(ctx, flows.FlowII, req.Net, p)
	}
}

// wallPool is the total wall time the ladder may spend: the smaller of the
// context's remaining deadline and the request's own MaxWallTime budget.
// 0 means unbounded (no slicing happens; each tier runs under the
// request's budget as-is).
func wallPool(ctx context.Context, b core.Budget) time.Duration {
	pool := b.MaxWallTime
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); pool == 0 || rem < pool {
			pool = rem
		}
	}
	if pool < 0 {
		pool = 0
	}
	return pool
}

func weightSum(from, to Tier) int {
	s := 0
	for t := from; t <= to; t++ {
		s += tierWeight(t)
	}
	return s
}
