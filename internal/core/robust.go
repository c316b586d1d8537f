package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// This file is the engine's robustness boundary: typed errors for the two
// ways a construction can fail without the caller being at fault, the
// per-request resource budget the DP enforces, and the recover guard that
// converts internal panics (including the invariant panics of group.go and
// anything else reachable via Construct/Merlin) into errors a serving layer
// can map to a status code instead of a dead worker.

// ErrInternal wraps a recovered panic from inside the engine. It means a
// bug, not a bad input: the engine's invariants (SinkSet spans, grouping
// structures, reconstruction refs) were violated. The wrapped message
// carries the panic value and stack.
var ErrInternal = errors.New("core: internal error")

// ErrBudgetExceeded means a construction outgrew its resource Budget and
// was aborted. The DP's solution-curve growth is input-dependent — a
// pathological net can balloon the 3-D non-inferior frontiers the way
// worst-case buffer-insertion curves do — so services bound it with hard
// budgets rather than hope. Serving layers map it to 422.
var ErrBudgetExceeded = errors.New("core: resource budget exceeded")

// ErrBudgetSolutions and ErrBudgetWallTime refine ErrBudgetExceeded with
// which bound tripped. Both satisfy errors.Is(err, ErrBudgetExceeded), so
// existing callers keep working; callers that care (the degradation ladder,
// the HTTP taxonomy) can tell "the problem is too big" (MaxSolutions — a
// retry with the same budget is pointless) from "the problem is too slow"
// (MaxWallTime — a cheaper tier or a later retry may still fit).
var (
	ErrBudgetSolutions = fmt.Errorf("%w: solution budget", ErrBudgetExceeded)
	ErrBudgetWallTime  = fmt.Errorf("%w: wall-time budget", ErrBudgetExceeded)
)

// Budget bounds one construction's resource usage. The zero value is
// unlimited; any field set to a positive value is enforced.
type Budget struct {
	// MaxSolutions caps the total number of solutions retained across all of
	// the DP's sub-problem curves during one search. Retained solutions are
	// the DP's dominant memory term (each is a flat triple and index; their
	// reconstruction records live only while their cell runs), so this is a
	// direct memory bound: the engine aborts within one sub-problem of
	// crossing it, and a sub-problem adds at most k·MaxSols solutions.
	MaxSolutions int
	// MaxWallTime caps the wall-clock time of the whole search, checked at
	// the same per-sub-problem granularity as context cancellation. Unlike a
	// context deadline it surfaces as ErrBudgetExceeded, distinguishing "the
	// problem is too big for its budget" (422) from "the client gave up"
	// (timeout).
	MaxWallTime time.Duration
}

// enforced reports whether any bound is set; unbudgeted runs skip the
// accounting entirely.
func (b Budget) enforced() bool { return b.MaxSolutions > 0 || b.MaxWallTime > 0 }

// beginBudget opens a budget window unless one is already open: MerlinCtx
// opens it for the whole outer search, so the ConstructCtx calls inside run
// against the same accumulating account. It reports whether this caller
// opened the window (and so must close it).
func (en *Engine) beginBudget() bool {
	if en.budgetActive {
		return false
	}
	en.budgetActive = true
	en.budgetUsed = 0
	en.budgetStart = time.Now()
	return true
}

func (en *Engine) endBudget() { en.budgetActive = false }

// chargeSols charges a just-stored sub-problem result (one curve per
// candidate) against the budget. Memo hits are charged like fresh
// computations: what the budget bounds is the working set referenced by
// this run, which includes re-used curves.
func (en *Engine) chargeSols(e *entry) {
	if !en.budgetActive || !en.Opts.Budget.enforced() {
		return
	}
	en.budgetUsed += len(e.sols)
}

// checkBudget returns ErrBudgetExceeded if the open budget window is
// overdrawn. Callers invoke it at sub-problem granularity, next to the
// context check.
func (en *Engine) checkBudget() error {
	b := en.Opts.Budget
	if b.MaxSolutions > 0 && en.budgetUsed > b.MaxSolutions {
		return fmt.Errorf("%w: %d solutions retained, budget %d (n=%d, α=%d)",
			ErrBudgetSolutions, en.budgetUsed, b.MaxSolutions, en.Net.N(), en.Opts.Alpha)
	}
	if b.MaxWallTime > 0 {
		if elapsed := time.Since(en.budgetStart); elapsed > b.MaxWallTime {
			return fmt.Errorf("%w: %v elapsed, budget %v", ErrBudgetWallTime, elapsed.Round(time.Millisecond), b.MaxWallTime)
		}
	}
	return nil
}

// BudgetUsed reports the solutions retained during the current (or most
// recent) budget window; tests use it to assert the bound held.
func (en *Engine) BudgetUsed() int { return en.budgetUsed }

// recoverToErr is the deferred recover guard of the engine boundary
// (ConstructCtx, MerlinCtx): it converts a panic into ErrInternal carrying
// the panic value and stack, so one corrupted request cannot take down a
// worker that has other requests behind it. Context/budget errors already
// in flight are preserved. It must be called directly from a defer.
func recoverToErr(err *error) {
	r := recover()
	if r == nil {
		return
	}
	*err = fmt.Errorf("%w: panic: %v\n%s", ErrInternal, r, debug.Stack())
}
