package router

import (
	"sync"
	"time"

	"merlin/pkg/client"
)

// breakerState is one backend's circuit-breaker position.
type breakerState int

const (
	// stateClosed: healthy; requests flow.
	stateClosed breakerState = iota
	// stateOpen: ejected; requests skip this backend until openUntil.
	stateOpen
	// stateHalfOpen: the ejection timeout expired and exactly one trial
	// request is allowed through; success closes the breaker, failure
	// re-opens it with a longer timeout.
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateClosed:
		return "closed"
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// backend is one ring member's live state: circuit breaker and counters.
// The breaker answers only "is it failing?" (connection errors, 5xx), from
// forward outcomes, with exponential ejection. "Did it ask us to stop?" is
// gossip's question (Router.drained), so a draining backend keeps a closed
// breaker and serves again the moment its digest says ready.
type backend struct {
	id string // base URL

	mu        sync.Mutex
	state     breakerState
	fails     int       // consecutive failures while closed
	ejections int       // consecutive opens; exponent for the ejection timeout
	openUntil time.Time // when open, the half-open trial time
	trialing  bool      // half-open: one trial in flight

	// counters (under mu; snapshot via stats)
	forwards uint64 // proxy attempts sent
	failures uint64 // breaker-visible failures (conn error / 5xx)
	opens    uint64 // closed/half-open → open transitions
	recovers uint64 // half-open → closed transitions
}

// breakerPolicy tunes the state machine.
type breakerPolicy struct {
	// threshold is how many consecutive failures open a closed breaker.
	threshold int
	// backoff maps the consecutive-ejection count to the open duration —
	// the same exponential machinery pkg/client retries with (satisfying
	// one definition of "how fast do we come back" repo-wide).
	backoff *client.Backoff
}

// admissible reports whether the breaker lets a request go to this backend
// right now, transitioning open → half-open when the ejection timeout has
// expired. In half-open, only one caller at a time is admitted; the bool
// result is the admission ticket and MUST be followed by exactly one
// recordSuccess/recordFailure (which clears the trial slot).
func (b *backend) admissible(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if now.Before(b.openUntil) {
			return false
		}
		b.state = stateHalfOpen
		b.trialing = true
		return true
	case stateHalfOpen:
		if b.trialing {
			return false
		}
		b.trialing = true
		return true
	}
	return false
}

// recordSuccess reports a backend that answered: half-open closes
// (recovery), consecutive-failure and ejection counters reset.
func (b *backend) recordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == stateHalfOpen {
		b.recovers++
	}
	b.state = stateClosed
	b.fails = 0
	b.ejections = 0
	b.trialing = false
}

// recordFailure reports a breaker-visible failure (connection error or
// backend 5xx): a half-open trial re-opens immediately with a longer
// timeout; a closed breaker opens after `threshold` consecutive failures.
func (b *backend) recordFailure(now time.Time, pol breakerPolicy) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.trialing = false
	switch b.state {
	case stateHalfOpen:
		b.openLocked(now, pol)
	case stateClosed:
		b.fails++
		if b.fails >= pol.threshold {
			b.openLocked(now, pol)
		}
	case stateOpen:
		// Failures while already open (forwards admitted before it opened)
		// extend nothing: the ejection clock is set at open time.
	}
}

// openLocked transitions to open with an exponentially growing timeout.
// Callers hold b.mu.
func (b *backend) openLocked(now time.Time, pol breakerPolicy) {
	b.state = stateOpen
	b.fails = 0
	b.opens++
	b.openUntil = now.Add(pol.backoff.Delay(b.ejections, 0))
	b.ejections++
}

// BackendStats is one backend's /v1/stats row.
type BackendStats struct {
	State     string `json:"state"`   // closed | open | half_open
	Drained   bool   `json:"drained"` // gossip says not ready (Router.drained)
	Forwards  uint64 `json:"forwards"`
	Failures  uint64 `json:"failures"`
	Opens     uint64 `json:"opens"`
	Recovers  uint64 `json:"recovers"`
	Ejections int    `json:"consecutive_ejections"`
}

// stats snapshots the breaker; the caller fills in Drained.
func (b *backend) stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{
		State:     b.state.String(),
		Forwards:  b.forwards,
		Failures:  b.failures,
		Opens:     b.opens,
		Recovers:  b.recovers,
		Ejections: b.ejections,
	}
}
