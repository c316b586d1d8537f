package service

import (
	"time"

	"merlin/internal/degrade"
)

// brownoutTier is the ladder rung degradable requests are admitted at right
// now.
func (s *Server) brownoutTier() degrade.Tier { return degrade.Tier(s.brown.Level()) }

// brownoutLoop runs the adaptive overload controller: a sampling loop that
// shifts incoming degradable work down the degradation ladder before the
// bounded queue saturates, so 429 + Retry-After becomes the last resort
// instead of the first. It never touches requests that do not allow
// degradation — those keep full quality or a structured rejection.
//
// The control signal is deliberately simple: queue utilization (depth over
// capacity) plus an estimate of how long the current backlog takes to drain
// at the serving tier's observed latency (EWMA). Either crossing its
// threshold raises the brownout level one rung immediately; recovery
// requires BrownoutCooldown consecutive calm samples per rung
// (degrade.Hysteresis), so a bursty arrival process cannot flap the tier
// sample to sample.
//
// The loop samples until Shutdown closes stopBrown. It runs under goGuard
// (started in New), so a panic here is contained like any other service
// goroutine's.
func (s *Server) brownoutLoop() {
	tick := time.NewTicker(s.cfg.BrownoutInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopBrown:
			return
		case <-tick.C:
			s.brownoutSample()
		}
	}
}

// brownoutSample takes one control decision. Exposed as a method (not
// inlined in the loop) so tests can drive the controller deterministically
// without waiting out wall-clock intervals.
func (s *Server) brownoutSample() {
	util := float64(len(s.jobs)) / float64(s.cfg.QueueDepth)
	cur := s.brownoutTier()
	hot := util >= s.cfg.BrownoutHighWater || s.drainEstimate(cur) > s.cfg.BrownoutMaxDrain
	want := cur
	if hot && cur < degrade.TierVanGin {
		want = cur + 1
	}
	// At vangin a hot sample raises nothing, but it is not calm either, so
	// it still resets the count.
	switch from, to := s.brown.Step(int32(want), !hot && util <= s.cfg.BrownoutLowWater); {
	case to > from:
		s.met.inc("brownout.raised")
	case to < from:
		s.met.inc("brownout.lowered")
	}
}

// drainEstimate is how long the current backlog takes to clear at the
// serving tier's observed latency: depth × EWMA(tier latency) / workers.
// With no per-tier history yet it falls back to the all-flows mean, and
// with no history at all to zero (never degrade on pure speculation).
func (s *Server) drainEstimate(t degrade.Tier) time.Duration {
	ms := s.met.ewma("tier_" + t.String())
	if ms <= 0 {
		ms = s.met.meanLatencyMS("flow_")
	}
	if ms <= 0 {
		return 0
	}
	perWorker := float64(len(s.jobs)) * ms / float64(s.cfg.Workers)
	return time.Duration(perWorker * float64(time.Millisecond))
}
