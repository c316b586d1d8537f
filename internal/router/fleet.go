package router

import (
	"math"
	"sync"
	"time"

	"merlin/internal/degrade"
	"merlin/internal/gossip"
)

// fleetBrownout turns gossiped backend pressure into a fleet-wide admission
// level, so routers start degrading traffic together before any single
// backend saturates and discovers overload alone.
//
// Pressure for one backend is max(queue utilization, brownout tier
// fraction) from its freshest gossip digest; the fleet estimate is the mean
// over alive backends with fresh evidence. Suspect and dead members are
// excluded — their load is about to be rerouted onto the survivors, whose
// own digests will carry the resulting pressure within a tick or two, and
// counting ghosts would pin the level high after the storm ends.
//
// The level follows degrade.Hysteresis, the per-node brownout's rule
// (internal/service/brownout.go): it rises immediately and lowers only after
// a cooldown of calm samples.
type fleetBrownout struct {
	highWater float64
	lowWater  float64
	level     *degrade.Hysteresis

	mu       sync.Mutex
	pressure float64 // last sample, for stats
	counted  int     // backends in the last sample
	raised   uint64
	lowered  uint64
}

// fleetStep is how far past FleetHighWater the pressure must go for level
// 2 (standard-class shedding); level 1 starts at FleetHighWater exactly.
const fleetStep = 0.15

// fleetMaxLevel caps the ladder: 1 = degrade everything degradable + shed
// bronze overdraft, 2 = shed standard overdraft too.
const fleetMaxLevel = 2

// maxTier mirrors the backend ladder depth (full → nobubble → lttree →
// vangin): gossiped tier/maxTier is the "how far down the ladder" fraction.
const maxTier = 3

func newFleetBrownout(cfg Config) *fleetBrownout {
	return &fleetBrownout{
		highWater: cfg.FleetHighWater,
		lowWater:  cfg.FleetLowWater,
		level:     degrade.NewHysteresis(cfg.FleetCooldown),
	}
}

// fleetLoop samples at the gossip cadence — pressure can't change faster
// than evidence arrives.
func (rt *Router) fleetLoop() {
	interval := rt.cfg.GossipInterval
	if interval <= 0 {
		interval = gossip.DefaultInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopLoops:
			return
		case <-t.C:
			rt.fleetSample(interval)
		}
	}
}

// fleetSample recomputes the fleet level from the current membership view
// and publishes it to the QoS controller.
func (rt *Router) fleetSample(interval time.Duration) {
	members := rt.gossip.Members()
	var sum float64
	var n int
	for _, m := range members {
		if m.Digest.Role != gossip.RoleBackend || m.Digest.State != gossip.Alive {
			continue
		}
		if m.Age > 4*interval {
			continue // stale enough that the sweep is about to suspect it
		}
		p := math.Max(m.Digest.QueueUtil, float64(m.Digest.Tier)/maxTier)
		sum += math.Min(p, 1)
		n++
	}
	var pressure float64
	if n > 0 {
		pressure = sum / float64(n)
	}

	f := rt.fleet
	var want int32
	switch {
	case pressure >= f.highWater+fleetStep:
		want = fleetMaxLevel
	case pressure >= f.highWater:
		want = 1
	}
	f.mu.Lock()
	f.pressure, f.counted = pressure, n
	switch from, to := f.level.Step(want, pressure < f.lowWater); {
	case to > from:
		f.raised += uint64(to - from)
		rt.inc("fleet.raised")
	case to < from:
		f.lowered++
		rt.inc("fleet.lowered")
	}
	f.mu.Unlock()

	rt.adm.SetFleetLevel(f.level.Level())
}

// fleetLevel is the current fleet brownout level (0 when disabled).
func (rt *Router) fleetLevel() int32 {
	if rt.fleet == nil {
		return 0
	}
	return rt.fleet.level.Level()
}

// FleetStats is the fleet-brownout section of /v1/stats.
type FleetStats struct {
	Level     int32   `json:"level"`
	Pressure  float64 `json:"pressure"`
	Backends  int     `json:"backends"` // backends counted into the estimate
	HighWater float64 `json:"high_water"`
	LowWater  float64 `json:"low_water"`
	Raised    uint64  `json:"raised"`
	Lowered   uint64  `json:"lowered"`
}

func (f *fleetBrownout) stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FleetStats{
		Level:     f.level.Level(),
		Pressure:  f.pressure,
		Backends:  f.counted,
		HighWater: f.highWater,
		LowWater:  f.lowWater,
		Raised:    f.raised,
		Lowered:   f.lowered,
	}
}
