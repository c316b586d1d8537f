package degrade

import "sync/atomic"

// Hysteresis is the brownout rule shared by merlind's overload controller
// (one ladder rung per level) and merlinrouter's fleet controller (fleet
// admission levels): the level rises at once to whatever a sample asks for,
// and falls one level only after a cooldown of consecutive calm samples; any
// other sample resets the calm count. Waiting out a cooldown while queues
// fill is how they overflow, and flapping admission policy sample to sample
// is worse than a conservative one.
//
// Level may be read from any goroutine; Step must be called by one sampler
// at a time.
type Hysteresis struct {
	cooldown int
	level    atomic.Int32
	calm     int // consecutive calm samples (sampler-local)
}

// NewHysteresis returns a controller at level 0 that lowers one level per
// cooldown consecutive calm samples.
func NewHysteresis(cooldown int) *Hysteresis { return &Hysteresis{cooldown: cooldown} }

// Level is the current level.
func (h *Hysteresis) Level() int32 { return h.level.Load() }

// Step takes one sample. A want above the current level raises the level
// to it at once. Otherwise a calm sample above level 0 counts toward
// lowering the level by one, which happens on the cooldown-th consecutive
// calm sample, and any other sample resets the count. Step returns the
// level before and after the sample.
func (h *Hysteresis) Step(want int32, calm bool) (from, to int32) {
	from = h.level.Load()
	switch {
	case want > from:
		h.calm = 0
		h.level.Store(want)
		return from, want
	case calm && from > 0:
		h.calm++
		if h.calm >= h.cooldown {
			h.calm = 0
			h.level.Store(from - 1)
			return from, from - 1
		}
	default:
		h.calm = 0
	}
	return from, from
}
