// Package net defines the problem instance every algorithm in this
// repository consumes: a signal net with one driver and n sinks, each sink
// carrying a position, a capacitive load and a required time (§III.1 of the
// paper), plus JSON I/O and the synthetic net generators used by the
// experiments.
package net

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"merlin/internal/geom"
	"merlin/internal/rc"
)

// Sink is one net terminal: s_i = (x, y, load, required time).
type Sink struct {
	Pos geom.Point `json:"pos"`
	// Load is the sink's input capacitance in pF.
	Load float64 `json:"load"`
	// Req is the required time at the sink in ns.
	Req float64 `json:"req"`
}

// Net is a routing problem instance.
type Net struct {
	Name string `json:"name"`
	// Source is the driver location.
	Source geom.Point `json:"source"`
	// Driver is the 4-parameter model of the gate driving the net; a zero
	// Name means "use the library default driver".
	Driver rc.Gate `json:"driver"`
	Sinks  []Sink  `json:"sinks"`
}

// N returns the number of sinks.
func (n *Net) N() int { return len(n.Sinks) }

// DriverOr returns the gate driving the net: the net's own Driver, or def
// when the net names none.
func (n *Net) DriverOr(def rc.Gate) rc.Gate {
	if n.Driver.Name == "" {
		return def
	}
	return n.Driver
}

// Validate checks the instance for basic sanity. NaN loads need an explicit
// check: NaN compares false against everything, so `Load <= 0` alone would
// wave it through into the DP where it poisons every pruning comparison.
func (n *Net) Validate() error {
	if len(n.Sinks) == 0 {
		return fmt.Errorf("net %q: no sinks", n.Name)
	}
	for i, s := range n.Sinks {
		if !(s.Load > 0) || math.IsInf(s.Load, 0) {
			return fmt.Errorf("net %q: sink %d has non-positive or non-finite load %g", n.Name, i, s.Load)
		}
		if math.IsNaN(s.Req) || math.IsInf(s.Req, 0) {
			return fmt.Errorf("net %q: sink %d has non-finite required time %g", n.Name, i, s.Req)
		}
	}
	return nil
}

// SinkPoints returns the sink positions in index order.
func (n *Net) SinkPoints() []geom.Point {
	pts := make([]geom.Point, len(n.Sinks))
	for i, s := range n.Sinks {
		pts[i] = s.Pos
	}
	return pts
}

// Terminals returns source plus sink positions, the point set whose Hanan
// grid supplies candidate locations.
func (n *Net) Terminals() []geom.Point {
	return append([]geom.Point{n.Source}, n.SinkPoints()...)
}

// TotalLoad returns the sum of all sink loads (pF).
func (n *Net) TotalLoad() float64 {
	var t float64
	for _, s := range n.Sinks {
		t += s.Load
	}
	return t
}

// MinReq returns the tightest sink required time.
func (n *Net) MinReq() float64 {
	m := n.Sinks[0].Req
	for _, s := range n.Sinks[1:] {
		if s.Req < m {
			m = s.Req
		}
	}
	return m
}

// Write encodes the net as indented JSON.
func (n *Net) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}

// Read decodes a net from JSON and validates it.
func Read(r io.Reader) (*Net, error) {
	var n Net
	if err := json.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("net: decode: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// GenSpec parameterizes the synthetic net generator. The defaults reproduce
// the Table 1 setup: sinks with known loads and required times (as if taken
// from a mapped benchmark), placed randomly and a priori inside a bounding
// box "sized such that the delay of interconnect is approximately equal to
// the delay of gate".
type GenSpec struct {
	// NumSinks is the sink count n.
	NumSinks int
	// BoxSide is the bounding box side in λ; 0 derives it from the
	// technology so that a box-crossing wire's Elmore delay roughly equals a
	// mid-strength gate delay (the paper's sizing rule).
	BoxSide int64
	// LoadMin, LoadMax bound the per-sink input capacitance (pF).
	LoadMin, LoadMax float64
	// ReqSpread is the width (ns) of the uniform required-time window; sink
	// required times are drawn from [ReqBase, ReqBase+ReqSpread].
	ReqBase, ReqSpread float64
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultGenSpec returns the Table 1-style generator configuration for a net
// of n sinks.
func DefaultGenSpec(n int, seed int64) GenSpec {
	return GenSpec{
		NumSinks:  n,
		LoadMin:   0.005,
		LoadMax:   0.060,
		ReqBase:   5.0,
		ReqSpread: 2.0,
		Seed:      seed,
	}
}

// BoxSideForTech returns a bounding box side such that a wire spanning the
// box drives delay comparable to a mid-strength gate: solving
// R·C/2 ≈ d_gate for side length with per-λ parasitics. The factor keeps the
// instance in the regime the paper targets, where routing matters as much as
// buffering.
func BoxSideForTech(t rc.Technology, driver rc.Gate) int64 {
	gate := driver.DelayNominal(&t, 0.05)
	// Elmore of a full-span wire with no load: r·l · c·l/2 = gate  ⇒
	// l = sqrt(2·gate/(r·c)).
	l := 1.0
	rcProduct := t.RPerLambda * t.CPerLambda
	if rcProduct > 0 {
		l = 2 * gate / rcProduct
	}
	side := int64(1)
	for side*side < int64(l) {
		side *= 2
	}
	return side
}

// Generate builds a synthetic net per spec.
func Generate(spec GenSpec, t rc.Technology, driver rc.Gate) *Net {
	rng := rand.New(rand.NewSource(spec.Seed))
	side := spec.BoxSide
	if side <= 0 {
		side = BoxSideForTech(t, driver)
	}
	n := &Net{
		Name:   fmt.Sprintf("rand-n%d-s%d", spec.NumSinks, spec.Seed),
		Source: geom.Point{X: 0, Y: 0},
		Driver: driver,
	}
	for i := 0; i < spec.NumSinks; i++ {
		n.Sinks = append(n.Sinks, Sink{
			Pos: geom.Point{
				X: rng.Int63n(side + 1),
				Y: rng.Int63n(side + 1),
			},
			Load: spec.LoadMin + rng.Float64()*(spec.LoadMax-spec.LoadMin),
			Req:  spec.ReqBase + rng.Float64()*spec.ReqSpread,
		})
	}
	return n
}
