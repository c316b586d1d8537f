// Package rc holds the technology description and the delay models shared by
// every routing and fanout-optimization algorithm in this repository:
//
//   - distributed-RC wire parasitics with the Elmore delay model [El48], and
//   - the 4-parameter gate delay equation of [LSP98],
//     d = K0 + K1·Cload + K2·Tin + K3·Cload·Tin,
//     together with a first-order output-slew model for final evaluation.
//
// Units follow the usual compact EDA convention: length in λ, resistance in
// kΩ, capacitance in pF, time in ns (kΩ·pF = ns), area in λ².
package rc

import (
	"errors"
	"fmt"
)

// Technology bundles the interconnect parasitics and the timing conventions
// of a process. The default values model a 0.35µ-class process scaled so that
// wires in the paper's bounding boxes contribute delay comparable to gates,
// which is exactly the experimental setup of Table 1.
type Technology struct {
	// RPerLambda is wire resistance per λ of length, in kΩ/λ.
	RPerLambda float64
	// CPerLambda is wire capacitance per λ of length, in pF/λ.
	CPerLambda float64
	// NominalSlew is the input transition time (ns) assumed inside dynamic
	// programming, where slews cannot be propagated without breaking the
	// optimal-substructure property; the final evaluation re-times the chosen
	// tree with true slew propagation.
	NominalSlew float64
	// SlewPerDelay converts an Elmore wire delay into added transition time,
	// a standard first-order ramp approximation (≈ ln 9 for 10–90%).
	SlewPerDelay float64
	// LoadQuantum is the granularity (pF) to which solution-curve loads are
	// rounded; it realizes the paper's "polynomially bounded integer"
	// capacitance assumption (Lemma 1, Theorem 2). Zero disables rounding.
	LoadQuantum float64
}

// Default035 returns the synthetic 0.35µ-class technology used throughout
// the experiments. See DESIGN.md §4 for the substitution rationale.
func Default035() Technology {
	return Technology{
		RPerLambda:   0.00002,  // 0.02 Ω/λ
		CPerLambda:   0.000030, // 0.030 fF/λ
		NominalSlew:  0.20,
		SlewPerDelay: 2.2,
		LoadQuantum:  0.001,
	}
}

// Validate reports whether the technology numbers are physically sensible.
func (t Technology) Validate() error {
	switch {
	case t.RPerLambda <= 0:
		return errors.New("rc: RPerLambda must be positive")
	case t.CPerLambda <= 0:
		return errors.New("rc: CPerLambda must be positive")
	case t.NominalSlew < 0:
		return errors.New("rc: NominalSlew must be non-negative")
	case t.SlewPerDelay < 0:
		return errors.New("rc: SlewPerDelay must be non-negative")
	case t.LoadQuantum < 0:
		return errors.New("rc: LoadQuantum must be non-negative")
	}
	return nil
}

// WireR returns the total resistance (kΩ) of a wire of the given λ length.
func (t Technology) WireR(length int64) float64 { return t.RPerLambda * float64(length) }

// WireC returns the total capacitance (pF) of a wire of the given λ length.
func (t Technology) WireC(length int64) float64 { return t.CPerLambda * float64(length) }

// WireElmore returns the Elmore delay (ns) of a uniform wire of the given
// length driving a lumped downstream load (pF): R·(C/2 + Cdown), the standard
// distributed-RC π approximation.
func (t Technology) WireElmore(length int64, downstream float64) float64 {
	r := t.WireR(length)
	c := t.WireC(length)
	return r * (c/2 + downstream)
}

// WireSlewOut returns the transition time at the far end of a wire given the
// near-end transition and the wire's Elmore delay, using the first-order ramp
// degradation model.
func (t Technology) WireSlewOut(slewIn, elmore float64) float64 {
	return slewIn + t.SlewPerDelay*elmore
}

// QuantizeLoad rounds a capacitance to the technology's load quantum. Loads
// are rounded *up* so that a quantized DP never reports an optimistic
// (smaller-than-real) load, keeping pruning conservative.
func (t Technology) QuantizeLoad(c float64) float64 {
	if t.LoadQuantum <= 0 || c <= 0 {
		return c
	}
	steps := c / t.LoadQuantum
	n := int64(steps)
	if float64(n) < steps {
		n++
	}
	return float64(n) * t.LoadQuantum
}

// Gate is the 4-parameter delay model of a library cell's input-to-output
// arc: delay = K0 + K1·Cload + K2·Tin + K3·Cload·Tin. K1 plays the role of
// the equivalent drive resistance. The output slew is S0 + S1·Cload.
type Gate struct {
	Name string
	// K0..K3 are the 4 delay parameters: intrinsic delay (ns), drive
	// resistance (kΩ), slew sensitivity (ns/ns), and the cross term (kΩ/ns).
	K0, K1, K2, K3 float64
	// S0, S1 define the output transition model (ns, kΩ).
	S0, S1 float64
	// Cin is the input pin capacitance (pF).
	Cin float64
	// Area is the cell area (λ²).
	Area float64
}

// Delay returns the gate delay (ns) for the given output load (pF) and input
// transition time (ns). Delay and DelayNominal take pointers, so the curve
// kernel's buffer sweep, which times every (solution, gate) pair, reads the
// cell and the technology in place instead of copying them per pair.
func (g *Gate) Delay(load, slewIn float64) float64 {
	return g.K0 + g.K1*load + g.K2*slewIn + g.K3*load*slewIn
}

// DelayNominal returns the gate delay with the technology's nominal input
// slew folded in; this is the restriction used inside dynamic programming,
// where per-solution slews would break optimal substructure.
func (g *Gate) DelayNominal(t *Technology, load float64) float64 {
	return g.Delay(load, t.NominalSlew)
}

// SlewOut returns the output transition time (ns) at the given load.
func (g Gate) SlewOut(load float64) float64 { return g.S0 + g.S1*load }

// Validate checks the cell for physical sanity.
func (g Gate) Validate() error {
	switch {
	case g.Name == "":
		return errors.New("rc: gate with empty name")
	case g.K0 < 0 || g.K1 <= 0:
		return fmt.Errorf("rc: gate %s: K0 must be >= 0 and K1 > 0", g.Name)
	case g.K2 < 0 || g.K3 < 0:
		return fmt.Errorf("rc: gate %s: slew terms must be non-negative", g.Name)
	case g.S0 < 0 || g.S1 < 0:
		return fmt.Errorf("rc: gate %s: slew model must be non-negative", g.Name)
	case g.Cin <= 0:
		return fmt.Errorf("rc: gate %s: Cin must be positive", g.Name)
	case g.Area <= 0:
		return fmt.Errorf("rc: gate %s: Area must be positive", g.Name)
	}
	return nil
}
