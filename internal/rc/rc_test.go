package rc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTechnologyValidate(t *testing.T) {
	good := Default035()
	if err := good.Validate(); err != nil {
		t.Fatalf("default technology invalid: %v", err)
	}
	bad := []Technology{
		{RPerLambda: 0, CPerLambda: 1},
		{RPerLambda: 1, CPerLambda: 0},
		{RPerLambda: 1, CPerLambda: 1, NominalSlew: -1},
		{RPerLambda: 1, CPerLambda: 1, SlewPerDelay: -0.1},
		{RPerLambda: 1, CPerLambda: 1, LoadQuantum: -0.1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestWireElmoreFormula(t *testing.T) {
	tech := Technology{RPerLambda: 0.001, CPerLambda: 0.002}
	// R = 1kΩ, C = 2pF for length 1000; Elmore = 1·(1 + load).
	got := tech.WireElmore(1000, 0.5)
	want := 1.0 * (1.0 + 0.5)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("WireElmore = %g, want %g", got, want)
	}
}

// TestElmorePathAdditivity pins the property the DP's transfer-step
// reasoning relies on: splitting a wire at an intermediate point on the path
// leaves the end-to-end Elmore delay unchanged.
func TestElmorePathAdditivity(t *testing.T) {
	tech := Default035()
	prop := func(l1u, l2u uint16, loadCenti uint8) bool {
		l1, l2 := int64(l1u), int64(l2u)
		load := float64(loadCenti) / 100
		whole := tech.WireElmore(l1+l2, load)
		// Split: far segment drives load, near segment drives wireC(l2)+load.
		split := tech.WireElmore(l2, load) + tech.WireElmore(l1, tech.WireC(l2)+load)
		return math.Abs(whole-split) < 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeLoad(t *testing.T) {
	tech := Technology{RPerLambda: 1, CPerLambda: 1, LoadQuantum: 0.01}
	cases := []struct{ in, want float64 }{
		{0, 0},
		{0.005, 0.01},
		{0.01, 0.01},
		{0.011, 0.02},
	}
	for _, c := range cases {
		if got := tech.QuantizeLoad(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QuantizeLoad(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	// Quantization never under-reports (conservative rounding).
	prop := func(milli uint16) bool {
		v := float64(milli) / 1000
		return tech.QuantizeLoad(v) >= v-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Disabled quantum is the identity.
	none := Technology{RPerLambda: 1, CPerLambda: 1}
	if none.QuantizeLoad(0.1234) != 0.1234 {
		t.Error("zero quantum must not round")
	}
}

func TestGateDelayModel(t *testing.T) {
	g := Gate{Name: "X", K0: 0.1, K1: 2, K2: 0.5, K3: 0.25, S0: 0.05, S1: 1, Cin: 0.01, Area: 100}
	// d = 0.1 + 2·0.2 + 0.5·0.3 + 0.25·0.2·0.3 = 0.1+0.4+0.15+0.015
	got := g.Delay(0.2, 0.3)
	want := 0.665
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Delay = %g, want %g", got, want)
	}
	tech := Technology{RPerLambda: 1, CPerLambda: 1, NominalSlew: 0.3}
	if math.Abs(g.DelayNominal(&tech, 0.2)-want) > 1e-12 {
		t.Fatal("DelayNominal must use the technology's nominal slew")
	}
	if math.Abs(g.SlewOut(0.2)-0.25) > 1e-12 {
		t.Fatalf("SlewOut = %g", g.SlewOut(0.2))
	}
}

func TestGateDelayMonotoneInLoad(t *testing.T) {
	g := Gate{Name: "X", K0: 0.1, K1: 2, K2: 0.5, K3: 0.25, S0: 0.05, S1: 1, Cin: 0.01, Area: 100}
	prop := func(aMilli, bMilli uint16, slewCenti uint8) bool {
		a, b := float64(aMilli)/1000, float64(bMilli)/1000
		slew := float64(slewCenti) / 100
		if a > b {
			a, b = b, a
		}
		return g.Delay(a, slew) <= g.Delay(b, slew)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGateValidate(t *testing.T) {
	good := Gate{Name: "ok", K0: 0.1, K1: 1, Cin: 0.01, Area: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("good gate rejected: %v", err)
	}
	bad := []Gate{
		{},                                    // no name
		{Name: "x", K1: 0, Cin: 0.1, Area: 1}, // K1 <= 0
		{Name: "x", K1: 1, Cin: 0, Area: 1},   // Cin <= 0
		{Name: "x", K1: 1, Cin: 0.1, Area: 0}, // Area <= 0
		{Name: "x", K0: -1, K1: 1, Cin: 1, Area: 1},
		{Name: "x", K1: 1, K2: -1, Cin: 1, Area: 1},
		{Name: "x", K1: 1, S1: -1, Cin: 1, Area: 1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad gate %d accepted", i)
		}
	}
}

func TestWireSlewOut(t *testing.T) {
	tech := Technology{RPerLambda: 1, CPerLambda: 1, SlewPerDelay: 2}
	if got := tech.WireSlewOut(0.1, 0.3); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("WireSlewOut = %g, want 0.7", got)
	}
}

func TestWireRC(t *testing.T) {
	tech := Technology{RPerLambda: 0.5, CPerLambda: 0.25}
	if tech.WireR(8) != 4 || tech.WireC(8) != 2 {
		t.Fatalf("WireR/WireC wrong: %g %g", tech.WireR(8), tech.WireC(8))
	}
}
