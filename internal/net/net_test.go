package net

import (
	"bytes"
	"testing"

	"merlin/internal/buflib"
	"merlin/internal/geom"
	"merlin/internal/rc"
)

func sample() *Net {
	return &Net{
		Name:   "t",
		Source: geom.Point{X: 0, Y: 0},
		Sinks: []Sink{
			{Pos: geom.Point{X: 10, Y: 20}, Load: 0.02, Req: 5},
			{Pos: geom.Point{X: 30, Y: 5}, Load: 0.01, Req: 4},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid net rejected: %v", err)
	}
	empty := &Net{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Fatal("sinkless net accepted")
	}
	badLoad := sample()
	badLoad.Sinks[0].Load = 0
	if err := badLoad.Validate(); err == nil {
		t.Fatal("zero-load sink accepted")
	}
}

func TestAccessors(t *testing.T) {
	n := sample()
	if n.N() != 2 {
		t.Fatalf("N = %d", n.N())
	}
	if got := n.TotalLoad(); got != 0.03 {
		t.Fatalf("TotalLoad = %g", got)
	}
	if got := n.MinReq(); got != 4 {
		t.Fatalf("MinReq = %g", got)
	}
	pts := n.SinkPoints()
	if len(pts) != 2 || pts[0] != (geom.Point{X: 10, Y: 20}) {
		t.Fatalf("SinkPoints = %v", pts)
	}
	terms := n.Terminals()
	if len(terms) != 3 || terms[0] != n.Source {
		t.Fatalf("Terminals = %v", terms)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n := sample()
	var buf bytes.Buffer
	if err := n.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != n.Name || back.N() != n.N() || back.Sinks[1] != n.Sinks[1] {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	// Invalid JSON and invalid nets are rejected.
	if _, err := Read(bytes.NewBufferString("{nonsense")); err == nil {
		t.Fatal("garbage JSON accepted")
	}
	if _, err := Read(bytes.NewBufferString(`{"name":"x","sinks":[]}`)); err == nil {
		t.Fatal("invalid net accepted")
	}
}

func TestGenerateReproducible(t *testing.T) {
	tech := rc.Default035()
	lib := buflib.Default035()
	a := Generate(DefaultGenSpec(7, 42), tech, lib.Driver)
	b := Generate(DefaultGenSpec(7, 42), tech, lib.Driver)
	c := Generate(DefaultGenSpec(7, 43), tech, lib.Driver)
	if a.N() != 7 || b.N() != 7 {
		t.Fatalf("wrong sink counts %d %d", a.N(), b.N())
	}
	for i := range a.Sinks {
		if a.Sinks[i] != b.Sinks[i] {
			t.Fatal("same seed must reproduce identical nets")
		}
	}
	same := true
	for i := range a.Sinks {
		if a.Sinks[i] != c.Sinks[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated net invalid: %v", err)
	}
}

func TestGenerateRespectsSpec(t *testing.T) {
	tech := rc.Default035()
	lib := buflib.Default035()
	spec := DefaultGenSpec(50, 9)
	spec.BoxSide = 5000
	n := Generate(spec, tech, lib.Driver)
	for i, s := range n.Sinks {
		if s.Pos.X < 0 || s.Pos.X > 5000 || s.Pos.Y < 0 || s.Pos.Y > 5000 {
			t.Fatalf("sink %d at %v outside the box", i, s.Pos)
		}
		if s.Load < spec.LoadMin || s.Load > spec.LoadMax {
			t.Fatalf("sink %d load %g outside [%g,%g]", i, s.Load, spec.LoadMin, spec.LoadMax)
		}
		if s.Req < spec.ReqBase || s.Req > spec.ReqBase+spec.ReqSpread {
			t.Fatalf("sink %d req %g outside window", i, s.Req)
		}
	}
}

// TestBoxSideForTech pins the Table 1 sizing rule: a box-spanning wire's
// Elmore delay is comparable to (within an order of magnitude of) the
// driver's gate delay.
func TestBoxSideForTech(t *testing.T) {
	tech := rc.Default035()
	lib := buflib.Default035()
	side := BoxSideForTech(tech, lib.Driver)
	if side <= 0 {
		t.Fatal("box side must be positive")
	}
	wire := tech.WireElmore(side, 0.05)
	gate := lib.Driver.DelayNominal(&tech, 0.05)
	if wire < gate/10 || wire > gate*100 {
		t.Fatalf("box sizing rule broken: wire=%g ns vs gate=%g ns", wire, gate)
	}
}
