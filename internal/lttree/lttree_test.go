package lttree

import (
	"math"
	"testing"

	"merlin/internal/buflib"
	"merlin/internal/curve"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/rc"
)

func setup() (rc.Technology, *buflib.Library) {
	tech := rc.Default035()
	tech.LoadQuantum = 0
	return tech, buflib.Default035().Small(5)
}

func testNet(n int, seed int64) *net.Net {
	tech, lib := setup()
	return net.Generate(net.DefaultGenSpec(n, seed), tech, lib.Driver)
}

func TestBuildProducesChains(t *testing.T) {
	tech, lib := setup()
	nt := testNet(8, 3)
	opts := DefaultOptions()
	opts.WireLoadPerSink = 0.3 // force the fanout problem to be non-trivial
	ch, err := Build(nt, lib, tech, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Curve.Empty() {
		t.Fatal("no chains built")
	}
	// With a heavy wire-load model, some chain must buffer.
	buffered := false
	for _, s := range ch.Curve.Sols {
		if s.Area > 0 {
			buffered = true
		}
	}
	if !buffered {
		t.Fatal("no buffered chain on the frontier despite heavy loads")
	}
	// Sorted order must be by required time.
	for i := 1; i < len(ch.Order); i++ {
		if nt.Sinks[ch.Order[i-1]].Req > nt.Sinks[ch.Order[i]].Req {
			t.Fatal("LTTREE order must sort by required time")
		}
	}
}

// TestChainDominance: the all-direct (bufferless) chain must be on the
// frontier with area 0, and every solution must be mutually non-inferior.
func TestChainDominance(t *testing.T) {
	tech, lib := setup()
	nt := testNet(6, 5)
	ch, err := Build(nt, lib, tech, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range ch.Curve.Sols {
		for j, b := range ch.Curve.Sols {
			if i != j && a.Dominates(b) {
				t.Fatalf("frontier solution %d dominates %d", i, j)
			}
		}
	}
}

// TestBruteForceTwoSinks: for two sinks and a tiny library, enumerate every
// LT-Tree chain by hand and verify the DP's frontier is not beaten.
func TestBruteForceTwoSinks(t *testing.T) {
	tech, _ := setup()
	lib := buflib.Default035().Small(2)
	nt := &net.Net{
		Name:   "two",
		Source: geom.Point{X: 0, Y: 0},
		Driver: lib.Driver,
		Sinks: []net.Sink{
			{Pos: geom.Point{X: 100, Y: 100}, Load: 0.3, Req: 5},
			{Pos: geom.Point{X: 200, Y: 200}, Load: 0.7, Req: 6},
		},
	}
	opts := DefaultOptions()
	opts.MaxSols = 0
	ch, err := Build(nt, lib, tech, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Hand enumeration (logic domain, wlm=0). Structures:
	//  A: driver -> {s0, s1}            load .3+.7, req min(5,6)
	//  B: driver -> {s0, b->{s1}}       per buffer b
	//  C: driver -> {s1, b->{s0}}?      NOT an LT chain on req order (s0 is
	//     more critical, chain holds LESS critical sinks deeper) — the DP
	//     sorts by req, so deep sinks are the later ones; structure C is
	//     outside its space by construction.
	//  D: driver -> b->{s0, s1}         per buffer b
	//  E: driver -> b1->{s0, b2->{s1}}  per buffer pair
	want := curve.Curve{Sols: []curve.Solution{{Load: 1.0, Req: 5}}}
	for _, b := range lib.Buffers {
		want.Sols = append(want.Sols,
			curve.Solution{Load: 0.3 + b.Cin, Req: math.Min(5, 6-b.DelayNominal(&tech, 0.7)), Area: b.Area},
			curve.Solution{Load: b.Cin, Req: math.Min(5, 6) - b.DelayNominal(&tech, 1.0), Area: b.Area})
		for _, b2 := range lib.Buffers {
			req2 := 6 - b2.DelayNominal(&tech, 0.7)
			want.Sols = append(want.Sols, curve.Solution{
				Load: b.Cin,
				Req:  math.Min(5, req2) - b.DelayNominal(&tech, 0.3+b2.Cin),
				Area: b.Area + b2.Area,
			})
		}
	}
	want.PruneNaive()
	if ch.Curve.Len() != want.Len() {
		t.Fatalf("frontier size %d, want %d\n got: %v\nwant: %v", ch.Curve.Len(), want.Len(), ch.Curve.Sols, want.Sols)
	}
	for i, s := range ch.Curve.Sols {
		w := want.Sols[i]
		if math.Abs(s.Load-w.Load) > 1e-9 || math.Abs(s.Req-w.Req) > 1e-9 || math.Abs(s.Area-w.Area) > 1e-9 {
			t.Fatalf("solution %d: got %v, want %v", i, s, w)
		}
	}
}

func TestPlaceAndRouteValid(t *testing.T) {
	tech, lib := setup()
	for seed := int64(0); seed < 4; seed++ {
		nt := testNet(7, 30+seed)
		opts := DefaultOptions()
		opts.WireLoadPerSink = 0.2
		tr, err := Solve(nt, lib, tech, opts, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The embedded chain must be an LT-Tree type-I (Lemma 3 heritage).
		if err := tr.IsLTTreeI(); err != nil {
			t.Fatalf("seed %d: not an LT-Tree: %v\n%s", seed, err, tr)
		}
	}
}

// TestWLMChangesStructure: raising the wire-load model must not reduce
// buffering (monotone response of the fanout optimizer).
func TestWLMChangesStructure(t *testing.T) {
	tech, lib := setup()
	nt := testNet(9, 77)
	areas := make([]float64, 0, 2)
	for _, wlm := range []float64{0, 0.5} {
		opts := DefaultOptions()
		opts.WireLoadPerSink = wlm
		tr, err := Solve(nt, lib, tech, opts, 10)
		if err != nil {
			t.Fatal(err)
		}
		areas = append(areas, tr.BufferArea())
	}
	if areas[1] < areas[0] {
		t.Fatalf("heavier WLM reduced buffering: %.0f -> %.0f", areas[0], areas[1])
	}
	if areas[1] == 0 {
		t.Fatal("WLM 0.5pF/pin must force buffering")
	}
}

func TestBuildRejectsInvalidNet(t *testing.T) {
	tech, lib := setup()
	if _, err := Build(&net.Net{Name: "empty"}, lib, tech, DefaultOptions()); err == nil {
		t.Fatal("sinkless net accepted")
	}
}
