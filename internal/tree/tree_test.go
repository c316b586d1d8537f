package tree

import (
	"math"
	"strings"
	"testing"

	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/rc"
)

func testTech() rc.Technology {
	return rc.Technology{RPerLambda: 0.001, CPerLambda: 0.002, NominalSlew: 0.2, SlewPerDelay: 2}
}

func testGate(name string) rc.Gate {
	return rc.Gate{Name: name, K0: 0.1, K1: 1.0, K2: 0.2, K3: 0.05, S0: 0.05, S1: 0.5, Cin: 0.03, Area: 700}
}

func twoSinkNet() *net.Net {
	return &net.Net{
		Name:   "two",
		Source: geom.Point{X: 0, Y: 0},
		Driver: testGate("DRV"),
		Sinks: []net.Sink{
			{Pos: geom.Point{X: 1000, Y: 0}, Load: 0.05, Req: 10},
			{Pos: geom.Point{X: 0, Y: 2000}, Load: 0.08, Req: 12},
		},
	}
}

// starTree wires every sink straight from the source.
func starTree(n *net.Net) *Tree {
	t := New(n)
	for i, s := range n.Sinks {
		t.Root.AddChild(&Node{Kind: KindSink, Pos: s.Pos, SinkIdx: i})
	}
	return t
}

func TestValidate(t *testing.T) {
	n := twoSinkNet()
	tr := starTree(n)
	if err := tr.Validate(); err != nil {
		t.Fatalf("star tree invalid: %v", err)
	}
	// Missing sink.
	bad := New(n)
	bad.Root.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[0].Pos, SinkIdx: 0})
	if err := bad.Validate(); err == nil {
		t.Fatal("tree missing sink 1 accepted")
	}
	// Duplicate sink.
	dup := starTree(n)
	dup.Root.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[0].Pos, SinkIdx: 0})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate sink accepted")
	}
	// Sink with children.
	withKid := starTree(n)
	withKid.Root.Children[0].AddChild(&Node{Kind: KindSteiner})
	if err := withKid.Validate(); err == nil {
		t.Fatal("sink with children accepted")
	}
	// Shared node (DAG).
	shared := starTree(n)
	st := &Node{Kind: KindSteiner, Pos: geom.Point{X: 5, Y: 5}}
	shared.Root.Children = []*Node{st, st}
	if err := shared.Validate(); err == nil {
		t.Fatal("shared node accepted")
	}
}

func TestWirelengthAndCounts(t *testing.T) {
	n := twoSinkNet()
	tr := starTree(n)
	if wl := tr.Wirelength(); wl != 3000 {
		t.Fatalf("Wirelength = %d, want 3000", wl)
	}
	if tr.NumBuffers() != 0 || tr.BufferArea() != 0 {
		t.Fatal("star tree has no buffers")
	}
	// Insert a buffer above sink 1.
	buf := &Node{Kind: KindBuffer, Pos: geom.Point{X: 0, Y: 1000}, Buffer: testGate("B1")}
	buf.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[1].Pos, SinkIdx: 1})
	tr.Root.Children[1] = buf
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumBuffers() != 1 || tr.BufferArea() != 700 {
		t.Fatalf("buffer accounting wrong: %d, %g", tr.NumBuffers(), tr.BufferArea())
	}
	if wl := tr.Wirelength(); wl != 3000 {
		t.Fatalf("buffer on the path must not change wirelength: %d", wl)
	}
}

// TestEvaluateHandComputed checks Evaluate against a fully hand-computed
// two-sink star: Elmore wires, 4-parameter driver.
func TestEvaluateHandComputed(t *testing.T) {
	tech := testTech()
	n := twoSinkNet()
	tr := starTree(n)
	ev := tr.Evaluate(tech, testGate("FALLBACK"))

	// Loads: wire1 C = 1000·0.002 = 2? No: 0.002 pF/λ — C1 = 2.0 pF... use
	// the actual numbers: C(w1)=2.0, C(w2)=4.0; load = 2+0.05+4+0.08.
	wantLoad := 2.0 + 0.05 + 4.0 + 0.08
	if math.Abs(ev.LoadAtSource-wantLoad) > 1e-9 {
		t.Fatalf("LoadAtSource = %g, want %g", ev.LoadAtSource, wantLoad)
	}
	drv := n.Driver
	dDrv := drv.Delay(wantLoad, tech.NominalSlew)
	el1 := tech.WireElmore(1000, 0.05)
	el2 := tech.WireElmore(2000, 0.08)
	req := math.Min(10-el1, 12-el2) - dDrv
	if math.Abs(ev.ReqAtDriverInput-req) > 1e-9 {
		t.Fatalf("ReqAtDriverInput = %g, want %g", ev.ReqAtDriverInput, req)
	}
	wantDelay := 12 - req
	if math.Abs(ev.Delay-wantDelay) > 1e-9 {
		t.Fatalf("Delay = %g, want %g", ev.Delay, wantDelay)
	}
	if ev.CriticalSink != 0 && ev.CriticalSink != 1 {
		t.Fatalf("CriticalSink = %d", ev.CriticalSink)
	}
}

// TestEvaluateBufferShieldsLoad: a buffer on a branch hides the downstream
// capacitance from the driver.
func TestEvaluateBufferShieldsLoad(t *testing.T) {
	tech := testTech()
	n := twoSinkNet()
	tr := starTree(n)
	g := testGate("B")
	buf := &Node{Kind: KindBuffer, Pos: geom.Point{X: 0, Y: 0}, Buffer: g}
	buf.AddChild(tr.Root.Children[1])
	tr.Root.Children[1] = buf
	ev := tr.Evaluate(tech, g)
	wantLoad := 2.0 + 0.05 + g.Cin // branch 2 now presents the buffer pin
	if math.Abs(ev.LoadAtSource-wantLoad) > 1e-9 {
		t.Fatalf("LoadAtSource = %g, want %g", ev.LoadAtSource, wantLoad)
	}
}

func TestPathDelaysMatchesEvaluate(t *testing.T) {
	tech := testTech()
	n := twoSinkNet()
	tr := starTree(n)
	drv := n.Driver
	load, per := tr.PathDelays(tech, drv.SlewOut(0))
	if len(per) != 2 {
		t.Fatalf("want 2 path timings, got %d", len(per))
	}
	// Re-derive ReqAtDriverInput from PathDelays and compare with Evaluate.
	evLoad, _ := load, per
	ev := tr.Evaluate(tech, drv)
	if math.Abs(evLoad-ev.LoadAtSource) > 1e-9 {
		t.Fatalf("loads differ: %g vs %g", evLoad, ev.LoadAtSource)
	}
	// Use the true output slew for the real comparison.
	_, per = tr.PathDelays(tech, drv.SlewOut(ev.LoadAtSource))
	req := math.Inf(1)
	for i, s := range n.Sinks {
		if v := s.Req - per[i].Delay; v < req {
			req = v
		}
	}
	req -= drv.Delay(ev.LoadAtSource, tech.NominalSlew)
	if math.Abs(req-ev.ReqAtDriverInput) > 1e-9 {
		t.Fatalf("PathDelays-derived req %g vs Evaluate %g", req, ev.ReqAtDriverInput)
	}
}

// bufferedFanTree returns an n-sink tree: the source drives a buffer, which
// drives one Steiner point per pair of sinks.
func bufferedFanTree(n int) *Tree {
	nt := &net.Net{Name: "fan", Source: geom.Point{X: 0, Y: 0}, Driver: testGate("DRV")}
	for i := 0; i < n; i++ {
		nt.Sinks = append(nt.Sinks, net.Sink{Pos: geom.Point{X: int64(1000 + 100*i), Y: int64(500 * (i % 3))}, Load: 0.05, Req: 10})
	}
	t := New(nt)
	buf := t.Root.AddChild(&Node{Kind: KindBuffer, Pos: geom.Point{X: 500, Y: 0}, Buffer: testGate("BUF")})
	var st *Node
	for i, s := range nt.Sinks {
		if i%2 == 0 {
			st = buf.AddChild(&Node{Kind: KindSteiner, Pos: geom.Point{X: s.Pos.X, Y: 0}})
		}
		st.AddChild(&Node{Kind: KindSink, Pos: s.Pos, SinkIdx: i})
	}
	return t
}

// TestTimingAllocsIndependentOfSize: Evaluate and PathDelays keep their
// per-node loads in slices sized once, so a 32-sink tree costs them as
// many allocations as a 6-sink one.
func TestTimingAllocsIndependentOfSize(t *testing.T) {
	tech := testTech()
	small, large := bufferedFanTree(6), bufferedFanTree(32)
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := large.Validate(); err != nil {
		t.Fatal(err)
	}
	allocs := func(tr *Tree) (eval, paths float64) {
		eval = testing.AllocsPerRun(50, func() { tr.Evaluate(tech, tr.Net.Driver) })
		paths = testing.AllocsPerRun(50, func() { tr.PathDelays(tech, 0.1) })
		return eval, paths
	}
	se, sp := allocs(small)
	le, lp := allocs(large)
	if se != le {
		t.Errorf("Evaluate: %v allocs on 6 sinks, %v on 32", se, le)
	}
	if sp != lp {
		t.Errorf("PathDelays: %v allocs on 6 sinks, %v on 32", sp, lp)
	}
}

func TestSinkOrder(t *testing.T) {
	n := &net.Net{
		Name:   "four",
		Source: geom.Point{X: 0, Y: 0},
		Sinks: []net.Sink{
			{Pos: geom.Point{X: 1, Y: 1}, Load: 0.01, Req: 1},
			{Pos: geom.Point{X: 2, Y: 2}, Load: 0.01, Req: 1},
			{Pos: geom.Point{X: 3, Y: 3}, Load: 0.01, Req: 1},
			{Pos: geom.Point{X: 4, Y: 4}, Load: 0.01, Req: 1},
		},
	}
	tr := New(n)
	left := tr.Root.AddChild(&Node{Kind: KindSteiner, Pos: geom.Point{X: 1, Y: 0}})
	left.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[2].Pos, SinkIdx: 2})
	left.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[0].Pos, SinkIdx: 0})
	right := tr.Root.AddChild(&Node{Kind: KindSteiner, Pos: geom.Point{X: 2, Y: 0}})
	right.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[3].Pos, SinkIdx: 3})
	right.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[1].Pos, SinkIdx: 1})
	got := tr.SinkOrder()
	want := []int{2, 0, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SinkOrder = %v, want %v", got, want)
		}
	}
}

// caNet builds a net and a hand-made Cα hierarchy:
// source → {s0, B1 → {s1, s2, B2 → {s3}}}.
func caTree(t *testing.T) (*net.Net, *Tree) {
	t.Helper()
	n := &net.Net{
		Name:   "ca",
		Source: geom.Point{X: 0, Y: 0},
		Sinks: []net.Sink{
			{Pos: geom.Point{X: 1, Y: 0}, Load: 0.01, Req: 1},
			{Pos: geom.Point{X: 2, Y: 0}, Load: 0.01, Req: 1},
			{Pos: geom.Point{X: 3, Y: 0}, Load: 0.01, Req: 1},
			{Pos: geom.Point{X: 4, Y: 0}, Load: 0.01, Req: 1},
		},
	}
	tr := New(n)
	tr.Root.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[0].Pos, SinkIdx: 0})
	b1 := tr.Root.AddChild(&Node{Kind: KindBuffer, Pos: geom.Point{X: 2, Y: 1}, Buffer: testGate("B1")})
	b1.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[1].Pos, SinkIdx: 1})
	b1.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[2].Pos, SinkIdx: 2})
	b2 := b1.AddChild(&Node{Kind: KindBuffer, Pos: geom.Point{X: 4, Y: 1}, Buffer: testGate("B2")})
	b2.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[3].Pos, SinkIdx: 3})
	return n, tr
}

func TestIsCaTree(t *testing.T) {
	_, tr := caTree(t)
	ord, err := tr.IsCaTree(3)
	if err != nil {
		t.Fatalf("valid Cα tree rejected: %v", err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if ord[i] != want[i] {
			t.Fatalf("realized order %v, want %v", ord, want)
		}
	}
	// α too small: b1 has 3 hierarchy children (s1, s2, b2) plus... root has 2.
	if _, err := tr.IsCaTree(2); err == nil {
		t.Fatal("branching 3 must violate α=2")
	}
	if tr.BufferChainLength() != 2 {
		t.Fatalf("chain length = %d, want 2", tr.BufferChainLength())
	}
}

func TestIsCaTreeRejectsTwoInternalChildren(t *testing.T) {
	n, tr := caTree(t)
	// Give the root a second buffer child driving s0.
	b3 := &Node{Kind: KindBuffer, Pos: geom.Point{X: 1, Y: 1}, Buffer: testGate("B3")}
	b3.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[0].Pos, SinkIdx: 0})
	tr.Root.Children[0] = b3
	if _, err := tr.IsCaTree(0); err == nil {
		t.Fatal("two internal children must violate Definition 2")
	}
}

// TestLemma3 is experiment E7: an LT-Tree type-I is a Cα_Tree; a Cα tree
// whose internal child has a left sibling is not an LT-Tree.
func TestLemma3(t *testing.T) {
	n, tr := caTree(t)
	// caTree has the buffer child rightmost: internal nodes DO have left
	// siblings, so it is a Cα tree but not an LT-Tree type-I.
	if err := tr.IsLTTreeI(); err == nil {
		t.Fatal("buffer with left sibling accepted as LT-Tree type-I")
	}
	// Rebuild with internal children leftmost: a valid LT-Tree type-I...
	lt := New(n)
	b1 := lt.Root.AddChild(&Node{Kind: KindBuffer, Pos: geom.Point{X: 2, Y: 1}, Buffer: testGate("B1")})
	lt.Root.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[0].Pos, SinkIdx: 0})
	b2 := b1.AddChild(&Node{Kind: KindBuffer, Pos: geom.Point{X: 4, Y: 1}, Buffer: testGate("B2")})
	b1.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[1].Pos, SinkIdx: 1})
	b1.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[2].Pos, SinkIdx: 2})
	b2.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[3].Pos, SinkIdx: 3})
	if err := lt.IsLTTreeI(); err != nil {
		t.Fatalf("valid LT-Tree type-I rejected: %v", err)
	}
	// ...and therefore also a Cα tree (Lemma 3).
	if _, err := lt.IsCaTree(0); err != nil {
		t.Fatalf("LT-Tree must be a Cα tree: %v", err)
	}
}

func TestSteinerTransparentInHierarchy(t *testing.T) {
	n, tr := caTree(t)
	_ = n
	// Wrap b1's sinks behind a Steiner point; the hierarchy must not change.
	b1 := tr.Root.Children[1]
	st := &Node{Kind: KindSteiner, Pos: geom.Point{X: 2, Y: 2}}
	st.Children = b1.Children[:2]
	b1.Children = append([]*Node{st}, b1.Children[2:]...)
	if _, err := tr.IsCaTree(3); err != nil {
		t.Fatalf("steiner wrapping broke the hierarchy: %v", err)
	}
}

func TestString(t *testing.T) {
	_, tr := caTree(t)
	s := tr.String()
	for _, want := range []string{"source", "buffer B1", "buffer B2", "sink s1", "sink s4"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
}

func TestEvaluateSlewPropagationMonotone(t *testing.T) {
	// Longer wires must not decrease delay (sanity of slew handling).
	tech := testTech()
	base := twoSinkNet()
	far := twoSinkNet()
	far.Sinks[1].Pos = geom.Point{X: 0, Y: 4000}
	evBase := starTree(base).Evaluate(tech, base.Driver)
	evFar := starTree(far).Evaluate(tech, far.Driver)
	if evFar.Delay <= evBase.Delay {
		t.Fatalf("longer wire must increase delay: %g vs %g", evFar.Delay, evBase.Delay)
	}
}

func TestWriteDot(t *testing.T) {
	_, tr := caTree(t)
	var b strings.Builder
	if err := tr.WriteDot(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"digraph tree", "shape=house", "shape=triangle", "shape=box",
		"B1", "B2", "s1", "s4", "->",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var b2 strings.Builder
	if err := tr.WriteDot(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("WriteDot is not deterministic")
	}
}

// TestPathDelaysBufferedTree: slews and delays through a buffered branch
// match step-by-step hand propagation.
func TestPathDelaysBufferedTree(t *testing.T) {
	tech := testTech()
	n := twoSinkNet()
	tr := starTree(n)
	g := testGate("B")
	buf := &Node{Kind: KindBuffer, Pos: geom.Point{X: 0, Y: 1000}, Buffer: g}
	buf.AddChild(&Node{Kind: KindSink, Pos: n.Sinks[1].Pos, SinkIdx: 1})
	tr.Root.Children[1] = buf

	rootSlew := 0.3
	load, per := tr.PathDelays(tech, rootSlew)

	// Branch 2 by hand: wire 1000λ to the buffer pin, buffer, wire 1000λ on.
	el1 := tech.WireElmore(1000, g.Cin)
	slewAtBuf := tech.WireSlewOut(rootSlew, el1)
	downstream := tech.WireC(1000) + n.Sinks[1].Load
	dBuf := g.Delay(downstream, slewAtBuf)
	el2 := tech.WireElmore(1000, n.Sinks[1].Load)
	wantDelay := el1 + dBuf + el2
	if math.Abs(per[1].Delay-wantDelay) > 1e-9 {
		t.Fatalf("buffered path delay %.9f, want %.9f", per[1].Delay, wantDelay)
	}
	wantSlew := tech.WireSlewOut(g.SlewOut(downstream), el2)
	if math.Abs(per[1].Slew-wantSlew) > 1e-9 {
		t.Fatalf("buffered path slew %.9f, want %.9f", per[1].Slew, wantSlew)
	}
	// Driver load: branch 1 wire+pin, branch 2 wire+buffer pin.
	wantLoad := tech.WireC(1000) + n.Sinks[0].Load + tech.WireC(1000) + g.Cin
	if math.Abs(load-wantLoad) > 1e-9 {
		t.Fatalf("driver load %.9f, want %.9f", load, wantLoad)
	}
}
