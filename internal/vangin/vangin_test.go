package vangin

import (
	"math"
	"testing"

	"merlin/internal/buflib"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/ptree"
	"merlin/internal/rc"
	"merlin/internal/tree"
)

func setup() (rc.Technology, *buflib.Library) {
	tech := rc.Default035()
	tech.LoadQuantum = 0
	return tech, buflib.Default035().Small(5)
}

// routed builds an unbuffered PTREE routing for a random net.
func routed(t *testing.T, n int, seed int64) (*net.Net, *tree.Tree) {
	t.Helper()
	tech, lib := setup()
	nt := net.Generate(net.DefaultGenSpec(n, seed), tech, lib.Driver)
	solver := ptree.NewSolver(nt, geom.ReducedHanan(nt.Terminals(), 10), tech, ptree.DefaultOptions())
	tr, _, err := solver.Solve(order.TSP(nt.Source, nt.SinkPoints()))
	if err != nil {
		t.Fatal(err)
	}
	return nt, tr
}

func TestInsertImprovesOrMatches(t *testing.T) {
	tech, lib := setup()
	for seed := int64(0); seed < 5; seed++ {
		nt, tr := routed(t, 7, 40+seed)
		before := tr.Evaluate(tech, lib.Driver)
		out, _, err := Insert(tr, lib, tech, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := out.Evaluate(tech, lib.Driver)
		// Elmore+nominal DP vs slew-propagating eval differ slightly; allow
		// a small epsilon but catch real regressions.
		if after.ReqAtDriverInput < before.ReqAtDriverInput-0.05 {
			t.Fatalf("seed %d: insertion degraded req: %.4f -> %.4f", seed, before.ReqAtDriverInput, after.ReqAtDriverInput)
		}
		_ = nt
	}
}

func TestInsertOnLongWireNet(t *testing.T) {
	tech, lib := setup()
	// One far sink with a big load: buffering must clearly win.
	nt := &net.Net{
		Name:   "long",
		Source: geom.Point{X: 0, Y: 0},
		Driver: lib.Weakest(),
		Sinks: []net.Sink{
			{Pos: geom.Point{X: 60000, Y: 0}, Load: 0.5, Req: 10},
		},
	}
	tr := tree.New(nt)
	tr.Root.AddChild(&tree.Node{Kind: tree.KindSink, Pos: nt.Sinks[0].Pos, SinkIdx: 0})
	before := tr.Evaluate(tech, lib.Weakest())
	opts := DefaultOptions()
	opts.SegLen = 10000 // give van Ginneken interior insertion points
	out, sol, err := Insert(tr, lib, tech, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := out.Evaluate(tech, lib.Weakest())
	if out.NumBuffers() == 0 {
		t.Fatalf("no buffers inserted on a 60kλ wire driving 0.5pF")
	}
	if after.ReqAtDriverInput <= before.ReqAtDriverInput {
		t.Fatalf("insertion did not help: %.4f -> %.4f", before.ReqAtDriverInput, after.ReqAtDriverInput)
	}
	if math.Abs(out.BufferArea()-sol.Area) > 1e-6 {
		t.Fatalf("area accounting: tree %.1f vs DP %.1f", out.BufferArea(), sol.Area)
	}
	// Wirelength must be preserved (buffers sit on the path).
	if out.Wirelength() != tr.Wirelength() {
		t.Fatalf("wirelength changed: %d -> %d", tr.Wirelength(), out.Wirelength())
	}
}

func TestExistingBuffersKept(t *testing.T) {
	tech, lib := setup()
	nt := &net.Net{
		Name:   "pre",
		Source: geom.Point{X: 0, Y: 0},
		Driver: lib.Driver,
		Sinks: []net.Sink{
			{Pos: geom.Point{X: 5000, Y: 0}, Load: 0.05, Req: 8},
			{Pos: geom.Point{X: 0, Y: 5000}, Load: 0.05, Req: 8},
		},
	}
	tr := tree.New(nt)
	pre := lib.Strongest()
	b := tr.Root.AddChild(&tree.Node{Kind: tree.KindBuffer, Pos: geom.Point{X: 2500, Y: 0}, Buffer: pre})
	b.AddChild(&tree.Node{Kind: tree.KindSink, Pos: nt.Sinks[0].Pos, SinkIdx: 0})
	tr.Root.AddChild(&tree.Node{Kind: tree.KindSink, Pos: nt.Sinks[1].Pos, SinkIdx: 1})
	out, _, err := Insert(tr, lib, tech, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	out.Walk(func(n, _ *tree.Node, _ int) bool {
		if n.Kind == tree.KindBuffer && n.Buffer.Name == pre.Name && n.Pos == (geom.Point{X: 2500, Y: 0}) {
			found = true
		}
		return true
	})
	if !found {
		t.Fatalf("pre-existing buffer dropped:\n%s", out)
	}
}

// TestAgainstBruteForceSingleWire: one wire, one insertion point, tiny
// library — enumerate all options by hand.
func TestAgainstBruteForceSingleWire(t *testing.T) {
	tech, _ := setup()
	lib := buflib.Default035().Small(2)
	drv := lib.Driver
	nt := &net.Net{
		Name:   "bf",
		Source: geom.Point{X: 0, Y: 0},
		Driver: drv,
		Sinks:  []net.Sink{{Pos: geom.Point{X: 40000, Y: 0}, Load: 0.2, Req: 10}},
	}
	tr := tree.New(nt)
	tr.Root.AddChild(&tree.Node{Kind: tree.KindSink, Pos: nt.Sinks[0].Pos, SinkIdx: 0})
	opts := DefaultOptions()
	opts.SegLen = 20000 // exactly one interior insertion point at 20kλ
	opts.MaxSols = 0
	_, sol, err := Insert(tr, lib, tech, opts)
	if err != nil {
		t.Fatal(err)
	}
	bestReq := math.Inf(-1)
	elm := func(l int64, c float64) float64 { return tech.WireElmore(l, c) }
	wc := tech.WireC(20000)
	// No buffer.
	noBuf := 10 - elm(40000, 0.2)
	load0 := 0.2 + tech.WireC(40000)
	if v := noBuf - drv.DelayNominal(&tech, load0); v > bestReq {
		bestReq = v
	}
	// One buffer b at the midpoint.
	for _, b := range lib.Buffers {
		req := 10 - elm(20000, 0.2)
		req -= b.DelayNominal(&tech, 0.2+wc)
		req -= elm(20000, b.Cin)
		load := b.Cin + wc
		if v := req - drv.DelayNominal(&tech, load); v > bestReq {
			bestReq = v
		}
	}
	got := sol.Req - drv.DelayNominal(&tech, sol.Load)
	if math.Abs(got-bestReq) > 1e-9 {
		t.Fatalf("DP req %.6f, brute force %.6f", got, bestReq)
	}
}

func TestEmptyTreeRejected(t *testing.T) {
	tech, lib := setup()
	if _, _, err := Insert(&tree.Tree{}, lib, tech, DefaultOptions()); err == nil {
		t.Fatal("empty tree accepted")
	}
}
