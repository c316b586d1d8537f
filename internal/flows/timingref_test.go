package flows

import (
	"math"
	"slices"
	"testing"

	"merlin/internal/geom"
	"merlin/internal/rc"
	"merlin/internal/tree"
)

// This file keeps the map-based tree timing that tree.Evaluate and
// tree.PathDelays replaced with preorder-indexed slices, as a reference:
// the golden corpus times every flow's tree both ways and demands equal
// bits.

// refLoads fills seen[n] (capacitance the incoming wire observes at n: the
// pin cap for buffers/sinks, the whole subtree cap for Steiner nodes) and
// driven[n] (capacitance a source/buffer at n drives, i.e. its subtree cap
// below the gate output). Returns seen[n].
func refLoads(t *tree.Tree, n *tree.Node, tech rc.Technology, seen, driven map[*tree.Node]float64) float64 {
	subtree := func() float64 {
		var l float64
		for _, c := range n.Children {
			wl := geom.Dist(n.Pos, c.Pos)
			l += tech.WireC(wl) + refLoads(t, c, tech, seen, driven)
		}
		return l
	}
	switch n.Kind {
	case tree.KindSink:
		seen[n] = t.Net.Sinks[n.SinkIdx].Load
	case tree.KindBuffer:
		driven[n] = subtree()
		seen[n] = n.Buffer.Cin
	case tree.KindSource:
		driven[n] = subtree()
		seen[n] = driven[n]
	default:
		seen[n] = subtree()
	}
	return seen[n]
}

// refDown propagates delay and slew to every sink in depth-first order.
func refDown(n *tree.Node, delay, slew float64, tech rc.Technology, seen, driven map[*tree.Node]float64, sink func(n *tree.Node, delay, slew float64)) {
	switch n.Kind {
	case tree.KindSink:
		sink(n, delay, slew)
		return
	case tree.KindBuffer:
		delay += n.Buffer.Delay(driven[n], slew)
		slew = n.Buffer.SlewOut(driven[n])
	}
	for _, c := range n.Children {
		wl := geom.Dist(n.Pos, c.Pos)
		el := tech.WireElmore(wl, seen[c])
		refDown(c, delay+el, tech.WireSlewOut(slew, el), tech, seen, driven, sink)
	}
}

// refEvaluate is tree.Evaluate over the map-based loads.
func refEvaluate(t *tree.Tree, tech rc.Technology, drv rc.Gate) tree.Eval {
	driver := t.Net.Driver
	if driver.Name == "" {
		driver = drv
	}
	seen := make(map[*tree.Node]float64)
	driven := make(map[*tree.Node]float64)
	refLoads(t, t.Root, tech, seen, driven)
	ev := tree.Eval{
		LoadAtSource: driven[t.Root],
		BufferArea:   t.BufferArea(),
		Wirelength:   t.Wirelength(),
		CriticalSink: -1,
	}
	driverDelay := driver.Delay(driven[t.Root], tech.NominalSlew)
	slew0 := driver.SlewOut(driven[t.Root])
	worst := math.Inf(1)
	maxReq := math.Inf(-1)
	for _, s := range t.Net.Sinks {
		if s.Req > maxReq {
			maxReq = s.Req
		}
	}
	refDown(t.Root, 0, slew0, tech, seen, driven, func(n *tree.Node, delay, _ float64) {
		req := t.Net.Sinks[n.SinkIdx].Req - delay
		if req < worst {
			worst = req
			ev.CriticalSink = n.SinkIdx
		}
	})
	ev.ReqAtDriverInput = worst - driverDelay
	ev.Delay = maxReq - ev.ReqAtDriverInput
	return ev
}

// refPathDelays is tree.PathDelays over the map-based loads.
func refPathDelays(t *tree.Tree, tech rc.Technology, rootSlew float64) (float64, []tree.PathTiming) {
	seen := make(map[*tree.Node]float64)
	driven := make(map[*tree.Node]float64)
	refLoads(t, t.Root, tech, seen, driven)
	per := make([]tree.PathTiming, len(t.Net.Sinks))
	refDown(t.Root, 0, rootSlew, tech, seen, driven, func(n *tree.Node, delay, slew float64) {
		per[n.SinkIdx] = tree.PathTiming{Delay: delay, Slew: slew}
	})
	return driven[t.Root], per
}

// checkTiming demands that a flow's tree times to the same bits through
// tree.Evaluate and tree.PathDelays as through the map-based reference.
func checkTiming(t *testing.T, name string, r Result, p Profile) {
	t.Helper()
	if want := refEvaluate(r.Tree, p.Tech, p.Lib.Driver); r.Eval != want {
		t.Errorf("%s: Evaluate %+v, map reference %+v", name, r.Eval, want)
	}
	slew := p.Lib.Driver.SlewOut(r.Eval.LoadAtSource)
	load, per := r.Tree.PathDelays(p.Tech, slew)
	wantLoad, wantPer := refPathDelays(r.Tree, p.Tech, slew)
	if load != wantLoad || !slices.Equal(per, wantPer) {
		t.Errorf("%s: PathDelays load %v per %v, map reference load %v per %v", name, load, per, wantLoad, wantPer)
	}
}
