package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"merlin/internal/flows"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/ptree"
	"merlin/internal/trace"
	"merlin/internal/tree"
	"merlin/internal/vangin"
)

// flows-baseline: flows.RunFlowI and flows.RunFlowII on 16-, 24- and 32-sink
// nets. It runs lttree, ptree, vangin and curve with no core, so a core-only
// change must leave it unchanged; these are also the degradation ladder's
// bottom rungs.

// flowsReqShift raises every sink required time by 5 ns over the Table 1
// generator. At n=32, Flow II's driver required time sits around 0 ns on
// the default window, where a mean over a run swings in sign from seed to
// seed; shifted, req_ns_mean stays near 6 ns and its spread stays small.
const flowsReqShift = 5.0

// flowsPass is the seeded part of one pass of the plan; each pass adds one
// fixed 32-sink net. A pass takes ~9 s on one 2.x GHz core, most of it Flow
// II at n=32 and n=24, and the plan runs one pass per 10 s of --seconds.
// The mix puts the median per-net latency among the 24-sink nets and the
// 90th percentile among the 32-sink ones, away from the gaps between sizes.
var flowsPass = []struct{ n, count int }{{16, 2}, {24, 3}}

const flowsPassSeconds = 10.0

// evalRepeats is how many hit samples each stored answer gives: a sample is
// the mean time of evalBatch re-timings with Tree.Evaluate, the "hit"
// population of this workload, a few milliseconds in all, per tree node,
// so that the sizes of the trees a seed happens to draw do not move it. The
// 36 answers of a 30 s run give ≥1000 samples.
const (
	evalRepeats = 28
	evalBatch   = 300
)

func flowsPlan(cfg config) []*net.Net {
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.smoke {
		return genNets(rng, 16, 1, flowsReqShift)
	}
	passes := max(1, int(math.Round(float64(cfg.seconds)/flowsPassSeconds)))
	if cfg.traced {
		passes = max(1, passes/2) // each traced-plan net runs three times
	}
	var nets []*net.Net
	for i := 0; i < passes; i++ {
		for _, s := range flowsPass {
			nets = append(nets, genNets(rng, s.n, s.count, flowsReqShift)...)
		}
		// Pass i's 32-sink net is fixed: a 32-sink Flow II run is a third of
		// a pass and sets the run's peak RSS, so a random one would decide
		// both nets_per_s and peak_rss_mb.
		p := flows.ProfileFor(32)
		spec := net.DefaultGenSpec(32, int64(i+1))
		spec.ReqBase += flowsReqShift
		nets = append(nets, net.Generate(spec, p.Tech, p.Lib.Driver))
	}
	return nets
}

// flowRun is one measured flow call.
type flowRun struct {
	res    flows.Result
	dur    time.Duration
	allocs uint64
}

func runFlow(id flows.ID, n *net.Net) (flowRun, error) {
	p := flows.ProfileFor(n.N())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var res flows.Result
	var err error
	if id == flows.FlowI {
		res, err = flows.RunFlowI(n, p)
	} else {
		res, err = flows.RunFlowII(n, p)
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return flowRun{}, err
	}
	if err := checkFlowResult(n, res); err != nil {
		return flowRun{}, err
	}
	return flowRun{res: res, dur: dur, allocs: m1.Mallocs - m0.Mallocs}, nil
}

type flowsRun struct {
	res    *result
	cal    calibrator
	busy   time.Duration // timed flow runs and re-timings
	runs   int           // flow runs answered
	coldMS []float64     // per net: Flow I plus Flow II
	hitMS  []float64
	reqs   []float64
	areas  []float64
	allocs map[flows.ID][]float64
	dur    time.Duration // sum of untraced flow times
}

// both runs Flow I and Flow II on n untraced, then re-times each answer on a
// collected heap.
func (f *flowsRun) both(n *net.Net) (map[flows.ID]flowRun, bool) {
	ids := []flows.ID{flows.FlowI, flows.FlowII}
	out := map[flows.ID]flowRun{}
	var netDur time.Duration
	for _, id := range ids {
		f.res.attempted++
		fr, err := runFlow(id, n)
		if err != nil {
			f.res.fail("flows-baseline %v %s: %v", id, n.Name, err)
			return out, false
		}
		out[id] = fr
		f.runs++
		f.dur += fr.dur
		netDur += fr.dur
		f.reqs = append(f.reqs, fr.res.Eval.ReqAtDriverInput)
		f.areas = append(f.areas, fr.res.Eval.BufferArea)
		f.allocs[id] = append(f.allocs[id], float64(fr.allocs))
		fmt.Fprintf(os.Stderr, "net %s n=%d flow=%v req=%.6f area=%.3f allocs=%d\n",
			n.Name, n.N(), id, fr.res.Eval.ReqAtDriverInput, fr.res.Eval.BufferArea, fr.allocs)
	}
	f.coldMS = append(f.coldMS, ms(netDur))
	f.busy += netDur
	runtime.GC()
	p := flows.ProfileFor(n.N())
	for _, id := range ids {
		fr := out[id]
		nodes := 0
		fr.res.Tree.Walk(func(*tree.Node, *tree.Node, int) bool { nodes++; return true })
		for i := 0; i < evalRepeats; i++ {
			start := time.Now()
			changed := false
			for j := 0; j < evalBatch; j++ {
				if fr.res.Tree.Evaluate(p.Tech, p.Lib.Driver) != fr.res.Eval {
					changed = true
				}
			}
			dur := time.Since(start)
			f.busy += dur
			f.hitMS = append(f.hitMS, ms(dur)/float64(evalBatch*nodes))
			if changed {
				f.res.fail("flows-baseline %v %s: re-timing changed the answer", id, n.Name)
			}
		}
	}
	return out, true
}

func runFlowsBaseline(cfg config) (*result, error) {
	nets, setupS, err := medianSetup(3, func() ([]*net.Net, error) {
		nets := flowsPlan(cfg)
		// Warm-up outside the measurement on a fixed net, as in dp-cold.
		rng := rand.New(rand.NewSource(1))
		warm := genNets(rng, 16, 1, flowsReqShift)[0]
		for _, id := range []flows.ID{flows.FlowI, flows.FlowII} {
			if _, err := runFlow(id, warm); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return nets, nil
	}, func([]*net.Net) {})
	if err != nil {
		return nil, err
	}
	f := &flowsRun{res: newResult(), allocs: map[flows.ID][]float64{}}
	if cfg.traced {
		return f.traced(cfg, nets)
	}
	runtime.GC()
	for _, n := range nets {
		f.cal.sample(1)
		f.both(n)
		runtime.GC() // as in dp-cold: every net starts from a collected heap
	}
	v := f.res.values
	v["nets_per_s"] = float64(f.runs) / f.busy.Seconds()
	v["req_ns_mean"] = mean(f.reqs)
	v["buffer_area_mean"] = mean(f.areas)
	v["peak_rss_mb"] = peakRSSMB()
	v["setup_s"] = setupS
	v["route_hit_ms_p50"] = quantile(f.hitMS, 0.5)
	v["route_hit_ms_p99"] = quantile(f.hitMS, 0.99)
	v["route_cold_ms_p50"] = quantile(f.coldMS, 0.5)
	v["route_cold_ms_p90"] = quantile(f.coldMS, 0.9)
	f.cal.scale(v, []string{"nets_per_s"}, e2eTimes)
	fmt.Fprintf(os.Stderr, "flows-baseline: %d flow runs in %.2fs\n", f.runs, f.busy.Seconds())
	return f.res, nil
}

// traced runs each plan net untraced, then traced under the benchmark's
// flows.flow1/flows.flow2 spans, then through direct ptree and vangin calls
// with the options Flow II uses. Flows I and II emit no spans of their own.
func (f *flowsRun) traced(cfg config, nets []*net.Net) (*result, error) {
	rec := newSpanLog(cfg, "flows-baseline")
	var tracedDur time.Duration
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	flowMS := map[flows.ID]map[int][]float64{flows.FlowI: {}, flows.FlowII: {}}
	var ptreeMS, vanginMS []float64
	for _, n := range nets {
		untraced, ok := f.both(n)
		if !ok {
			continue
		}
		tr, root := trace.NewTrace("bench.flows-baseline")
		root.SetAttr("net", n.Name)
		ctx := trace.ContextWith(context.Background(), tr, root)
		for _, id := range []flows.ID{flows.FlowI, flows.FlowII} {
			name := map[flows.ID]string{flows.FlowI: "flows.flow1", flows.FlowII: "flows.flow2"}[id]
			_, sp := trace.StartSpan(ctx, name)
			f.res.attempted++
			fr, err := runFlow(id, n)
			sp.End()
			if err != nil {
				f.res.fail("flows-baseline traced %v %s: %v", id, n.Name, err)
				continue
			}
			tracedDur += fr.dur
			flowMS[id][n.N()] = append(flowMS[id][n.N()], ms(fr.dur))
		}
		f.res.attempted++
		pt, vg, err := routeThenInsert(ctx, n, untraced[flows.FlowII].res)
		root.End()
		if err != nil {
			f.res.fail("flows-baseline direct ptree+vangin %s: %v", n.Name, err)
		} else {
			ptreeMS = append(ptreeMS, pt)
			vanginMS = append(vanginMS, vg)
		}
		rec.add("bench", tr)
	}
	runtime.ReadMemStats(&gc1)
	v := f.res.values
	for _, n := range []int{16, 24, 32} {
		v[sizeMetric("flows.flow1_ms", n)] = quantile(flowMS[flows.FlowI][n], 0.5)
		v[sizeMetric("flows.flow2_ms", n)] = quantile(flowMS[flows.FlowII][n], 0.5)
	}
	v["ptree.solve_ms"] = mean(ptreeMS)
	v["vangin.insert_ms"] = mean(vanginMS)
	v["flows.allocs_per_flow1"] = mean(f.allocs[flows.FlowI])
	v["flows.allocs_per_flow2"] = mean(f.allocs[flows.FlowII])
	v["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	v["runtime.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	v["trace.overhead_pct"] = overheadPct(f.dur, tracedDur)
	return f.res, rec.write()
}

// routeThenInsert is Flow II through the modules' public calls, each under
// its own span: PTREE routing in TSP order over the reduced Hanan
// candidates, then van Ginneken insertion with Flow II's segment length.
// The result must equal Flow II's own answer.
func routeThenInsert(ctx context.Context, n *net.Net, want flows.Result) (ptreeMS, vanginMS float64, err error) {
	p := flows.ProfileFor(n.N())
	ord := order.TSP(n.Source, n.SinkPoints())
	_, psp := trace.StartSpan(ctx, "ptree.solve")
	start := time.Now()
	solver := ptree.NewSolver(n, geom.ReducedHanan(n.Terminals(), p.MaxCands), p.Tech, p.PTree)
	routed, _, err := solver.Solve(ord)
	ptreeMS = ms(time.Since(start))
	psp.End()
	if err != nil {
		return 0, 0, fmt.Errorf("ptree: %w", err)
	}
	vg := p.VG
	if vg.SegLen == 0 {
		box := geom.BoundingBox(n.Terminals())
		vg.SegLen = max((box.Width()+box.Height())/8, 1)
	}
	_, vsp := trace.StartSpan(ctx, "vangin.insert")
	start = time.Now()
	buffered, _, err := vangin.Insert(routed, p.Lib, p.Tech, vg)
	vanginMS = ms(time.Since(start))
	vsp.End()
	if err != nil {
		return 0, 0, fmt.Errorf("vangin: %w", err)
	}
	if err := buffered.Validate(); err != nil {
		return 0, 0, err
	}
	if ev := buffered.Evaluate(p.Tech, p.Lib.Driver); !sameEval(ev, want.Eval) {
		return 0, 0, fmt.Errorf("direct calls give req %g area %g, Flow II gave req %g area %g",
			ev.ReqAtDriverInput, ev.BufferArea, want.Eval.ReqAtDriverInput, want.Eval.BufferArea)
	}
	return ptreeMS, vanginMS, nil
}

func sameEval(a, b tree.Eval) bool {
	return a.ReqAtDriverInput == b.ReqAtDriverInput && a.BufferArea == b.BufferArea
}
