package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"merlin/internal/core"
	"merlin/internal/flows"
	"merlin/internal/net"
	"merlin/internal/trace"
)

// dp-cold: Flow III in process through flows.NewEngineIII and
// flows.RunFlowIIIOn, one fresh engine per net, run to the order fixpoint on
// one goroutine with no service in front. Every net fills fresh memo tables,
// so this is the DP's memo-write path at full strength.

// warmRepeats is how many hit samples each solved net gives: a sample is the
// mean time of hitBatch repeats of the solve on its warm engine (the
// memo-read path, the "hit" population of this workload), run on a
// collected heap so the cold solve's garbage is not timed with them. A
// sample lasts about a millisecond, so one burst of stolen time does not
// decide the tail. The 34 nets of a 30 s run give ≥1000 samples, so p99 has
// ≥10 beyond it.
//
// Both latency populations are per BUBBLE_CONSTRUCT pass (solve time over
// Result.Loops): a net needs 1–5 passes to reach its fixpoint, so whole-solve
// latency is multimodal and its percentiles jump between modes from seed to
// seed.
const (
	warmRepeats = 30
	hitBatch    = 20
)

// coldNetsPerSecond sizes the untraced plan's 6-sink share: a 6-sink net
// takes ~0.6 s to its fixpoint on one 2.x GHz core, averaged over the 1–5
// loops nets need, so a 30 s run solves for ~22 s; the stratified pool keeps
// that steady, and serve-fleet gets the time.
const coldNetsPerSecond = 1.1

// dpColdPlan draws the nets of one run from the seed. The untraced plan is
// 6-sink nets from the pool plus one fixed 8-sink net: a 10- or 12-sink net
// takes 5–19 s, and a few random ones would decide nets_per_s. The 8-sink
// net's engine (~22 MB live) outgrows every 6-sink one (≤15 MB), so it sets
// the run's peak RSS whichever 6-sink nets a seed draws. The traced plan
// adds one 10- and 12-sink net and two 8-sink nets per run, straight from
// the generator, for the per-size core metrics.
func dpColdPlan(cfg config) []*net.Net {
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.smoke {
		return drawN6(rng, 2)
	}
	count := max(1, int(math.Round(float64(cfg.seconds)*coldNetsPerSecond)))
	if !cfg.traced {
		p := flows.ProfileFor(8)
		return append(drawN6(rng, count), net.Generate(net.DefaultGenSpec(8, 1), p.Tech, p.Lib.Driver))
	}
	// Each traced-plan net is solved twice (untraced, then traced), so the
	// 6-sink share shrinks to keep the run inside its time budget.
	nets := drawN6(rng, max(1, count/4))
	nets = append(nets, genNets(rng, 8, 2, 0)...)
	nets = append(nets, genNets(rng, 10, 1, 0)...)
	return append(nets, genNets(rng, 12, 1, 0)...)
}

// coldSolve is one measured cold solve.
type coldSolve struct {
	n      *net.Net
	en     *core.Engine
	res    flows.Result
	dur    time.Duration // RunFlowIIIOn alone
	allocs uint64        // engine build plus solve
	bytes  uint64
}

func solveCold(ctx context.Context, n *net.Net) (coldSolve, error) {
	p := flows.ProfileFor(n.N())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	en := flows.NewEngineIII(n, p)
	start := time.Now()
	res, err := flows.RunFlowIIIOn(ctx, en, p)
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return coldSolve{}, fmt.Errorf("net %s: %w", n.Name, err)
	}
	return coldSolve{n: n, en: en, res: res, dur: dur, allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// checkFlowResult is the answer check of the in-process workloads: the tree
// is structurally valid and the benchmark's own Tree.Evaluate reproduces the
// reported required time and buffer area exactly.
func checkFlowResult(n *net.Net, r flows.Result) error {
	p := flows.ProfileFor(n.N())
	if err := r.Tree.Validate(); err != nil {
		return err
	}
	ev := r.Tree.Evaluate(p.Tech, p.Lib.Driver)
	if ev.ReqAtDriverInput != r.Eval.ReqAtDriverInput || ev.BufferArea != r.Eval.BufferArea {
		return fmt.Errorf("re-evaluated req %g area %g, answer says req %g area %g",
			ev.ReqAtDriverInput, ev.BufferArea, r.Eval.ReqAtDriverInput, r.Eval.BufferArea)
	}
	return nil
}

// dpColdRun accumulates one pass over the plan.
type dpColdRun struct {
	res       *result
	cal       calibrator
	busy      time.Duration // timed solves and repeats
	solveDur  time.Duration // sum of RunFlowIIIOn times
	coldMS    []float64
	hitMS     []float64
	reqs      []float64
	areas     []float64
	loops     []float64
	frontiers []float64
	allocs    []float64
	bytes     []float64
}

// solveAndRepeat solves one net cold, checks it, prints its counts, then
// asks for it warmRepeats times on the warm engine and checks each repeat
// returns the cold answer.
func (d *dpColdRun) solveAndRepeat(ctx context.Context, n *net.Net, repeats int) (coldSolve, bool) {
	d.res.attempted++
	cs, err := solveCold(ctx, n)
	if err == nil {
		err = checkFlowResult(n, cs.res)
	}
	if err != nil {
		d.res.fail("dp-cold %s: %v", n.Name, err)
		return cs, false
	}
	d.solveDur += cs.dur
	d.busy += cs.dur
	d.coldMS = append(d.coldMS, ms(cs.dur)/float64(cs.res.Loops))
	d.reqs = append(d.reqs, cs.res.Eval.ReqAtDriverInput)
	d.areas = append(d.areas, cs.res.Eval.BufferArea)
	d.loops = append(d.loops, float64(cs.res.Loops))
	d.frontiers = append(d.frontiers, float64(len(cs.res.Frontier.Sols)))
	d.allocs = append(d.allocs, float64(cs.allocs))
	d.bytes = append(d.bytes, float64(cs.bytes))
	fmt.Fprintf(os.Stderr, "net %s n=%d loops=%d frontier=%d req=%.6f area=%.3f allocs=%d\n",
		n.Name, n.N(), cs.res.Loops, len(cs.res.Frontier.Sols), cs.res.Eval.ReqAtDriverInput, cs.res.Eval.BufferArea, cs.allocs)

	runtime.GC()
	p := flows.ProfileFor(n.N())
	for i := 0; i < repeats; i++ {
		var dur time.Duration
		for j := 0; j < hitBatch; j++ {
			d.res.attempted++
			start := time.Now()
			again, err := flows.RunFlowIIIOn(ctx, cs.en, p)
			dur += time.Since(start)
			if err != nil {
				d.res.fail("dp-cold %s warm repeat: %v", n.Name, err)
			} else if again.Eval.ReqAtDriverInput != cs.res.Eval.ReqAtDriverInput || again.Eval.BufferArea != cs.res.Eval.BufferArea {
				d.res.fail("dp-cold %s warm repeat answered req %g area %g, cold answer was req %g area %g", n.Name,
					again.Eval.ReqAtDriverInput, again.Eval.BufferArea, cs.res.Eval.ReqAtDriverInput, cs.res.Eval.BufferArea)
			}
		}
		d.busy += dur
		d.hitMS = append(d.hitMS, ms(dur)/float64(hitBatch*cs.res.Loops))
	}
	return cs, true
}

func runDPCold(cfg config) (*result, error) {
	ctx := context.Background()
	nets, setupS, err := medianSetup(3, func() ([]*net.Net, error) {
		nets := dpColdPlan(cfg)
		// A warm-up solve per set-up puts heap growth and first-call costs
		// outside the measurement. Its net does not depend on the seed, which
		// keeps setup_s comparable across seeds.
		if _, err := solveCold(ctx, n6Net(1)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return nets, nil
	}, func([]*net.Net) {})
	if err != nil {
		return nil, err
	}
	d := &dpColdRun{res: newResult()}
	if cfg.traced {
		return d.traced(ctx, cfg, nets)
	}
	runtime.GC()
	for _, n := range nets {
		d.cal.sample(1)
		d.solveAndRepeat(ctx, n, warmRepeats)
		// Every net starts from a collected heap, so the peak RSS follows the
		// largest engine rather than when the collector happened to run.
		runtime.GC()
	}
	v := d.res.values
	v["nets_per_s"] = float64(len(d.coldMS)) / d.busy.Seconds()
	v["req_ns_mean"] = mean(d.reqs)
	v["buffer_area_mean"] = mean(d.areas)
	v["peak_rss_mb"] = peakRSSMB()
	v["setup_s"] = setupS
	v["route_hit_ms_p50"] = quantile(d.hitMS, 0.5)
	v["route_hit_ms_p99"] = quantile(d.hitMS, 0.99)
	v["route_cold_ms_p50"] = quantile(d.coldMS, 0.5)
	v["route_cold_ms_p90"] = quantile(d.coldMS, 0.9)
	d.cal.scale(v, []string{"nets_per_s"}, e2eTimes)
	fmt.Fprintf(os.Stderr, "dp-cold: %d nets, %d warm repeats in %.2fs\n", len(d.coldMS), len(d.hitMS), d.busy.Seconds())
	return d.res, nil
}

// traced solves every plan net twice with fresh engines — untraced, then
// inside a trace — so trace.overhead_pct compares identical work. Per-layer
// metrics come from the traced solves' spans and from the untraced solves'
// MemStats deltas.
func (d *dpColdRun) traced(ctx context.Context, cfg config, nets []*net.Net) (*result, error) {
	rec := newSpanLog(cfg, "dp-cold")
	var tracedDur time.Duration
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	solveMS := map[int][]float64{}
	constructMS := map[int][]float64{}
	var extractMS []float64
	for _, n := range nets {
		if _, ok := d.solveAndRepeat(ctx, n, 1); !ok {
			continue
		}
		runtime.GC() // as in the untraced run; both halves start collected
		tr, root := trace.NewTrace("bench.dp-cold")
		root.SetAttr("net", n.Name)
		sctx, sp := trace.StartSpan(trace.ContextWith(ctx, tr, root), "core.solve")
		d.res.attempted++
		cs, err := solveCold(sctx, n)
		sp.End()
		root.End()
		if err == nil {
			err = checkFlowResult(n, cs.res)
		}
		if err != nil {
			d.res.fail("dp-cold traced %s: %v", n.Name, err)
			continue
		}
		tracedDur += cs.dur
		runtime.GC()
		snap := rec.add("bench", tr)
		solveMS[n.N()] = append(solveMS[n.N()], ms(cs.dur))
		constructMS[n.N()] = append(constructMS[n.N()], spanTotalMS(snap, "dp.construct"))
		extractMS = append(extractMS, spanDurationsMS(snap, "dp.extract")...)
	}
	runtime.ReadMemStats(&gc1)
	v := d.res.values
	for _, n := range []int{6, 8, 10, 12} {
		v[sizeMetric("core.solve_ms", n)] = quantile(solveMS[n], 0.5)
		v[sizeMetric("core.construct_ms", n)] = quantile(constructMS[n], 0.5)
		if s := quantile(solveMS[n], 0.5); s > 0 {
			fmt.Fprintf(os.Stderr, "dp-cold: n=%d dp.construct is %.1f%% of core.solve (medians)\n", n, 100*quantile(constructMS[n], 0.5)/s)
		}
	}
	v["core.extract_ms"] = quantile(extractMS, 0.5)
	v["core.allocs_per_solve"] = mean(d.allocs)
	v["core.bytes_per_solve"] = mean(d.bytes)
	v["core.loops_per_net"] = mean(d.loops)
	v["core.frontier_size"] = mean(d.frontiers)
	v["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	v["runtime.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	v["trace.overhead_pct"] = overheadPct(d.solveDur, tracedDur)
	return d.res, rec.write()
}

// overheadPct is how much lower traced nets/s is than untraced nets/s over
// the same nets: 100·(1 − untraced time / traced time).
func overheadPct(untraced, traced time.Duration) float64 {
	if traced <= 0 {
		return 0
	}
	return 100 * (1 - untraced.Seconds()/traced.Seconds())
}
