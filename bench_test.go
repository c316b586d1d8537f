// Benchmarks of the paper's smaller experiments and of the DP's layers (see
// DESIGN.md §3 for the experiment index); custom metrics carry the quality
// numbers next to the times. Tables 1 and 2 are reproduced by cmd/table1
// and cmd/table2.
package merlin_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"merlin/internal/core"
	"merlin/internal/curve"
	"merlin/internal/degrade"
	"merlin/internal/flows"
	"merlin/internal/geom"
	"merlin/internal/net"
	"merlin/internal/order"
	"merlin/internal/ptree"
	"merlin/internal/service"
	"merlin/internal/vangin"
)

// BenchmarkNeighborhoodEnum is experiment E3 (Theorem 1): exhaustive
// enumeration of the order neighborhood, whose Fibonacci size is the
// paper's exponential-subspace claim.
func BenchmarkNeighborhoodEnum(b *testing.B) {
	for _, n := range []int{10, 15, 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pi := order.Identity(n)
			var got int
			for i := 0; i < b.N; i++ {
				got = len(order.Neighborhood(pi))
			}
			if uint64(got) != order.NeighborhoodSize(n) {
				b.Fatalf("enumerated %d, closed form %d", got, order.NeighborhoodSize(n))
			}
			b.ReportMetric(float64(got), "orders")
		})
	}
}

// BenchmarkMerlinConvergence is experiment E4: MERLIN's loop count across
// random nets ("converges very quickly for most practical examples").
func BenchmarkMerlinConvergence(b *testing.B) {
	prof := flows.ProfileFor(8)
	prof.Core.MaxLoops = 12
	for i := 0; i < b.N; i++ {
		totalLoops := 0
		const nets = 5
		for s := 0; s < nets; s++ {
			nt := net.Generate(net.DefaultGenSpec(8, int64(500+s)), prof.Tech, prof.Lib.Driver)
			res, err := core.Merlin(nt, geom.ReducedHanan(nt.Terminals(), prof.MaxCands),
				prof.Lib, prof.Tech, prof.Core, nil)
			if err != nil {
				b.Fatal(err)
			}
			totalLoops += res.Loops
		}
		if i == 0 {
			b.ReportMetric(float64(totalLoops)/nets, "loops/net")
		}
	}
}

// BenchmarkCandidateSets is experiment E6 (§III.1): the candidate-location
// choice — full Hanan, reduced Hanan, centers of mass — barely moves the
// result once k is large enough. The req metric carries the quality.
func BenchmarkCandidateSets(b *testing.B) {
	prof := flows.ProfileFor(7)
	nt := net.Generate(net.DefaultGenSpec(7, 77), prof.Tech, prof.Lib.Driver)
	sets := map[string][]geom.Point{
		"hanan-full":    geom.HananGrid(nt.Terminals()),
		"hanan-reduced": geom.ReducedHanan(nt.Terminals(), prof.MaxCands),
		"center-mass":   comCandidates(nt, prof.MaxCands),
	}
	for name, cands := range sets {
		b.Run(name, func(b *testing.B) {
			var req float64
			for i := 0; i < b.N; i++ {
				res, err := core.Merlin(nt, cands, prof.Lib, prof.Tech, prof.Core, nil)
				if err != nil {
					b.Fatal(err)
				}
				req = res.ReqAtDriverInput
			}
			b.ReportMetric(req, "req-ns")
			b.ReportMetric(float64(len(cands)), "k")
		})
	}
}

func comCandidates(nt *net.Net, maxK int) []geom.Point {
	ord := order.TSP(nt.Source, nt.SinkPoints())
	pts := make([]geom.Point, len(ord))
	for i, s := range ord {
		pts[i] = nt.Sinks[s].Pos
	}
	cands := geom.CenterOfMassCandidates(pts)
	if len(cands) > maxK {
		cands = cands[:maxK]
	}
	return append(cands, nt.Source)
}

// BenchmarkBubblingAblation is experiment E8: one BUBBLE_CONSTRUCT pass
// (MERLIN with MaxLoops 1) with all four grouping structures versus the
// χ0-only restriction (bubbling disabled), from the same deliberately poor
// initial order.
func BenchmarkBubblingAblation(b *testing.B) {
	prof := flows.ProfileFor(8)
	nt := net.Generate(net.DefaultGenSpec(8, 88), prof.Tech, prof.Lib.Driver)
	cands := geom.ReducedHanan(nt.Terminals(), prof.MaxCands)
	tsp := order.TSP(nt.Source, nt.SinkPoints())
	bad := make(order.Order, len(tsp))
	for i, v := range tsp {
		bad[len(tsp)-1-i] = v
	}
	for _, cfg := range []struct {
		name string
		chis []core.Chi
	}{
		{"bubbling-on", nil},
		{"bubbling-off", []core.Chi{core.Chi0}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := prof.Core
			opts.Chis = cfg.chis
			opts.MaxLoops = 1
			var req float64
			for i := 0; i < b.N; i++ {
				res, err := core.Merlin(nt, cands, prof.Lib, prof.Tech, opts, bad)
				if err != nil {
					b.Fatal(err)
				}
				req = res.Solution.Req
			}
			b.ReportMetric(req, "req-ns")
		})
	}
}

// BenchmarkBubbleConstruct measures the inner engine across net sizes — the
// practical face of Theorem 6's complexity bound.
func BenchmarkBubbleConstruct(b *testing.B) {
	for _, n := range []int{5, 8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prof := flows.ProfileFor(n)
			nt := net.Generate(net.DefaultGenSpec(n, int64(n)), prof.Tech, prof.Lib.Driver)
			cands := geom.ReducedHanan(nt.Terminals(), prof.MaxCands)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				en := core.NewEngine(nt, cands, prof.Lib, prof.Tech, prof.Core)
				if _, err := en.Construct(order.TSP(nt.Source, nt.SinkPoints())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPTree measures the routing baseline (Lemma 1's DP), one solver
// reused across solves as a caller that solves many orders would.
func BenchmarkPTree(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			prof := flows.ProfileFor(n)
			nt := net.Generate(net.DefaultGenSpec(n, int64(n)), prof.Tech, prof.Lib.Driver)
			solver := ptree.NewSolver(nt, geom.ReducedHanan(nt.Terminals(), prof.MaxCands), prof.Tech, prof.PTree)
			ord := order.TSP(nt.Source, nt.SinkPoints())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.Solve(ord); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVanGinneken measures buffer insertion on a fixed routing.
func BenchmarkVanGinneken(b *testing.B) {
	prof := flows.ProfileFor(12)
	nt := net.Generate(net.DefaultGenSpec(12, 3), prof.Tech, prof.Lib.Driver)
	solver := ptree.NewSolver(nt, geom.ReducedHanan(nt.Terminals(), prof.MaxCands), prof.Tech, prof.PTree)
	routed, _, err := solver.Solve(order.TSP(nt.Source, nt.SinkPoints()))
	if err != nil {
		b.Fatal(err)
	}
	vg := prof.VG
	vg.SegLen = 8000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vangin.Insert(routed, prof.Lib, prof.Tech, vg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceBatch is the service throughput baseline for later scaling
// PRs: N synthetic nets pushed through the worker pool at once, one Route
// call per net from its own goroutine, at several pool sizes. The result
// cache is disabled so every iteration pays full compute; per-worker engine
// reuse stays on (it is part of the design being measured). nets/s is the
// headline metric. Throughput only scales with the pool size when
// GOMAXPROCS > 1; on a single-CPU box all pool sizes report the same rate.
func BenchmarkServiceBatch(b *testing.B) {
	const numNets = 16
	prof := flows.ProfileFor(6)
	nets := make([]*net.Net, numNets)
	for i := range nets {
		nets[i] = net.Generate(net.DefaultGenSpec(6, int64(1000+i)), prof.Tech, prof.Lib.Driver)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := service.New(service.Config{
				Workers:    workers,
				QueueDepth: numNets,
				CacheSize:  -1, // measure compute, not cache
			})
			defer s.Shutdown(context.Background())
			errs := make([]error, numNets)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j, nt := range nets {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[j] = s.Route(context.Background(), &service.RouteRequest{Net: nt})
					}()
				}
				wg.Wait()
				for j, err := range errs {
					if err != nil {
						b.Fatalf("net %d: %v", j, err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(numNets)*float64(b.N)/b.Elapsed().Seconds(), "nets/s")
		})
	}
}

// BenchmarkLadderDegraded prices the degradation ladder: each forced rung
// measured alone (what a brownout level costs/saves per answer, with the
// achieved driver required time attached as a quality metric), plus the
// fall-through case where a solution budget no DP rung can satisfy makes the
// ladder pay for two failed attempts before a constructive rung serves.
func BenchmarkLadderDegraded(b *testing.B) {
	prof := flows.ProfileFor(10)
	prof.Core.MaxLoops = 1
	n := net.Generate(net.DefaultGenSpec(10, 42), prof.Tech, prof.Lib.Driver)
	for _, tier := range degrade.Tiers() {
		b.Run("tier="+tier.String(), func(b *testing.B) {
			var req float64
			for i := 0; i < b.N; i++ {
				res, err := (degrade.Ladder{}).Solve(context.Background(),
					degrade.Request{Net: n, Profile: prof, Start: tier, Floor: tier})
				if err != nil {
					b.Fatal(err)
				}
				req = res.Eval.ReqAtDriverInput
			}
			b.ReportMetric(req, "req-ps")
		})
	}
	b.Run("fallthrough=budget", func(b *testing.B) {
		p := prof
		p.Core.Budget = core.Budget{MaxSolutions: 3}
		for i := 0; i < b.N; i++ {
			res, err := (degrade.Ladder{}).Solve(context.Background(),
				degrade.Request{Net: n, Profile: p, Start: degrade.TierFull, Floor: degrade.TierVanGin})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Degraded {
				b.Fatalf("budget fall-through served tier %s undegraded", res.Tier)
			}
		}
	})
}

// BenchmarkCurveOps measures the DP's innermost data structure.
func BenchmarkCurveOps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sols := make([]curve.Solution, 256)
	for i := range sols {
		sols[i] = curve.Solution{
			Load: float64(rng.Intn(100)) / 100,
			Req:  float64(rng.Intn(100)) / 10,
			Area: float64(rng.Intn(100)) * 50,
		}
	}
	b.Run("Insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := &curve.Curve{}
			c.Insert(sols...)
		}
	})
}

// BenchmarkTradeoffExtraction exercises the two §III.1 problem variants on a
// shared final curve (experiment E5's machinery).
func BenchmarkTradeoffExtraction(b *testing.B) {
	prof := flows.ProfileFor(7)
	nt := net.Generate(net.DefaultGenSpec(7, 55), prof.Tech, prof.Lib.Driver)
	cands := geom.ReducedHanan(nt.Terminals(), prof.MaxCands)
	en := core.NewEngine(nt, cands, prof.Lib, prof.Tech, prof.Core)
	final, err := en.Construct(order.TSP(nt.Source, nt.SinkPoints()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := en.Extract(final, core.Goal{Mode: core.GoalMaxReq, AreaBudget: 20000}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := en.Extract(final, core.Goal{Mode: core.GoalMinArea, ReqFloor: 0}); err != nil {
			b.Fatal(err)
		}
	}
}
