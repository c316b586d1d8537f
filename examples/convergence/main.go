// Convergence: experiment E4 — MERLIN's outer local search "converges very
// quickly for most practical examples" (§I; the Loops column of Table 1 runs
// 1–12). This example runs MERLIN on a batch of random nets and prints the
// loop-count histogram plus the improvement each extra loop bought.
//
//	go run ./examples/convergence [-nets 30] [-sinks 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"merlin/internal/core"
	"merlin/internal/flows"
	"merlin/internal/geom"
	"merlin/internal/net"
)

func main() {
	nets := flag.Int("nets", 10, "number of random nets")
	sinks := flag.Int("sinks", 7, "sinks per net")
	flag.Parse()

	prof := flows.ProfileFor(*sinks)
	hist := map[int]int{}
	var firstReq, finalReq float64
	maxLoops := 0

	for i := 0; i < *nets; i++ {
		nt := net.Generate(net.DefaultGenSpec(*sinks, int64(1000+i)), prof.Tech, prof.Lib.Driver)
		cands := geom.ReducedHanan(nt.Terminals(), prof.MaxCands)

		// One loop, a single BUBBLE_CONSTRUCT, for the "loop 1" quality...
		once := prof.Core
		once.MaxLoops = 1
		if first, err := core.Merlin(nt, cands, prof.Lib, prof.Tech, once, nil); err == nil {
			firstReq += first.Solution.Req
		}

		// ...and the full MERLIN search.
		res, err := core.Merlin(nt, cands, prof.Lib, prof.Tech, prof.Core, nil)
		if err != nil {
			log.Fatal(err)
		}
		hist[res.Loops]++
		finalReq += res.Solution.Req
		if res.Loops > maxLoops {
			maxLoops = res.Loops
		}
	}

	fmt.Printf("MERLIN loop counts over %d random %d-sink nets:\n", *nets, *sinks)
	for l := 1; l <= maxLoops; l++ {
		fmt.Printf("  %2d loop(s): %3d  %s\n", l, hist[l], strings.Repeat("#", hist[l]))
	}
	fmt.Printf("\nmean required time after loop 1: %.4f ns\n", firstReq/float64(*nets))
	fmt.Printf("mean required time at fixpoint:  %.4f ns\n", finalReq/float64(*nets))
	fmt.Println("\n(paper Table 1: loops ranged 1–12, most nets ≤ 5)")
}
