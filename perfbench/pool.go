package main

import (
	"math/rand"
	"sort"

	"merlin/internal/flows"
	"merlin/internal/net"
)

// The 6-sink nets of dp-cold and serve-fleet come from a characterised pool.
// A net needs 1–5 BUBBLE_CONSTRUCT passes to reach its order fixpoint and
// its buffer area spans an order of magnitude, so a plain random draw of a
// few dozen nets moves nets_per_s, the tail latencies and buffer_area_mean
// by 20–30% from seed to seed. Instead a run sorts the pool by (loop class,
// buffer area), cuts it into as many equal slices as it needs nets, and
// draws one net from each slice with the seed. Every seed then gets the same
// mix of easy and hard, small and large nets, and a different net in each
// slice.
//
// The pool is the Table 1 generator (net.DefaultGenSpec(6, seed)) at the
// seeds below, each solved once with flows.ProfileFor(6) to its fixpoint:
// {seed, loops, buffer area in λ²}. The labels only shape the sampling; the
// benchmark measures and checks every answer afresh.
type poolNet struct {
	seed  int64
	loops int
	area  float64
}

// poolSlices sorts the pool by (loop class 1, 2, 3+; buffer area) and cuts
// it into count equal slices.
func poolSlices(count int) [][]poolNet {
	sorted := append([]poolNet(nil), n6Pool...)
	sort.Slice(sorted, func(i, j int) bool {
		ci, cj := min(sorted[i].loops, 3), min(sorted[j].loops, 3)
		if ci != cj {
			return ci < cj
		}
		return sorted[i].area < sorted[j].area
	})
	out := make([][]poolNet, count)
	for k := range out {
		out[k] = sorted[k*len(sorted)/count : (k+1)*len(sorted)/count]
	}
	return out
}

func n6Net(seed int64) *net.Net {
	p := flows.ProfileFor(6)
	return net.Generate(net.DefaultGenSpec(6, seed), p.Tech, p.Lib.Driver)
}

// drawN6 draws count 6-sink nets from the pool, one per slice, in a seeded
// order.
func drawN6(rng *rand.Rand, count int) []*net.Net {
	out := make([]*net.Net, 0, count)
	for _, s := range poolSlices(count) {
		out = append(out, n6Net(s[rng.Intn(len(s))].seed))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// drawN6Homed draws perClient nets for each of clients clients, one per
// slice each, where client c's nets are homed on backend c (home gives a
// net's backend index) whenever the slice has one; each list is in a seeded
// order.
func drawN6Homed(rng *rand.Rand, perClient, clients int, home func(*net.Net) int) [][]*net.Net {
	out := make([][]*net.Net, clients)
	for _, s := range poolSlices(perClient) {
		used := map[int64]bool{}
		for c := range out {
			var own, other []poolNet
			for _, pn := range s {
				switch {
				case used[pn.seed]:
				case home(n6Net(pn.seed)) == c:
					own = append(own, pn)
				default:
					other = append(other, pn)
				}
			}
			if len(own) == 0 {
				own = other
			}
			pick := own[rng.Intn(len(own))]
			used[pick.seed] = true
			out[c] = append(out[c], n6Net(pick.seed))
		}
	}
	for _, nets := range out {
		rng.Shuffle(len(nets), func(i, j int) { nets[i], nets[j] = nets[j], nets[i] })
	}
	return out
}
