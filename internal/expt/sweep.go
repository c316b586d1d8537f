package expt

import (
	"fmt"
	"io"
	"time"

	"merlin/internal/core"
	"merlin/internal/flows"
	"merlin/internal/geom"
	"merlin/internal/net"
)

// SweepPoint is one configuration's outcome in an ablation sweep.
type SweepPoint struct {
	Label   string
	Req     float64 // required time at the driver input (ns)
	Area    float64 // total buffer area (λ²)
	Loops   int
	Runtime time.Duration
}

// SweepSpec names a knob and the values to sweep.
type SweepSpec struct {
	// Knob is one of "alpha", "cands", "maxsols", "chis", "internal".
	Knob   string
	Values []int
	// Sinks and Seed fix the net under study.
	Sinks int
	Seed  int64
}

// RunSweep executes an ablation over one engine knob on one net, holding
// everything else at the net-size profile. The "chis" knob interprets 0 as
// bubbling off (χ0 only) and 1 as all four structures; "internal" sets
// MaxInternalChildren (1 = strict chain, 2 = relaxed Cα; larger values fail).
func RunSweep(spec SweepSpec) ([]SweepPoint, error) {
	prof := flows.ProfileFor(spec.Sinks)
	nt := net.Generate(net.DefaultGenSpec(spec.Sinks, spec.Seed), prof.Tech, prof.Lib.Driver)
	var out []SweepPoint
	for _, v := range spec.Values {
		opts := prof.Core
		maxCands := prof.MaxCands
		label := fmt.Sprintf("%s=%d", spec.Knob, v)
		switch spec.Knob {
		case "alpha":
			opts.Alpha = v
		case "cands":
			maxCands = v
		case "maxsols":
			opts.MaxSols = v
		case "chis":
			if v == 0 {
				opts.Chis = []core.Chi{core.Chi0}
				label = "bubbling=off"
			} else {
				opts.Chis = nil
				label = "bubbling=on"
			}
		case "internal":
			opts.MaxInternalChildren = v
		default:
			return nil, fmt.Errorf("expt: unknown sweep knob %q", spec.Knob)
		}
		cands := geom.ReducedHanan(nt.Terminals(), maxCands)
		res, err := core.Merlin(nt, cands, prof.Lib, prof.Tech, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", label, err)
		}
		out = append(out, SweepPoint{
			Label:   label,
			Req:     res.ReqAtDriverInput,
			Area:    res.Solution.Area,
			Loops:   res.Loops,
			Runtime: res.Runtime,
		})
	}
	return out, nil
}

// WriteSweep renders a sweep as an aligned text table.
func WriteSweep(w io.Writer, spec SweepSpec, pts []SweepPoint) {
	fmt.Fprintf(w, "ablation sweep: knob=%s net(n=%d, seed=%d)\n", spec.Knob, spec.Sinks, spec.Seed)
	fmt.Fprintf(w, "%-16s %10s %12s %6s %12s\n", "config", "req (ns)", "area (λ²)", "loops", "runtime")
	for _, p := range pts {
		fmt.Fprintf(w, "%-16s %10.4f %12.0f %6d %12v\n", p.Label, p.Req, p.Area, p.Loops, p.Runtime.Round(time.Millisecond))
	}
}
