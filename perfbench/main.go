// Command perfbench is the repository benchmark. It runs one seeded workload,
// checks every answer the program gives, and prints one JSON result line:
//
//	perfbench --workload dp-cold|flows-baseline|serve-fleet --seed N
//	          --seconds S --trace 0|1 [--smoke] [--bin DIR] [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics and writes the
// span artefact under --out. --smoke shrinks every workload to a few nets.
// run.sh builds this program and the served binaries, then runs it; see
// README.md for the workloads and the metric → layer → workload map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"syscall"
	"time"

	"merlin/internal/flows"
	"merlin/internal/net"
)

// heldOutSeed is never used while a change is being written; a claim made
// on other seeds is confirmed on it (guide §6.3).
const heldOutSeed = 9001

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	smoke    bool
	binDir   string // merlind and merlinrouter binaries (serve-fleet)
	outDir   string // span artefacts, journals and logs
}

// result is what a workload hands back: how many answers it asked for, how
// many were missing or wrong, and its metric values by name.
type result struct {
	attempted int
	failed    int
	values    map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// fail records one missing or wrong answer.
func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: wrong answer: "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(config) (*result, error){
	"dp-cold":        runDPCold,
	"flows-baseline": runFlowsBaseline,
	"serve-fleet":    runServeFleet,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "dp-cold, flows-baseline or serve-fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "nominal measured seconds; sizes the request script")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink the workload to a few nets")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/perfbench/bin", "directory holding merlind and merlinrouter")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench/out", "directory for span artefacts, journals and logs")
	flag.Parse()
	cfg.traced = traceFlag == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want dp-cold, flows-baseline or serve-fleet)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %d trace %v smoke %v (held-out seed %d)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.smoke, heldOutSeed)
	res, err := wl(cfg)
	if err != nil {
		return nil, err
	}
	res.values["error_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	rep := &report{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	table := endToEnd
	if cfg.traced {
		table = perLayer
	}
	for _, m := range table {
		v, ok := res.values[m.Name]
		if !ok && !cfg.traced {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured %s = %v", cfg.workload, m.Name, v)
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return rep, nil
}

// genNets draws count nets of n sinks from the Table 1 generator, each with
// its own seed taken from rng, and shifts every sink required time by
// reqShift ns.
func genNets(rng *rand.Rand, n, count int, reqShift float64) []*net.Net {
	p := flows.ProfileFor(n)
	out := make([]*net.Net, count)
	for i := range out {
		spec := net.DefaultGenSpec(n, rng.Int63())
		spec.ReqBase += reqShift
		out[i] = net.Generate(spec, p.Tech, p.Lib.Driver)
	}
	return out
}

// medianSetup runs setup reps times and returns the last set-up's value and
// the median set-up time in seconds. Each earlier value is released with
// discard before the next set-up starts.
func medianSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var v T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		got, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			discard(got)
		} else {
			v = got
		}
	}
	return v, quantile(times, 0.5), nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is this process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// sizeMetric names a per-size metric, e.g. core.solve_ms.n6.
func sizeMetric(prefix string, n int) string { return fmt.Sprintf("%s.n%d", prefix, n) }
