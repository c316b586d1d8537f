package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// The benchmark's box is a shared 2-vCPU VM whose speed for allocation- and
// map-heavy Go code drifts by up to 40% within minutes, with the same work
// and the same seed. A reference kernel of that kind, run between the
// in-process workloads' steps, tracked a 38% swing of the DP's speed to
// within a few percent in trials, so those workloads scale their end-to-end
// timings to a nominal machine by it: a reported time is the measured time
// divided by the run's slowdown, a reported rate the measured rate
// multiplied by it. The raw values go to standard error. serve-fleet is not
// scaled: its fleet keeps both CPUs busy, and neither a kernel run while the
// fleet is idle nor one run alongside it tracked it.

// refNominalMS is the reference kernel's time, right after a collection, on
// a calm core of the 2.1 GHz Xeon this benchmark was sized on.
const refNominalMS = 35.0

// calibrator collects reference-kernel timings over a run.
type calibrator struct{ samples []float64 }

// sample times n runs of the reference kernel.
func (c *calibrator) sample(n int) {
	for i := 0; i < n; i++ {
		start := time.Now()
		refKernel()
		c.samples = append(c.samples, ms(time.Since(start)))
	}
}

// slowdown is the run's mean reference time over the nominal one. The mean,
// not the median: the slow samples are the bursts of stolen time that slow
// the workload too.
func (c *calibrator) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return mean(c.samples) / refNominalMS
}

// scale rescales the run's timings to the nominal machine and logs the raw
// ones. rates are per-second metrics; everything else in times is a
// duration.
func (c *calibrator) scale(v map[string]float64, rates, times []string) {
	s := c.slowdown()
	fmt.Fprintf(os.Stderr, "perfbench: machine slowdown %.3f (mean of %d reference runs)\n", s, len(c.samples))
	for _, k := range rates {
		fmt.Fprintf(os.Stderr, "perfbench: raw %s = %g\n", k, v[k])
		v[k] *= s
	}
	for _, k := range times {
		fmt.Fprintf(os.Stderr, "perfbench: raw %s = %g\n", k, v[k])
		v[k] /= s
	}
}

// e2eTimes are the end-to-end durations every workload scales.
var e2eTimes = []string{"setup_s", "route_hit_ms_p50", "route_hit_ms_p99", "route_cold_ms_p50", "route_cold_ms_p90"}

var refSink int

// refKernel is a fixed amount of the work the DP is made of: string-keyed
// map inserts, slice appends and a sort. It is large enough (~35 ms) that
// the collections it triggers itself are the same every time.
func refKernel() {
	m := make(map[string][]float64)
	for i := 0; i < 60000; i++ {
		k := "k" + strconv.Itoa(i%5000) + "|" + strconv.Itoa(i%7)
		m[k] = append(m[k], float64(i)*1.5, float64(i%13))
	}
	all := make([]float64, 0, 120000)
	for _, v := range m {
		all = append(all, v...)
	}
	sort.Float64s(all)
	refSink += len(all)
}
