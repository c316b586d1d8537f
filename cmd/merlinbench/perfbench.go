// The repository benchmark's section: perfbench's three workloads over a
// fixed seed set, summarized per metric by its median and quartiles.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// perfbenchWorkloads are the workloads BENCHMARK.json declares; every one
// runs on seeds 1..perfbenchSeeds for perfbenchSeconds, the benchmark's own
// run length.
var perfbenchWorkloads = []string{"dp-cold", "flows-baseline", "serve-fleet"}

const (
	perfbenchSeeds   = 10
	perfbenchSeconds = 30
)

// perfReport is the JSON result line perfbench prints last on standard
// output (perfbench/main.go report).
type perfReport struct {
	Correct bool                  `json:"correct"`
	Metrics map[string]perfMetric `json:"metrics"`
}

type perfMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spread is one metric over the seeds: its nearest-rank median and
// quartiles, and its unit.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// workloadSummary holds one workload's end-to-end metrics, from its
// untraced runs, and its per-layer metrics, from its traced runs.
type workloadSummary struct {
	EndToEnd map[string]spread `json:"end_to_end"`
	PerLayer map[string]spread `json:"per_layer"`
}

type perfbenchSummary struct {
	Seeds     []int64                    `json:"seeds"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// runPerfbench runs every workload on every seed, untraced and then traced,
// from the module root, and summarizes each workload's metrics over the
// seeds. It fails on the first run that does not report every answer
// correct.
func runPerfbench(root string) (perfbenchSummary, error) {
	sum := perfbenchSummary{Seconds: perfbenchSeconds, Workloads: map[string]workloadSummary{}}
	for seed := int64(1); seed <= perfbenchSeeds; seed++ {
		sum.Seeds = append(sum.Seeds, seed)
	}
	for _, wl := range perfbenchWorkloads {
		var untraced, traced []perfReport
		for _, seed := range sum.Seeds {
			rep, err := runPerfbenchOnce(root, wl, seed, 0)
			if err != nil {
				return sum, err
			}
			untraced = append(untraced, rep)
			if rep, err = runPerfbenchOnce(root, wl, seed, 1); err != nil {
				return sum, err
			}
			traced = append(traced, rep)
		}
		sum.Workloads[wl] = workloadSummary{EndToEnd: summarize(untraced), PerLayer: summarize(traced)}
	}
	return sum, nil
}

// runPerfbenchOnce runs one workload on one seed through perfbench/run.sh,
// which builds the benchmark and the served binaries from this checkout.
// perfbench's progress and build output pass through to standard error.
//
// run.sh runs as a forked child of a bash script (the `; exit $?` keeps
// bash from exec'ing it in place), not as this process's own child:
// perfbench reads peak_rss_mb with getrusage, and Linux carries the peak
// RSS of a process's old memory over an exec. A child that os/exec starts
// shares this process's memory until it execs, so it would report this
// process's peak (128 MB, against dp-cold's own ~30 MB) on every run.
func runPerfbenchOnce(root, workload string, seed int64, trace int) (perfReport, error) {
	what := fmt.Sprintf("perfbench %s seed %d trace %d", workload, seed, trace)
	fmt.Fprintln(os.Stderr, "merlinbench:", what)
	cmd := exec.Command("bash", "-c", `bash perfbench/run.sh "$@"; exit $?`, "bash",
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(perfbenchSeconds), "--trace", strconv.Itoa(trace))
	cmd.Dir = root
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	rep, err := parseReport(stdout.Bytes())
	if err == nil {
		err = runErr
	}
	if err != nil {
		return rep, fmt.Errorf("%s: %w", what, err)
	}
	return rep, nil
}

// parseReport reads perfbench's result from the last line of its standard
// output, and fails unless the report says every answer was correct.
func parseReport(stdout []byte) (perfReport, error) {
	var rep perfReport
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("no JSON result line: %w", err)
	}
	if !rep.Correct {
		return rep, errors.New(`result reports "correct": false`)
	}
	return rep, nil
}

// summarize gives every metric the reports carry its median and quartiles
// over the reports.
func summarize(reps []perfReport) map[string]spread {
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range reps {
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := make(map[string]spread, len(values))
	for name, xs := range values {
		sort.Float64s(xs)
		out[name] = spread{
			Median: nearestRank(xs, 0.5),
			Q1:     nearestRank(xs, 0.25),
			Q3:     nearestRank(xs, 0.75),
			Unit:   units[name],
		}
	}
	return out
}

// nearestRank is perfbench's quantile rule: the ⌈q·n⌉-th smallest of the
// sorted values.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
