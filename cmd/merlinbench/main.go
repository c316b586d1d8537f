// Command merlinbench establishes the repository's performance trajectory
// and emits it as one machine-readable JSON document — `make bench` writes it
// to BENCH_<n>.json, where <n> is the PR number, so later "faster" claims
// diff two committed files instead of two memories.
//
// Usage:
//
//	merlinbench [-out BENCH_<n>.json]
//
// Run it from inside the repository: it finds the module root to run the
// repository benchmark and the lint pass over. What it records:
//
//   - core.construct — one full MERLIN construct loop on the reference net
//     (testing.Benchmark: ns/op, allocs/op). Its allocs/op is exact from run
//     to run, so it is the DP's allocation count a change diffs.
//   - perfbench — the repository benchmark (bash perfbench/run.sh) on each
//     of its three workloads, dp-cold, flows-baseline and serve-fleet, over
//     the fixed seeds 1–10 for 30 s each, untraced and then traced: the
//     nearest-rank median and quartiles, with the unit, of every end-to-end
//     metric (untraced runs) and per-layer metric (traced runs) perfbench
//     prints. perfbench checks every answer; a run that reports a wrong
//     answer fails the whole document. Tracing's price is the per-layer
//     trace.overhead_pct on each workload (BENCH_25.json: dp-cold −1.4%,
//     quartiles −2.2 to +2.7; serve-fleet +3.9%, quartiles −6.3 to +10.5).
//   - gossip — a 4-node star-seeded gossip mesh over real HTTP: how long the
//     views take to converge on full mutual health, and how long the
//     survivors take to declare a silently killed node dead (the
//     suspicion-before-eviction path end to end).
//   - replica_warm — peer-warming a result from a replica over the wire
//     (HTTP fetch + MRS1 checksum verify) vs recomputing it from scratch:
//     the latency gap that makes replicated result stores worth running.
//   - takeover — a two-backend fleet with one backend SIGKILLed while
//     holding acknowledged jobs: wall time from the kill to the survivor
//     serving each orphan's terminal result (death detection + journaled
//     claim + recompute, end to end).
//   - checkpoint_resume — crash recovery over a WAL with only an accept
//     record vs one that also checkpointed at a cheap ladder rung: what one
//     checkpoint saves a successor over recomputing from the full tier.
//   - lint_wall_ms — the wall time of one full merlinlint pass (whole-module
//     type-check plus every rule), so the `make lint` 30s budget's headroom
//     is tracked next to the runtime numbers.
//
// Every timing here moves from run to run with the machine; the perfbench
// block gives each one's spread over the seeds. A speed claim still rests on
// interleaved perfbench pairs of parent and change.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"merlin/internal/core"
	"merlin/internal/flows"
	"merlin/internal/geom"
	"merlin/internal/gossip"
	"merlin/internal/journal"
	"merlin/internal/lint"
	"merlin/internal/net"
	"merlin/internal/service"
)

// benchResult is the wire form of one testing.BenchmarkResult.
type benchResult struct {
	Iterations  int   `json:"iterations"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// gossipBenchResult times the anti-entropy layer over real HTTP: a
// star-seeded mesh converging on full mutual health, then the survivors
// declaring a silently killed node dead (suspect → dead, disseminated).
type gossipBenchResult struct {
	Nodes          int     `json:"nodes"`
	IntervalMS     int64   `json:"interval_ms"`
	MeshConvergeMS float64 `json:"mesh_converge_ms"`
	DeathDetectMS  float64 `json:"death_detect_ms"`
}

// replicaBenchResult compares serving a lost result from a replica (HTTP
// fetch + MRS1 verify) against recomputing it: the availability win of the
// replicated store in milliseconds.
type replicaBenchResult struct {
	Samples        int     `json:"samples"`
	PeerWarmP50MS  float64 `json:"peer_warm_p50_ms"`
	RecomputeP50MS float64 `json:"recompute_p50_ms"`
}

type output struct {
	Schema      string                 `json:"schema"`
	GoVersion   string                 `json:"go_version"`
	GOOS        string                 `json:"goos"`
	GOARCH      string                 `json:"goarch"`
	CPUs        int                    `json:"cpus"`
	Benchmarks  map[string]benchResult `json:"benchmarks"`
	Perfbench   perfbenchSummary       `json:"perfbench"`
	Gossip      gossipBenchResult      `json:"gossip"`
	ReplicaWarm replicaBenchResult     `json:"replica_warm"`
	Takeover    takeoverBenchResult    `json:"takeover"`
	CkptResume  ckptResumeResult       `json:"checkpoint_resume"`
	LintWallMS  int64                  `json:"lint_wall_ms"`
}

func main() {
	if os.Getenv("MERLINBENCH_CHILD") == "backend" {
		runChildBackend() // re-exec'd fleet member for the takeover benchmark
		return
	}
	out := flag.String("out", "", "write JSON here (empty = stdout)")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "merlinbench:", err)
		os.Exit(1)
	}
}

func wire(r testing.BenchmarkResult) benchResult {
	return benchResult{
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func benchNet(sinks int, seed int64) *net.Net {
	prof := flows.ProfileFor(sinks)
	return net.Generate(net.DefaultGenSpec(sinks, seed), prof.Tech, prof.Lib.Driver)
}

func run(outPath string) error {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return err
	}
	doc := output{
		Schema:     "merlin-bench/2",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Benchmarks: map[string]benchResult{},
	}

	// core.construct: the DP's cost floor — one MERLIN run, single loop, on
	// the reference 6-sink net.
	prof := flows.ProfileFor(6)
	prof.Core.MaxLoops = 1
	coreNet := benchNet(6, 1)
	cands := geom.ReducedHanan(coreNet.Terminals(), prof.MaxCands)
	doc.Benchmarks["core.construct"] = wire(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MerlinCtx(context.Background(), coreNet, cands, prof.Lib, prof.Tech, prof.Core, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))

	if doc.Gossip, err = runGossipConvergence(); err != nil {
		return err
	}
	if doc.ReplicaWarm, err = runReplicaWarm(); err != nil {
		return err
	}
	if doc.Takeover, err = runTakeoverLatency(); err != nil {
		return err
	}
	if doc.CkptResume, err = runCheckpointResume(); err != nil {
		return err
	}
	if doc.LintWallMS, err = runLintPass(root); err != nil {
		return err
	}
	// Last, because it is the long one: the sections above fail in seconds.
	if doc.Perfbench, err = runPerfbench(root); err != nil {
		return err
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(outPath, b, 0o644)
}

// runLintPass times one full merlinlint run over the module at root — the
// same whole-module type-check and rule suite `make lint` pays — and insists
// the tree is clean while it's at it.
func runLintPass(root string) (int64, error) {
	start := time.Now()
	diags, err := lint.LintRepo(root)
	if err != nil {
		return 0, err
	}
	if len(diags) > 0 {
		return 0, fmt.Errorf("repo not lint-clean (%d findings); fix before baselining", len(diags))
	}
	return time.Since(start).Milliseconds(), nil
}

// runGossipConvergence boots a 4-node gossip mesh over real HTTP (25ms
// ticks, star-seeded off the first node so convergence requires actual
// dissemination, not just seed exchange), times full mutual-health
// convergence, then closes one node's server and stops its loop — silence —
// and times how long every survivor takes to walk it through suspicion to
// Dead. Both numbers are wall-clock as a fleet operator would see them.
func runGossipConvergence() (gossipBenchResult, error) {
	const nodes = 4
	interval := 25 * time.Millisecond
	type member struct {
		n   *gossip.Node
		srv *httptest.Server
	}
	ms := make([]*member, 0, nodes)
	defer func() {
		for _, m := range ms {
			m.n.Stop()
			m.srv.Close()
		}
	}()
	var first string
	for i := 0; i < nodes; i++ {
		mux := http.NewServeMux()
		srv := httptest.NewServer(mux)
		var peers []string
		if first != "" {
			peers = []string{first}
		}
		n, err := gossip.New(gossip.Config{
			Self: srv.URL, Role: gossip.RoleBackend, Peers: peers,
			Interval:  interval,
			Transport: gossip.HTTPTransport(&http.Client{Timeout: time.Second}),
		})
		if err != nil {
			srv.Close()
			return gossipBenchResult{}, err
		}
		mux.HandleFunc("POST "+gossip.GossipPath, gossip.Handler(n))
		n.SetLocal(true, "", 0.5, 0, uint64(i))
		if first == "" {
			first = srv.URL
		}
		ms = append(ms, &member{n: n, srv: srv})
	}

	res := gossipBenchResult{Nodes: nodes, IntervalMS: interval.Milliseconds()}
	for _, m := range ms {
		m.n.Start()
	}
	wait := func(what string, pred func() bool) (float64, error) {
		deadline := time.Now().Add(15 * time.Second)
		t0 := time.Now()
		for !pred() {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("gossip bench: %s never happened", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return float64(time.Since(t0).Microseconds()) / 1000, nil
	}
	mesh, err := wait("mesh convergence", func() bool {
		for i, m := range ms {
			for j, o := range ms {
				if i == j {
					continue
				}
				ev, ok := m.n.Evidence(o.srv.URL)
				if !ok || ev.Digest.State != gossip.Alive {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return res, err
	}
	res.MeshConvergeMS = mesh

	victim := ms[0]
	victim.srv.Close()
	victim.n.Stop()
	death, err := wait("death detection", func() bool {
		for _, m := range ms[1:] {
			ev, ok := m.n.Evidence(victim.srv.URL)
			if !ok || ev.Digest.State != gossip.Dead {
				return false
			}
		}
		return true
	})
	if err != nil {
		return res, err
	}
	res.DeathDetectMS = death
	return res, nil
}

// runReplicaWarm prices the availability win of the replicated result
// store: the same finished result is (a) peer-warmed from a replica over
// real HTTP — the push/fetch wire format, the MRS1 entry checksum verify —
// and (b) recomputed from scratch through the pool. Both sides report p50
// over the sample count; the gap is why a backend asks the ring before it
// re-runs the DP.
func runReplicaWarm() (replicaBenchResult, error) {
	const samples = 24
	dir, err := os.MkdirTemp("", "merlinbench-replica")
	if err != nil {
		return replicaBenchResult{}, err
	}
	defer os.RemoveAll(dir)
	peer, err := service.NewDurable(service.Config{Workers: 1, JournalDir: dir})
	if err != nil {
		return replicaBenchResult{}, err
	}
	defer peer.Shutdown(context.Background())
	srv := httptest.NewServer(peer.Handler())
	defer srv.Close()

	local := service.New(service.Config{Workers: 2})
	defer local.Shutdown(context.Background())

	n := benchNet(6, 4000)
	resp, err := local.Route(context.Background(), &service.RouteRequest{Net: n, MaxLoops: 1})
	if err != nil {
		return replicaBenchResult{}, err
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return replicaBenchResult{}, err
	}

	repl, err := journal.NewReplicator(journal.ReplicatorConfig{
		Self:   "bench://self",
		Ring:   func(string) []string { return []string{"bench://self", srv.URL} },
		Client: &http.Client{Timeout: 5 * time.Second},
	})
	if err != nil {
		return replicaBenchResult{}, err
	}
	repl.Start()
	defer repl.Stop()
	repl.Enqueue("bench|full", payload, "", "")
	// Wait for the async push to land (the first successful fetch doubles as
	// connection warm-up).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, err := repl.Fetch(context.Background(), "bench|full"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return replicaBenchResult{}, fmt.Errorf("replica bench: push never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	warm := make([]float64, samples)
	for i := range warm {
		start := time.Now()
		if _, _, err := repl.Fetch(context.Background(), "bench|full"); err != nil {
			return replicaBenchResult{}, err
		}
		warm[i] = float64(time.Since(start).Microseconds()) / 1000
	}
	// Recompute must be cold: a net this process has never solved, so no
	// result cache and no warm per-worker engine state flatters the DP.
	recomp := make([]float64, samples)
	for i := range recomp {
		cold := benchNet(6, int64(5000+i))
		start := time.Now()
		if _, err := local.Route(context.Background(), &service.RouteRequest{Net: cold, MaxLoops: 1, NoCache: true}); err != nil {
			return replicaBenchResult{}, err
		}
		recomp[i] = float64(time.Since(start).Microseconds()) / 1000
	}
	sort.Float64s(warm)
	sort.Float64s(recomp)
	return replicaBenchResult{
		Samples:        samples,
		PeerWarmP50MS:  warm[len(warm)/2],
		RecomputeP50MS: recomp[len(recomp)/2],
	}, nil
}
