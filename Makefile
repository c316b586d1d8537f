# Tier-1 verify is: make build test perfbench lint race chaos fuzz invariants
# crash cluster-chaos partition-chaos failover-chaos (build + full test suite,
# the repository benchmark's smoke tests, static analysis — gofmt, go vet,
# then the project's own merlinlint rule suite — the race detector over the
# concurrent packages, the fault-injection chaos storm, short runs of the fuzz
# targets, the DP packages rebuilt and retested with the merlin_invariants
# assertion layer, the SIGKILL crash-recovery drill over the durable-jobs
# journal, the router kill/restart cluster drill, the gossip/replication
# partition drill over a 5-node fleet, and the job-failover drill where a
# SIGKILLed backend's acked jobs are claimed and finished by ring successors
# with fencing asserted from the journals).

GO ?= go
# How long each fuzz target runs under `make fuzz`; raise for deeper soaks.
FUZZTIME ?= 10s

.PHONY: all build test perfbench race vet gofmt lint invariants chaos fuzz crash cluster-chaos partition-chaos failover-chaos verify bench bench-tables

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -vet=all ./...

# The repository benchmark's own tests (perfbench/ is a separate module):
# every workload in smoke mode, traced and untraced, and BENCHMARK.json
# checked against perfbench's metric tables. An internal API change that
# breaks the benchmark's build fails here, not in the benchmark run. The
# target only reads perfbench/.
perfbench:
	$(GO) test -C perfbench ./...

# Race-detect the concurrent surface: the merlind service (worker pool,
# caches, brownout controller, graceful shutdown, 32-way concurrent e2e),
# the degradation ladder, the core engine's one-engine-per-goroutine
# contract, and Flows I-III run side by side with one solver or engine per
# goroutine (ten times over: ptree.Solver resets its reconstruction table on
# every solve, and core.Engine resets its table in every DP cell and replays
# cells into it to rebuild a tree). Full-repo -race is accurate too but
# slow; these packages are where concurrency actually lives. TestChaos* is
# skipped here because the chaos target runs the storms on their own, and
# TestClusterChaos / TestPartitionChaos / TestFailoverChaos /
# TestFencingSplitBrain because the cluster-chaos, partition-chaos and
# failover-chaos targets run those drills on their own.
race:
	$(GO) test -race -skip 'TestChaos|TestCrashRecovery|TestClusterChaos|TestPartitionChaos|TestFailoverChaos|TestFencingSplitBrain' ./internal/service/... ./internal/degrade/... ./internal/journal/... ./internal/trace/... ./internal/router/... ./internal/qos/... ./internal/gossip/... ./pkg/client/... ./cmd/merlind/... ./cmd/merlintop/...
	$(GO) test -race -run TestEnginePerGoroutine ./internal/core/
	$(GO) test -race -count=10 -run TestFlowsConcurrent ./internal/flows/

# The fault-injection storms: 240 concurrent good/bad/huge/degradable
# requests with panics and errors injected into the worker pool, the DP, and
# the ladder rungs (TestChaos), plus a sustained 5x-queue overload that must
# brown out into degraded 200s and recover (TestChaosOverload) — both under
# the race detector with healthz probed throughout. The -run prefix matches
# both. See internal/service/chaos_test.go.
chaos:
	$(GO) test -race -count=1 -run TestChaos ./internal/service/

# Short fuzz runs over the byte-ingestion surfaces: arbitrary JSON through
# net.Read/Validate, the canonical fingerprint's determinism/totality, and
# arbitrary bytes through the journal's segment decoder and replay (never
# panic, stop cleanly at the first invalid frame).
# `go test -fuzz` accepts one target per invocation, hence separate runs.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzNetRead -fuzztime $(FUZZTIME) ./internal/net/
	$(GO) test -run '^$$' -fuzz FuzzCanon -fuzztime $(FUZZTIME) ./internal/net/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/journal/

# The crash-recovery drill: a re-exec'd durable server is SIGKILLed with
# acknowledged jobs in flight, its journal tail torn and a stored result
# bit-flipped, then recovery must replay, re-run every acknowledged job
# exactly once, and quarantine (never serve) the corrupt result. Run under
# the race detector; see internal/service/crash_test.go.
crash:
	$(GO) test -race -count=1 -run 'TestCrashRecovery$$' ./internal/service/

# The cluster kill/restart drill: a router fronting three re-exec'd durable
# backends takes sustained multi-tenant load while one backend is SIGKILLed
# mid-storm and later restarted on the same address. The router's breaker
# must open then recover (observed via /v1/stats), every client must get a
# truthful status (200/202, coded 429, or coded 503 — never a blank failure),
# and every acknowledged job must reach done. Run under the race detector;
# see internal/router/cluster_chaos_test.go.
cluster-chaos:
	$(GO) test -race -count=1 -run 'TestClusterChaos$$' ./internal/router/

# The gossip/replication partition drill: two routers and three gossiping,
# replicating durable backends under multi-tenant load while one backend is
# partitioned (unreachable to everyone, journal intact) and another is
# SIGKILLed. Both routers' gossip views must converge on each failure within
# 2s, the fleet brownout must raise and recover on both (observed via
# /v1/stats), every response must stay truthful, and every acknowledged job
# must complete — jobs owned by the partitioned backend served from replicas.
# Run under the race detector; see internal/router/partition_chaos_test.go.
partition-chaos:
	$(GO) test -race -count=1 -run 'TestPartitionChaos$$' ./internal/router/

# The job-failover drill: three re-exec'd durable backends behind a router;
# one backend is SIGKILLed (never restarted) while holding acknowledged jobs.
# Every acked job must reach a truthful terminal state through the router via
# journaled lease takeover — and post-mortem journal inspection must show no
# two nodes acknowledged the same job at the same term. The companion
# split-brain drill SIGSTOPs an owner mid-job, lets a successor claim and
# finish it, then resumes the stale owner: its write must be fenced and the
# poll must keep serving the claimant's result. Run under the race detector;
# see internal/router/failover_chaos_test.go.
failover-chaos:
	$(GO) test -race -count=1 -run 'TestFailoverChaos$$|TestFencingSplitBrain$$' ./internal/router/

vet:
	$(GO) vet ./...

gofmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: these files are not gofmt-formatted:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Project-invariant static analysis: gofmt first (any file `gofmt -l`
# lists fails the target), go vet next (cheap, catches the universal
# mistakes), then merlinlint's twelve repo-specific rules — the
# seven syntactic ones (ctxonly, faultsite, errtaxonomy, journalonly,
# ladderonly, nopanic, tracespan) plus the typed cross-package ones
# (goguard, lockcheck, spanleak, hotpath-alloc, ctxflow). Non-zero
# exit on any finding; see DESIGN.md "Static analysis & runtime invariants".
# The merlinlint step carries a 30s wall-time budget: the whole-module
# type-check is shared and the rules run in parallel, and the budget keeps it
# that way — a slow lint gate stops being run.
lint: gofmt vet
	@start=$$(date +%s); \
	$(GO) run ./cmd/merlinlint . || exit $$?; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "merlinlint: clean in $${elapsed}s"; \
	if [ $$elapsed -gt 30 ]; then \
		echo "merlinlint: exceeded the 30s lint budget ($${elapsed}s)" >&2; exit 1; \
	fi

# Rebuild and retest the DP packages with the merlin_invariants assertion
# layer compiled in: frontier non-inferiority/sort order, Cα-tree shape and
# finite Elmore delays are checked at runtime and panic on violation. ptree,
# vangin, lttree and flows run the same curve kernel as core, so they run
# its assertions too.
invariants:
	$(GO) test -tags merlin_invariants ./internal/core/... ./internal/curve/... ./internal/tree/... ./internal/degrade/... ./internal/journal/... ./internal/ptree/... ./internal/vangin/... ./internal/lttree/... ./internal/flows/...

verify: build test perfbench lint race chaos fuzz invariants crash cluster-chaos partition-chaos failover-chaos

# The performance baseline: merlinbench writes BENCH_$(BENCH_N).json, where
# BENCH_N is the PR number the baseline belongs to. It records the
# environment (Go version, OS, CPUs); the exact allocs/op of core.construct
# and of ptree.solve, one 32-sink PTREE solve; the
# repository benchmark (perfbench/run.sh) on dp-cold, flows-baseline and
# serve-fleet over seeds 1-10, untraced then traced, as the median and
# quartiles of every metric perfbench prints; the timer-bound fleet sections
# (gossip convergence, replica warm-up, orphan takeover, checkpoint resume);
# Flow III on Table 1's net10 in a child process of its own, for its wall
# time and peak resident set (VmHWM); and lint_wall_ms, the wall time of a
# full merlinlint pass, so the lint budget's headroom is tracked alongside
# the runtime numbers. It takes seven to eight minutes on a 2-vCPU box. Committed baselines record the trajectory
# and its spread; a speed claim still rests on interleaved perfbench pairs.
bench:
	@if [ -z "$(BENCH_N)" ]; then \
		echo "usage: make bench BENCH_N=<PR number>  (writes BENCH_<PR number>.json)" >&2; exit 2; \
	fi
	$(GO) run ./cmd/merlinbench -out BENCH_$(BENCH_N).json
	@cat BENCH_$(BENCH_N).json

# The paper-evaluation benchmarks (E3-E8 and the DP's layers) stay on the
# stock tooling; cmd/table1 and cmd/table2 regenerate Tables 1 and 2.
bench-tables:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
