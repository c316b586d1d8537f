package main

// metric is one named benchmark metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names, units,
// directions and bounds (TestBenchmarkJSONMatchesTables keeps them in step).
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them from its untraced run; README.md says what each population is
// on the in-process workloads.
var endToEnd = []metric{
	{"nets_per_s", "nets/s", "higher", 0.2},
	{"req_ns_mean", "ns", "higher", 0.1},
	{"buffer_area_mean", "lambda2", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
	{"route_hit_ms_p50", "ms", "lower", 0.25},
	{"route_hit_ms_p99", "ms", "lower", 0.25},
	{"route_cold_ms_p50", "ms", "lower", 0.2},
	{"route_cold_ms_p90", "ms", "lower", 0.25},
}

// perLayer comes from the traced run, one module per name prefix. A metric
// whose layer a workload does not exercise reports 0 on that workload.
var perLayer = []metric{
	{"core.solve_ms.n6", "ms", "lower", 0},
	{"core.solve_ms.n8", "ms", "lower", 0},
	{"core.solve_ms.n10", "ms", "lower", 0},
	{"core.solve_ms.n12", "ms", "lower", 0},
	{"core.construct_ms.n6", "ms", "lower", 0},
	{"core.construct_ms.n8", "ms", "lower", 0},
	{"core.construct_ms.n10", "ms", "lower", 0},
	{"core.construct_ms.n12", "ms", "lower", 0},
	{"core.extract_ms", "ms", "lower", 0},
	{"core.allocs_per_solve", "count", "lower", 0},
	{"core.bytes_per_solve", "B", "lower", 0},
	{"core.loops_per_net", "count", "lower", 0},
	{"core.frontier_size", "count", "higher", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"flows.flow1_ms.n16", "ms", "lower", 0},
	{"flows.flow1_ms.n24", "ms", "lower", 0},
	{"flows.flow1_ms.n32", "ms", "lower", 0},
	{"flows.flow2_ms.n16", "ms", "lower", 0},
	{"flows.flow2_ms.n24", "ms", "lower", 0},
	{"flows.flow2_ms.n32", "ms", "lower", 0},
	{"ptree.solve_ms", "ms", "lower", 0},
	{"vangin.insert_ms", "ms", "lower", 0},
	{"flows.allocs_per_flow1", "count", "lower", 0},
	{"flows.allocs_per_flow2", "count", "lower", 0},
	{"service.queue_wait_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p90", "ms", "lower", 0},
	{"service.rung_full_ms_p50", "ms", "lower", 0},
	{"service.cache_hit_ratio", "ratio", "higher", 0},
	{"service.engine_cache_hit_ratio", "ratio", "higher", 0},
	{"service.whatif_ms_p50", "ms", "lower", 0},
	{"journal.persist_ms_p50", "ms", "lower", 0},
	{"journal.accept_ms_p50", "ms", "lower", 0},
	{"journal.job_done_ms_p50", "ms", "lower", 0},
	{"journal.replica_push_failures", "count", "lower", 0},
	{"router.hop_ms_p50", "ms", "lower", 0},
	{"router.hop_ms_p99", "ms", "lower", 0},
	{"router.hedges_launched", "count", "lower", 0},
	{"router.hedge_win_ratio", "ratio", "higher", 0},
	{"router.qos_rejected", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"error_ratio", "ratio", "lower", 0},
	{"degraded_ratio", "ratio", "lower", 0},
}
