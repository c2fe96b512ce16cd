package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit, in BENCHMARK.json order. A workload reports 0 for a layer it
// does not load (the cluster layer on solve-tabu, for example).
var perLayer = []struct{ name, unit string }{
	{"gen.generate_ms", "ms"},
	{"core.explore_ms_p50", "ms"},
	{"core.driver_ms_p50", "ms"},
	{"core.us_per_pass", "us"},
	{"core.passes_per_solve", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.iterations_per_solve", "count"},
	{"core.scratch_allocs_per_solve", "count"},
	{"core.sweeps_per_solve", "count"},
	{"core.moves_per_sweep", "count"},
	{"core.phase_ms.greedy", "ms"},
	{"core.phase_ms.tabu", "ms"},
	{"core.phase_ms.sa", "ms"},
	{"core.phase_ms.bus", "ms"},
	{"sched.evaluate_us", "us"},
	{"sched.evaluate_allocs", "count"},
	{"sysio.read_problem_us", "us"},
	{"sysio.write_schedule_us", "us"},
	{"sysio.result_kb", "KB"},
	{"service.fingerprint_us", "us"},
	{"service.handler_ms.solve", "ms"},
	{"service.handler_ms.cancel", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.solve_ms_p50", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"service.stream_first_event_ms_p50", "ms"},
	{"cluster.admit_ms_p50", "ms"},
	{"cluster.journal_kb_per_job", "KB"},
	{"cluster.overhead_ms_p50", "ms"},
	{"cluster.node_polls_per_job", "count"},
	{"cluster.node_requests_per_job", "count"},
	{"cluster.checkpoint_pushes_per_job", "count"},
	{"cluster.dispatches_per_job", "count"},
	{"cluster.redispatches", "count"},
	{"cluster.steals", "count"},
	{"cluster.coalesced", "count"},
	{"cluster.node_cache_hits", "count"},
	{"cluster.handler_ms.cancel", "ms"},
	{"client.job_ms_p90", "ms"},
	{"client.job_ms_p99", "ms"},
	{"client.hit_ms_p50", "ms"},
	{"client.cancel_ms_p50", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// zeroLayers sets every per-layer metric to 0, so a traced run reports
// the full set whichever layers its workload loads.
func zeroLayers(m metrics) {
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
}
