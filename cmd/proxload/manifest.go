package main

// metricDef names one reported metric. The lists below are the benchmark's
// manifest: BENCHMARK.json at the repository root repeats them, and
// TestManifestMatchesBenchmarkJSON keeps the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, printed for every
// workload by an untraced run. Every one of them is non-zero on every
// workload; failures are reported as the result line's failed/attempted
// pair instead of a metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms/op", "lower"},
	{"oracle_calls_per_op", "calls/op", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, printed by a traced run. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"proxload.self_ms_per_op", "ms/op", "lower"},
	{"prox.self_ms_per_op", "ms/op", "lower"},
	{"proxclient.self_ms_per_op", "ms/op", "lower"},
	{"proxclient.round_trips_per_op", "trips/op", "lower"},
	{"proxclient.mirror_hit_frac", "frac", "higher"},
	{"transport.self_ms_per_op", "ms/op", "lower"},
	{"transport.bytes_per_op", "B/op", "lower"},
	{"cluster.router_self_ms_per_op", "ms/op", "lower"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.repl_records_per_s", "records/s", "higher"},
	{"cluster.repl_lag_records_max", "records", "lower"},
	{"cluster.repl_flush_s", "s", "lower"},
	{"service.self_ms_per_op", "ms/op", "lower"},
	{"service.requests_per_op", "req/op", "lower"},
	{"service.shed_frac", "frac", "lower"},
	{"core.self_ms_per_op", "ms/op", "lower"},
	{"core.comparisons_per_op", "cmp/op", "lower"},
	{"core.saved_frac", "frac", "higher"},
	{"core.cache_hit_frac", "frac", "higher"},
	{"core.bound_probes_per_op", "probes/op", "lower"},
	{"bounds.ms_per_op", "ms/op", "lower"},
	{"bounds.ns_per_query", "ns", "lower"},
	{"metric.busy_ms_per_op", "ms/op", "lower"},
	{"metric.us_per_call", "us", "lower"},
	{"cachestore.bytes_per_op", "B/op", "lower"},
	{"nsw.build_s", "s", "lower"},
	{"runtime.gc_cycles_per_kop", "gc/kop", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"proxload.trace_overhead_frac", "frac", "lower"},
}
