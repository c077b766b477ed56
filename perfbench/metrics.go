package main

// The metric registry: every metric the benchmark prints, with its unit
// and direction. BENCHMARK.json at the repository root lists the same
// names (TestBenchmarkJSONMatchesRegistry keeps the two in step). Each
// per-layer metric also records which end-to-end metric it should move,
// and on which workload — the prediction a change to that layer is
// judged against.

type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload the layer metric
	// should move (per-layer metrics only).
	moves string
}

// endToEnd metrics are measured with tracing off and are what a user of
// the service sees.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "read_p50_ms", unit: "ms", better: "lower"},
	{name: "read_p99_ms", unit: "ms", better: "lower"},
	{name: "read_qps", unit: "1/s", better: "higher"},
	{name: "success_frac", unit: "frac", better: "higher"},
	{name: "stream_p50_ms", unit: "ms", better: "lower"},
	{name: "stream_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "write_p99_ms", unit: "ms", better: "lower"},
	{name: "space_amp", unit: "ratio", better: "lower"},
	{name: "mem_peak_mb", unit: "MiB", better: "lower"},
}

// perLayer metrics come from the traced run: spans the benchmark records
// around its calls into each layer's public functions, and StatsSnapshot
// counter deltas.
var perLayer = []metricDef{
	{"serve.handler_p50_ms", "ms", "lower", "read_p50_ms on window_scan"},
	{"serve.transport_p50_ms", "ms", "lower", "read_p50_ms on window_scan"},
	{"serve.self_p50_ms", "ms", "lower", "read_p50_ms on window_scan"},
	{"serve.admit_wait_us", "us", "lower", "read_p50_ms on window_scan"},
	{"serve.encode_ms", "ms", "lower", "stream_rows_per_s on window_scan"},
	{"core.lease_session_us", "us", "lower", "read_p50_ms on window_scan"},
	{"mem.session_reuse_frac", "frac", "higher", "read_p50_ms on window_scan"},
	{"tpch.q1_ms", "ms", "lower", "read_p50_ms, read_qps on dashboard"},
	{"tpch.q3_ms", "ms", "lower", "read_p50_ms, read_qps on dashboard"},
	{"tpch.q6_ms", "ms", "lower", "read_p50_ms, read_qps on dashboard"},
	{"tpch.q10_ms", "ms", "lower", "read_p50_ms, read_qps on dashboard"},
	{"tpch.q6window_ms", "ms", "lower", "read_p50_ms on window_scan and refresh"},
	{"tpch.q6window_rows_ms", "ms", "lower", "stream_p50_ms on window_scan"},
	{"mem.scan_noop_ms", "ms", "lower", "read_p50_ms on window_scan and dashboard"},
	{"mem.blocks_per_query", "count", "lower", "read_p50_ms on window_scan"},
	{"mem.blocks_pruned_frac", "frac", "higher", "read_p50_ms on window_scan and refresh"},
	{"mem.keyset_pruned_frac", "frac", "higher", "read_p50_ms on dashboard"},
	{"mem.share_attach_frac", "frac", "higher", "read_p50_ms on window_scan"},
	{"mem.catchup_blocks_per_attach", "count", "lower", "read_p50_ms on window_scan"},
	{"region.arena_reuse_frac", "frac", "higher", "read_p50_ms on dashboard"},
	{"region.arena_retained_mb", "MiB", "lower", "mem_peak_mb on dashboard"},
	{"mem.budget_wait_ms", "ms", "lower", "write_p99_ms, success_frac on refresh"},
	{"mem.alloc_waits", "count", "lower", "write_p99_ms, success_frac on refresh"},
	{"mem.governor_rebalances", "count", "lower", "write_p99_ms, success_frac on refresh"},
	{"mem.pressure_tight_frac", "frac", "lower", "write_p99_ms, success_frac on refresh"},
	{"core.add_us_p50", "us", "lower", "write_p50_ms on refresh"},
	{"core.add_us_p99", "us", "lower", "write_p99_ms on refresh"},
	{"core.remove_us_p50", "us", "lower", "write_p50_ms on refresh"},
	{"core.remove_us_p99", "us", "lower", "write_p99_ms on refresh"},
	{"mem.compactions", "count", "lower", "space_amp on refresh"},
	{"mem.compact_busy_frac", "frac", "lower", "space_amp, read_p99_ms on refresh"},
	{"mem.objects_moved_per_s", "1/s", "lower", "space_amp, read_p99_ms on refresh"},
	{"mem.bytes_reclaimed_mb", "MiB", "higher", "space_amp on refresh"},
	{"mem.reloc_helped", "count", "lower", "read_p99_ms on refresh"},
	{"mem.reloc_bailouts", "count", "lower", "read_p99_ms on refresh"},
	{"mem.groups_aborted", "count", "lower", "space_amp on refresh"},
	{"tpch.generate_s", "s", "lower", "setup_s on every workload"},
	{"tpch.load_s", "s", "lower", "setup_s on every workload"},
	{"loadgen.write_late_p99_ms", "ms", "lower", "diagnostic of the load generator"},
	{"trace.overhead_frac", "frac", "lower", "diagnostic of the tracer"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the printed metrics map for defs from vals, failing on
// a registered metric the run did not produce (a registry/measurement
// drift is a bug in the benchmark, not a number to print).
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}
