package main

// metricDef declares one metric the way BENCHMARK.json lists it. The tables
// below are the source of truth: `--manifest` prints BENCHMARK.json from
// them and a test keeps the committed file in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// discardedAttempts counts the measurements thrown away before the reported
// one because a statement in them failed (engine defect 1); measure fills it
// in, everything else comes from the attempt itself.
const discardedAttempts = "discarded_attempts"

// endToEnd is what a user of the engine sees, measured with tracing off.
// Every workload reports every one. Failures are not a metric here because a
// clean run is exactly 0: they are the result line's `failed`/`attempted`,
// and the share is the per-layer `failed_frac` of the reported attempt. op_p50_ms, op_p90_ms and
// heap_peak_mb were candidates; they did not repeat within 10% on every
// workload and are per-layer metrics (README, "Sizing and steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.10},
}

// perLayer is the traced run's attribution, named module.metric after the
// package under internal/ the number belongs to. A metric reads 0 on a
// workload that does not exercise its layer.
var perLayer = []metricDef{
	{"failed_frac", "ratio", lower, 0},
	{discardedAttempts, "count", lower, 0},
	{"trace_overhead_ratio", "ratio", lower, 0},
	{"op_p50_ms", "ms", lower, 0},
	{"op_p90_ms", "ms", lower, 0},
	{"heap_peak_mb", "MB", lower, 0},

	{"sqlparser.parse_us", "us", lower, 0},
	{"analyzer.analyze_us", "us", lower, 0},
	{"optimizer.optimize_us", "us", lower, 0},
	{"optimizer.fragment_us", "us", lower, 0},
	{"coordinator.plan_share", "ratio", lower, 0},
	{"coordinator.first_page_ms", "ms", lower, 0},
	{"coordinator.drain_ms", "ms", lower, 0},
	{"coordinator.outside_exec_ms", "ms", lower, 0},

	{"exec.cpu_ms_per_op", "ms", lower, 0},
	{"exec.blocked_ms_per_op", "ms", lower, 0},
	{"exec.cpu_utilisation", "ratio", higher, 0},
	{"exec.splits_per_op", "count", lower, 0},

	{"operators.scan_cpu_share", "ratio", lower, 0},
	{"operators.filterproject_cpu_share", "ratio", lower, 0},
	{"operators.hashagg_cpu_share", "ratio", lower, 0},
	{"operators.join_cpu_share", "ratio", lower, 0},
	{"operators.exchange_cpu_share", "ratio", lower, 0},
	{"operators.sort_topn_cpu_share", "ratio", lower, 0},
	{"operators.writer_cpu_share", "ratio", lower, 0},
	{"operators.scan_rows_per_s", "1/s", higher, 0},
	{"operators.hashagg_rows_per_s", "1/s", higher, 0},
	{"operators.join_probe_rows_per_s", "1/s", higher, 0},

	{"expr.h01_proc_rows_per_s", "1/s", higher, 0},
	{"expr.h06_proc_rows_per_s", "1/s", higher, 0},
	{"expr.vecproj_evals_per_op", "count", higher, 0},
	{"expr.cse_hits_per_op", "count", higher, 0},

	{"dynfilter.rows_filtered_share", "ratio", higher, 0},
	{"dynfilter.wait_ms_per_op", "ms", lower, 0},

	{"block.encode_mb_per_s", "MB/s", higher, 0},
	{"block.decode_mb_per_s", "MB/s", higher, 0},
	{"block.encode_compressed_mb_per_s", "MB/s", higher, 0},
	{"block.decode_compressed_mb_per_s", "MB/s", higher, 0},
	{"block.encoded_bytes_per_raw_byte", "ratio", lower, 0},

	{"wire.fragment_encode_us", "us", lower, 0},
	{"wire.fragment_decode_us", "us", lower, 0},
	{"wire.fragment_bytes", "count", lower, 0},
	{"wire.http_requests_per_op", "count", lower, 0},
	{"wire.http_bytes_per_op", "count", lower, 0},

	{"shuffle.buffer_mb_per_s", "MB/s", higher, 0},
	{"shuffle.comm_overhead_ratio", "ratio", lower, 0},

	{"httpapi.roundtrip_us", "us", lower, 0},
	{"httpapi.stmt_p99_ms", "ms", lower, 0},

	{"serving.plan_hit_rate", "ratio", higher, 0},
	{"serving.result_hit_rate", "ratio", higher, 0},
	{"serving.plan_invalidations", "count", lower, 0},
	{"serving.result_invalidations", "count", lower, 0},
	{"serving.read_p50_ms", "ms", lower, 0},
	{"serving.write_p50_ms", "ms", lower, 0},

	{"cache.page_hit_rate", "ratio", higher, 0},
	{"cache.page_evictions", "count", lower, 0},
	{"cache.meta_hit_rate", "ratio", higher, 0},

	{"spill.bytes_written_per_input_row", "count", lower, 0},
	{"spill.read_amplification", "ratio", lower, 0},
	{"spill.files_per_op", "count", lower, 0},
	{"spill.write_mb_per_s", "MB/s", higher, 0},
	{"spill.read_mb_per_s", "MB/s", higher, 0},

	{"connectors.memconn_scan_rows_per_s", "1/s", higher, 0},
	{"connectors.hive_scan_rows_per_s", "1/s", higher, 0},
	{"orcish.write_mb_per_s", "MB/s", higher, 0},

	{"memory.query_peak_mb", "MB", lower, 0},
	{"memory.gc_cycles_per_op", "count", lower, 0},
	{"memory.gc_pause_ms_per_op", "ms", lower, 0},
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"scan_agg", "single-table scans: scan, filter, project and partial aggregation do the work; joins, shuffle and planning do not"},
	{"join_local", "in-process joins: hash build/probe, dynamic filters, join order and in-memory shuffle; the compute half of compute vs communication"},
	{"join_http", "the join_local statements over loopback HTTP workers: adds fragment wire format, task API, page codec and shuffle fetch"},
	{"serving_mix", "2 closed-loop clients, 95% Zipf point reads and 5% inserts over the statement protocol: parse, plan and result caches, admission and JSON dominate"},
	{"spill_etl", "memory-capped CREATE TABLE AS and aggregations over a file lake: spill writer/reader, revocation, table writer, orcish and metadata cache"},
}
