package main

import "fmt"

// move records, before any measurement, which end-to-end metric a layer
// metric should move and on which workload; a change that claims a gain in
// one layer is judged against this table.
type move struct {
	layer, endToEnd, workload string
}

var moves = []move{
	{"run.apply_us_per_step", "ingest_steps_per_s, step_chunk_p50_ms", "live-mix"},
	{"core.label_us_per_step", "ingest_steps_per_s, step_chunk_p50_ms", "live-mix"},
	{"live.publish_us_per_step", "ingest_steps_per_s, step_chunk_p50_ms", "live-mix"},
	{"durable.append_us_per_step", "step_chunk_p50_ms, step_chunk_p90_ms, ingest_steps_per_s", "durable-ingest"},
	{"durable.fsyncs_per_step", "step_chunk_p50_ms, step_chunk_p90_ms, ingest_steps_per_s", "durable-ingest"},
	{"durable.bytes_written_per_step", "step_chunk_p50_ms, ingest_steps_per_s, disk_bytes_per_step", "durable-ingest"},
	{"durable.checkpoint_ms", "step_chunk_p90_ms, ingest_steps_per_s", "durable-ingest"},
	{"labelstore.checkpoint_load_ms", "resume_p50_ms, resume_p90_ms", "durable-ingest"},
	{"durable.recover_ms", "resume_p50_ms, resume_p90_ms", "durable-ingest"},
	{"durable.replayed_steps", "resume_p50_ms, resume_p90_ms", "durable-ingest"},
	{"fvl.resume_ms", "resume_p50_ms, resume_p90_ms", "durable-ingest"},
	{"service.process_start_ms", "resume_p50_ms, resume_p90_ms, setup_s", "durable-ingest"},
	{"core.item_index_build_ms", "set_query_p50_ms, set_query_p90_ms, peak_rss_mb", "live-mix (little on query: built once)"},
	{"query.compile_us", "set_query_p50_ms, set_query_p90_ms", "query"},
	{"engine.set_exec_ms", "set_query_p50_ms, set_query_p90_ms", "query"},
	{"fvl.set_query_ms", "set_query_p50_ms, set_query_p90_ms", "query"},
	{"query.rows_out", "set_query_p50_ms, set_query_p90_ms", "query"},
	{"service.set_query_self_ms", "set_query_p50_ms, set_query_p90_ms", "query"},
	{"boolmat.mul_ns", "point_batch_p50_ms, point_batch_p90_ms", "live-mix (little on query)"},
	{"core.depends_ns", "point_batch_p50_ms, point_batch_p90_ms", "live-mix (little on query)"},
	{"engine.batch_us", "point_batch_p50_ms, point_batch_p90_ms, point_queries_per_s", "query"},
	{"fvl.batch_us", "point_batch_p50_ms, point_batch_p90_ms, point_queries_per_s", "query"},
	{"service.point_batch_self_us", "point_batch_p50_ms, point_batch_p90_ms, point_queries_per_s", "query"},
	{"service.response_bytes_per_query", "point_batch_p50_ms, point_queries_per_s", "query"},
	{"service.request_bytes_per_step", "step_chunk_p50_ms, ingest_steps_per_s", "live-mix"},
	{"core.label_bits_mean", "disk_bytes_per_step, peak_rss_mb (the paper's compactness claim)", "all"},
	{"core.label_bits_max", "disk_bytes_per_step, peak_rss_mb (the paper's compactness claim)", "all"},
	{"trace.overhead_pct", "none: end-to-end metrics are taken untraced", "all"},
}

func printMoves() {
	fmt.Println("layer metric -> end-to-end metrics it should move, on workload:")
	for _, m := range moves {
		fmt.Printf("  %-34s -> %s, on %s\n", m.layer, m.endToEnd, m.workload)
	}
}
