package main

import "strings"

// perLayer are the metrics of the traced pass, layer by layer, in the
// order BENCHMARK.json lists them. README.md says, for each, which
// end-to-end metric it should move and on which workload.
var perLayer = []metricDef{
	{name: "parser.parse_us", unit: "us", better: "lower"},
	{name: "ra.normalize_us", unit: "us", better: "lower"},
	{name: "ra.fingerprint_us", unit: "us", better: "lower"},
	{name: "cover.check_us", unit: "us", better: "lower"},
	{name: "cover.covered_ratio", unit: "ratio", better: "higher"},
	{name: "minimize.mina_us", unit: "us", better: "lower"},
	{name: "plan.build_us", unit: "us", better: "lower"},
	{name: "plan.steps_per_plan", unit: "count", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.evictions_per_kop", unit: "count", better: "lower"},
	{name: "cache.entries", unit: "count", better: "lower"},
	{name: "cache.get_ns", unit: "ns", better: "lower"},
	{name: "ivm.serve_ratio", unit: "ratio", better: "higher"},
	{name: "ivm.serve_us", unit: "us", better: "lower"},
	{name: "ivm.admits_per_kop", unit: "count", better: "lower"},
	{name: "ivm.evictions_per_kop", unit: "count", better: "lower"},
	{name: "ivm.admit_us", unit: "us", better: "lower"},
	{name: "ivm.denied", unit: "count", better: "lower"},
	{name: "ivm.fallbacks", unit: "count", better: "lower"},
	{name: "ivm.views_live", unit: "count", better: "higher"},
	{name: "ivm.delta_applies_per_write", unit: "count", better: "lower"},
	{name: "ivm.write_tax_us", unit: "us", better: "lower"},
	{name: "exec.run_us", unit: "us", better: "lower"},
	{name: "exec.run_p99_us", unit: "us", better: "lower"},
	{name: "exec.accessed_per_query", unit: "count", better: "lower"},
	{name: "exec.rows_out_per_query", unit: "count", better: "lower"},
	{name: "exec.rows_per_batch", unit: "count", better: "higher"},
	{name: "exec.arena_hit_ratio", unit: "ratio", better: "higher"},
	{name: "exec.sig_reject_ratio", unit: "ratio", better: "higher"},
	{name: "exec.allocs_per_run", unit: "count", better: "lower"},
	{name: "store.fetch_us", unit: "us", better: "lower"},
	{name: "store.fetched_per_query", unit: "count", better: "lower"},
	{name: "store.scanned_per_query", unit: "count", better: "lower"},
	{name: "store.insert_us", unit: "us", better: "lower"},
	{name: "store.delete_us", unit: "us", better: "lower"},
	{name: "store.db_size", unit: "count", better: "lower"},
	{name: "store.index_entries", unit: "count", better: "lower"},
	{name: "core.execute_us.materialized", unit: "us", better: "lower"},
	{name: "core.execute_us.cachehit", unit: "us", better: "lower"},
	{name: "core.execute_us.cold", unit: "us", better: "lower"},
	{name: "core.path_materialized_ratio", unit: "ratio", better: "higher"},
	{name: "core.path_cachehit_ratio", unit: "ratio", better: "higher"},
	{name: "core.path_cold_ratio", unit: "ratio", better: "lower"},
	{name: "core.bounded_ratio", unit: "ratio", better: "higher"},
	{name: "core.overhead_us", unit: "us", better: "lower"},
	{name: "core.cold_stage_share", unit: "ratio", better: "higher"},
	{name: "core.write_us", unit: "us", better: "lower"},
	{name: "shard.execute_us.single", unit: "us", better: "lower"},
	{name: "shard.execute_us.scatter", unit: "us", better: "lower"},
	{name: "shard.execute_us.residue", unit: "us", better: "lower"},
	{name: "shard.tax_us.single", unit: "us", better: "lower"},
	{name: "shard.tax_us.scatter", unit: "us", better: "lower"},
	{name: "shard.tax_us.residue", unit: "us", better: "lower"},
	{name: "shard.route_single_ratio", unit: "ratio", better: "higher"},
	{name: "shard.route_scatter_ratio", unit: "ratio", better: "lower"},
	{name: "shard.route_residue_ratio", unit: "ratio", better: "lower"},
	{name: "shard.write_us", unit: "us", better: "lower"},
	{name: "shard.write_tax_us", unit: "us", better: "lower"},
	{name: "shard.apply_enqueued_per_write", unit: "count", better: "lower"},
	{name: "shard.apply_batch_size", unit: "count", better: "higher"},
	{name: "shard.apply_depth_end", unit: "count", better: "lower"},
	{name: "shard.residue_bytes_per_query", unit: "B", better: "lower"},
	{name: "shard.ivm_delta_applies_per_write", unit: "count", better: "lower"},
	{name: "shard.allocs_per_op", unit: "count", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.sync_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_append", unit: "B", better: "lower"},
	{name: "wal.fsyncs_per_kappend", unit: "count", better: "lower"},
	{name: "wal.checkpoints", unit: "count", better: "lower"},
	{name: "wal.write_tax_us", unit: "us", better: "lower"},
	{name: "wal.recover_s", unit: "s", better: "lower"},
	{name: "server.roundtrip_us", unit: "us", better: "lower"},
	{name: "server.decode_us", unit: "us", better: "lower"},
	{name: "server.boundary_us", unit: "us", better: "lower"},
	{name: "server.req_bytes_per_query", unit: "B", better: "lower"},
	{name: "server.resp_bytes_per_query", unit: "B", better: "lower"},
	{name: "server.write_roundtrip_us", unit: "us", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
}

// allDefs is every metric definition, end-to-end first; defIndex finds one
// by name.
var (
	allDefs  = append(append(append([]metricDef(nil), endToEnd...), extras...), perLayer...)
	defIndex = func() map[string]int {
		m := make(map[string]int, len(allDefs))
		for i, d := range allDefs {
			m[d.name] = i
		}
		return m
	}()
)

// baseName strips the "@rate" or "@percentile" suffix informational extras carry.
func baseName(name string) string {
	base, _, _ := strings.Cut(name, "@")
	return base
}

// unitOf returns the unit of a metric; informational extras that have no
// definition get theirs from the name's suffix.
func unitOf(name string) string {
	base := baseName(name)
	if i, ok := defIndex[base]; ok {
		return allDefs[i].unit
	}
	switch {
	case strings.HasSuffix(base, "_us"):
		return "us"
	case strings.HasSuffix(base, "_s"):
		return "s"
	default:
		return "count"
	}
}

// metricLess sorts metrics in definition order, undefined ones last, ties
// by name.
func metricLess(a, b string) bool {
	ia, oka := defIndex[baseName(a)]
	ib, okb := defIndex[baseName(b)]
	if !oka {
		ia = len(allDefs)
	}
	if !okb {
		ib = len(allDefs)
	}
	if ia != ib {
		return ia < ib
	}
	return a < b
}
