//! The metric tables (name, unit — the names `BENCHMARK.json` declares) and the result
//! line the driver reads.

use std::collections::BTreeMap;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The six workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 6] = [
    "point_closed",
    "cluster_point",
    "open_sessions",
    "planner_feedback",
    "bulk_sync",
    "train_step",
];

/// End-to-end metrics: what a user of the estimator sees.  Printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("throughput_ops", "op/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("succeeded_frac", "ratio"),
    ("slo_met_frac", "ratio"),
    ("median_q_error", "ratio"),
];

/// Per-layer metrics (prefix = layer).  Printed by `--trace 1`; a metric whose layer the
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.lag_max_us", "us"),
    ("loadgen.latency_p99_us", "us"),
    ("loadgen.ladder_p99_us.r300", "us"),
    ("loadgen.ladder_p99_us.r600", "us"),
    ("loadgen.ladder_p99_us.r1200", "us"),
    ("loadgen.ladder_backlog_growth.r300", "1/s"),
    ("loadgen.ladder_backlog_growth.r600", "1/s"),
    ("loadgen.ladder_backlog_growth.r1200", "1/s"),
    ("loadgen.max_rate_ok", "1/s"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.resolve_us", "us"),
    ("serve.self_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.size_close_frac", "ratio"),
    ("serve.window_close_frac", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_purged", "count"),
    ("serve.maintenance_applied", "count"),
    ("serve.maintenance_rejected", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.degraded", "count"),
    ("core.serve_call_us", "us"),
    ("core.serve_busy_frac", "ratio"),
    ("core.snapshot_us", "us"),
    ("core.group_us", "us"),
    ("core.compute_us", "us"),
    ("core.merge_us", "us"),
    ("core.work_items_per_batch", "count"),
    ("core.fallback_frac", "ratio"),
    ("core.featurize_us", "us"),
    ("core.retrieve_full_us", "us"),
    ("core.retrieve_topk32_us", "us"),
    ("core.anchors_per_query", "count"),
    ("core.predict_batch_us_per_anchor", "us"),
    ("core.fold_us", "us"),
    ("core.upsert_us", "us"),
    ("core.warm_serve_us", "us"),
    ("core.post_write_serve_us", "us"),
    ("core.swap_model_us", "us"),
    ("nn.gemm_us", "us"),
    ("nn.gemm_gflops", "GFLOP/s"),
    ("nn.gemm_flop_per_call", "count"),
    ("nn.gemm_bytes_per_call", "count"),
    ("nn.pool_dispatch_us", "us"),
    ("nn.train_us_per_pair", "us"),
    ("cluster.serve_call_us", "us"),
    ("cluster.wire_overhead_us", "us"),
    ("cluster.encode_us", "us"),
    ("cluster.decode_us", "us"),
    ("cluster.eval_frame_bytes", "count"),
    ("cluster.result_frame_bytes", "count"),
    ("cluster.connect_ship_ms", "ms"),
    ("cluster.degraded_queries", "count"),
    ("cluster.worker_losses", "count"),
    ("obs.overhead_frac", "ratio"),
    ("obs.accounted_frac", "ratio"),
    ("obs.hist_p99_ratio", "ratio"),
    ("obs.traced_latency_p50_us", "us"),
    ("setup.db_ms", "ms"),
    ("setup.label_ms", "ms"),
    ("setup.train_ms", "ms"),
    ("setup.pool_ms", "ms"),
];

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check, with its failure if it failed.
    pub checks: Vec<(String, Result<(), String>)>,
    /// Operations attempted / not answered at full fidelity in the measured phase.
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the run's table ([`END_TO_END`] or [`PER_LAYER`]).
    pub metrics: Metrics,
    /// Remarks for the human-readable report (estimator used, sample counts, flags).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.checks.push((name.to_string(), result));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, result)| result.is_ok())
    }
}

/// The human-readable report: every metric of `table` by name and unit, the checks and
/// the notes.
pub fn render_table(workload: &str, table: &[(&'static str, &str)], outcome: &Outcome) -> String {
    let mut out = format!("== {workload} ==\n");
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        out.push_str(&format!("  {name:<38} {value:>16.4} {unit}\n"));
    }
    for (name, result) in &outcome.checks {
        match result {
            Ok(()) => out.push_str(&format!("  [ok]   {name}\n")),
            Err(why) => out.push_str(&format!("  [FAIL] {name}: {why}\n")),
        }
    }
    for note in &outcome.notes {
        out.push_str(&format!("  note: {note}\n"));
    }
    out
}

/// The driver's result line: one JSON object with `correct`, `attempted`, `failed` and
/// every metric of `table` (all digits, as measured).
pub fn result_line(table: &[(&'static str, &str)], outcome: &Outcome) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name in the tables is declared in `BENCHMARK.json` and nothing else is.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|&(name, _)| name))
            .chain(PER_LAYER.iter().map(|&(name, _)| name));
        let mut declared = 0;
        for name in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} is missing from BENCHMARK.json"
            );
            declared += 1;
        }
        assert_eq!(json.matches("\"name\": ").count(), declared);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has another unit in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut outcome = Outcome::default();
        outcome.metrics.insert("setup_s", 1.25);
        outcome.attempted = 10;
        outcome.check("parity", Ok(()));
        let line = result_line(&END_TO_END, &outcome);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"median_q_error\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(!line.contains('\n'));
        outcome.check("oracle", Err("flipped".to_string()));
        assert!(result_line(&END_TO_END, &outcome).starts_with("{\"correct\": false"));
    }
}
