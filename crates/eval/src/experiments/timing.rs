//! Prediction-cost experiments (paper §7.4): Table 14 (queries-pool size sweep) and
//! Table 15 (average prediction time per model).

use crate::experiments::cardinality::cnt2crd_crn;
use crate::experiments::common::{
    average_prediction_time_ms, cardinality_ground_truth, evaluate_cardinality_model,
};
use crate::harness::ExperimentContext;
use crate::report::{format_number, ExperimentReport};
use crate::workloads::crd_test2;
use crn_core::{Cnt2Crd, ImprovedEstimator};
use crn_estimators::{CardinalityEstimator, PostgresEstimator};

/// The pool sizes swept by Table 14, scaled from the configured pool size
/// (the paper sweeps 50..300 in steps of 50 around its 300-entry pool).
pub fn pool_size_sweep(max: usize) -> Vec<usize> {
    let step = (max / 6).max(1);
    (1..=6).map(|i| (i * step).min(max)).collect()
}

/// Table 14 — median/mean q-error and average prediction time for different pool sizes.
pub fn table14_pool_sweep(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let truth = cardinality_ground_truth(&ctx.db, &workload);
    let sizes = pool_size_sweep(ctx.pool.len());
    let mut report = ExperimentReport::new(
        "table14",
        "Table 14 — estimation errors and prediction time on crd_test2 vs queries-pool size",
    )
    .with_headers(
        &sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
    );

    let mut medians = Vec::new();
    let mut means = Vec::new();
    let mut times = Vec::new();
    for &size in &sizes {
        let pool = ctx.pool_of_size(size);
        let estimator = Cnt2Crd::new(&ctx.crn, pool).with_fallback(Box::new(
            PostgresEstimator::from_stats(ctx.postgres.stats().clone()),
        ));
        let errors = evaluate_cardinality_model(&estimator, &workload, &truth);
        let summary = errors.summary();
        medians.push(format_number(summary.p50));
        means.push(format_number(summary.mean));
        times.push(format!(
            "{:.1}ms",
            average_prediction_time_ms(&estimator, &workload)
        ));
    }
    report.push_row("Median", medians);
    report.push_row("Mean", means);
    report.push_row("Prediction time", times);
    report.push_note(
        "paper: larger pools improve accuracy but increase per-query prediction time roughly linearly"
            .to_string(),
    );
    report
}

/// Table 15 — average prediction time of a single query for every model.
pub fn table15_prediction_time(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let cnt2crd = cnt2crd_crn(ctx);
    let improved_pg = ImprovedEstimator::new(
        PostgresEstimator::from_stats(ctx.postgres.stats().clone()),
        ctx.pool.clone(),
    );
    let improved_mscn = ImprovedEstimator::new(&ctx.mscn, ctx.pool.clone());

    let mut report = ExperimentReport::new(
        "table15",
        "Table 15 — average prediction time of a single query",
    )
    .with_headers(&["avg prediction time"]);
    let models: Vec<(&str, &dyn CardinalityEstimator)> = vec![
        ("PostgreSQL", &ctx.postgres),
        ("MSCN", &ctx.mscn),
        ("Improved PostgreSQL", &improved_pg),
        ("Improved MSCN", &improved_mscn),
        ("Cnt2Crd(CRN)", &cnt2crd),
    ];
    for (label, model) in models {
        let time = average_prediction_time_ms(model, &workload);
        report.push_row(label, vec![format!("{time:.2}ms")]);
    }
    report.push_note(format!(
        "pool size {}; paper ordering: MSCN < PostgreSQL < Cnt2Crd(CRN) < Improved MSCN < Improved PostgreSQL",
        ctx.pool.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_context as ctx;

    #[test]
    fn pool_sweep_sizes_are_increasing() {
        let sizes = pool_size_sweep(300);
        assert_eq!(sizes, vec![50, 100, 150, 200, 250, 300]);
        assert!(pool_size_sweep(5).iter().all(|&s| (1..=5).contains(&s)));
    }

    #[test]
    fn table14_has_three_rows_one_per_metric() {
        let report = table14_pool_sweep(ctx());
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].0, "Median");
        assert_eq!(report.rows[2].0, "Prediction time");
    }

    #[test]
    fn table15_reports_five_models() {
        let report = table15_prediction_time(ctx());
        assert_eq!(report.rows.len(), 5);
        // Every cell ends with "ms".
        for (_, cells) in &report.rows {
            assert!(cells[0].ends_with("ms"));
        }
    }
}
