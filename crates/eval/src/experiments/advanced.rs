//! Generalization and improvement experiments (paper §6.6 and §7):
//! Table 10 / Figures 12–13, Tables 11–13.

use crate::experiments::cardinality::{cnt2crd_crn, evaluate_headline_models};
use crate::experiments::common::{cardinality_ground_truth, evaluate_cardinality_model};
use crate::harness::ExperimentContext;
use crate::plot::render_box_plots;
use crate::report::ExperimentReport;
use crate::workloads::{crd_test2, scale};
use crn_core::ImprovedEstimator;
use crn_estimators::{CardinalityEstimator, PostgresEstimator};

/// Number of sample rows per base table for the sample-enhanced MSCN variant.  The paper uses
/// 1000; the default reproduction database is smaller, so the same *fraction* of rows is
/// roughly preserved by this constant.
pub const MSCN_SAMPLE_ROWS: usize = 100;

/// Number of training queries generated (with the scale generator) for the sample-enhanced
/// MSCN variant.
pub const MSCN_SAMPLED_TRAINING_QUERIES: usize = 400;

/// Table 10 / Figure 12 — estimation errors on the `scale` workload, including the
/// sample-enhanced MSCN trained on the scale generator's distribution.
pub fn table10_scale(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = scale(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(23),
    );
    let (results, truth) = evaluate_headline_models(ctx, &workload);
    let mut report = ExperimentReport::new(
        "table10",
        "Table 10 & Figure 12 — estimation errors on the scale workload (different generator)",
    )
    .with_qerror_headers();
    for errors in &results {
        report.push_summary(errors.model.clone(), &errors.summary());
    }
    // The sample-enhanced MSCN variant, trained on the scale generator's own distribution
    // (the paper deliberately gives it this advantage, §6.6).
    let sampled = ctx.train_sampled_mscn(MSCN_SAMPLE_ROWS, MSCN_SAMPLED_TRAINING_QUERIES);
    let sampled_errors = evaluate_cardinality_model(&sampled, &workload, &truth);
    report.push_summary(
        format!("{} (scale-trained)", sampled.name()),
        &sampled_errors.summary(),
    );
    report.push_note(format!(
        "{} queries; CRN's training data and queries pool are unchanged (not from the scale generator)",
        workload.len()
    ));
    report.push_note(
        "expected shape (paper): Cnt2Crd(CRN) more robust overall; MSCN-with-samples best at 0-2 joins, CRN best at 3-4 joins".to_string(),
    );
    report
}

/// Figure 13 — estimation errors on `crd_test2` compared across **all** models: the three
/// headline models, the improved models and the sample-enhanced MSCN.
pub fn fig13_all_models(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let truth = cardinality_ground_truth(&ctx.db, &workload);
    let mut report = ExperimentReport::new(
        "fig13",
        "Figure 13 — estimation errors on crd_test2, all models",
    )
    .with_qerror_headers();

    let cnt2crd = cnt2crd_crn(ctx);
    let improved_pg = ImprovedEstimator::new(
        PostgresEstimator::from_stats(ctx.postgres.stats().clone()),
        ctx.pool.clone(),
    );
    let improved_mscn = ImprovedEstimator::new(&ctx.mscn, ctx.pool.clone());
    let sampled = ctx.train_sampled_mscn(MSCN_SAMPLE_ROWS, MSCN_SAMPLED_TRAINING_QUERIES);

    let models: Vec<(&str, &dyn CardinalityEstimator)> = vec![
        ("PostgreSQL", &ctx.postgres),
        ("MSCN", &ctx.mscn),
        ("MSCN (with samples)", &sampled),
        ("Improved PostgreSQL", &improved_pg),
        ("Improved MSCN", &improved_mscn),
        ("Cnt2Crd(CRN)", &cnt2crd),
    ];
    let mut all_errors = Vec::new();
    for (label, model) in models {
        let mut errors = evaluate_cardinality_model(model, &workload, &truth);
        errors.model = label.to_string();
        report.push_summary(label, &errors.summary());
        all_errors.push(errors);
    }
    report.push_note("paper: queries-pool based models dominate on many-join queries".to_string());
    report.push_plot(render_box_plots("Figure 13 — box plot", &all_errors, 70));
    report
}

/// Table 11 — PostgreSQL vs Improved PostgreSQL on `crd_test2`.
pub fn table11_improved_postgres(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let truth = cardinality_ground_truth(&ctx.db, &workload);
    let improved = ImprovedEstimator::new(
        PostgresEstimator::from_stats(ctx.postgres.stats().clone()),
        ctx.pool.clone(),
    );
    let mut report = ExperimentReport::new(
        "table11",
        "Table 11 — PostgreSQL vs Improved PostgreSQL on crd_test2",
    )
    .with_qerror_headers();
    report.push_summary(
        "PostgreSQL",
        &evaluate_cardinality_model(&ctx.postgres, &workload, &truth).summary(),
    );
    report.push_summary(
        "Improved PostgreSQL",
        &evaluate_cardinality_model(&improved, &workload, &truth).summary(),
    );
    report.push_note("paper reports a ~7x mean improvement without changing the model".to_string());
    report
}

/// Table 12 — MSCN vs Improved MSCN on `crd_test2`.
pub fn table12_improved_mscn(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let truth = cardinality_ground_truth(&ctx.db, &workload);
    let improved = ImprovedEstimator::new(&ctx.mscn, ctx.pool.clone());
    let mut report =
        ExperimentReport::new("table12", "Table 12 — MSCN vs Improved MSCN on crd_test2")
            .with_qerror_headers();
    report.push_summary(
        "MSCN",
        &evaluate_cardinality_model(&ctx.mscn, &workload, &truth).summary(),
    );
    report.push_summary(
        "Improved MSCN",
        &evaluate_cardinality_model(&improved, &workload, &truth).summary(),
    );
    report
        .push_note("paper reports a ~122x mean improvement without changing the model".to_string());
    report
}

/// Table 13 — Improved PostgreSQL / Improved MSCN vs Cnt2Crd(CRN) on `crd_test2`.
pub fn table13_improved_vs_crn(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let truth = cardinality_ground_truth(&ctx.db, &workload);
    let improved_pg = ImprovedEstimator::new(
        PostgresEstimator::from_stats(ctx.postgres.stats().clone()),
        ctx.pool.clone(),
    );
    let improved_mscn = ImprovedEstimator::new(&ctx.mscn, ctx.pool.clone());
    let cnt2crd = cnt2crd_crn(ctx);
    let mut report = ExperimentReport::new(
        "table13",
        "Table 13 — Improved models vs Cnt2Crd(CRN) on crd_test2",
    )
    .with_qerror_headers();
    for (label, model) in [
        (
            "Improved PostgreSQL",
            &improved_pg as &dyn CardinalityEstimator,
        ),
        ("Improved MSCN", &improved_mscn as &dyn CardinalityEstimator),
        ("Cnt2Crd(CRN)", &cnt2crd as &dyn CardinalityEstimator),
    ] {
        report.push_summary(
            label,
            &evaluate_cardinality_model(model, &workload, &truth).summary(),
        );
    }
    report.push_note(
        "paper: the direct CRN-based pipeline gives the best percentiles up to the 90th"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_context as ctx;

    #[test]
    fn table10_includes_sampled_mscn_row() {
        let report = table10_scale(ctx());
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().any(|(l, _)| l.contains("scale-trained")));
    }

    #[test]
    fn improvement_tables_have_two_rows_each() {
        assert_eq!(table11_improved_postgres(ctx()).rows.len(), 2);
        assert_eq!(table12_improved_mscn(ctx()).rows.len(), 2);
        assert_eq!(table13_improved_vs_crn(ctx()).rows.len(), 3);
    }

    #[test]
    fn fig13_compares_six_models() {
        let report = fig13_all_models(ctx());
        assert_eq!(report.rows.len(), 6);
    }
}
