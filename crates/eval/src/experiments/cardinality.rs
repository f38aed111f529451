//! Cardinality estimation experiments (paper §6): Tables 5–9, Figures 9–11.

use crate::experiments::common::{
    cardinality_ground_truth, evaluate_cardinality_model, join_mask, CardinalityGroundTruth,
};
use crate::harness::ExperimentContext;
use crate::metrics::ModelErrors;
use crate::plot::render_box_plots;
use crate::report::{format_number, ExperimentReport};
use crate::workloads::{crd_test1, crd_test2, scale, Workload};
use crn_core::Cnt2Crd;
use crn_estimators::CardinalityEstimator;

/// Builds the paper's main cardinality estimator `Cnt2Crd(CRN)` from the context's CRN model
/// and queries pool, with the PostgreSQL baseline as the out-of-pool fallback (§5.2).
pub fn cnt2crd_crn(ctx: &ExperimentContext) -> Cnt2Crd<&crn_core::CrnModel> {
    Cnt2Crd::new(&ctx.crn, ctx.pool.clone()).with_fallback(Box::new(
        crn_estimators::PostgresEstimator::from_stats(ctx.postgres.stats().clone()),
    ))
}

/// Evaluates the three headline cardinality models on a workload.
pub fn evaluate_headline_models(
    ctx: &ExperimentContext,
    workload: &Workload,
) -> (Vec<ModelErrors>, CardinalityGroundTruth) {
    let truth = cardinality_ground_truth(&ctx.db, workload);
    let cnt2crd = cnt2crd_crn(ctx);
    let models: Vec<(&str, &dyn CardinalityEstimator)> = vec![
        ("PostgreSQL", &ctx.postgres),
        ("MSCN", &ctx.mscn),
        ("Cnt2Crd(CRN)", &cnt2crd),
    ];
    let mut results = Vec::new();
    for (label, model) in models {
        let mut errors = evaluate_cardinality_model(model, workload, &truth);
        errors.model = label.to_string();
        results.push(errors);
    }
    (results, truth)
}

/// Table 5 — distribution of joins in the cardinality workloads.
pub fn table5_workload_distribution(ctx: &ExperimentContext) -> ExperimentReport {
    let sizes = &ctx.config.workloads;
    let seed = ctx.config.seed;
    let w1 = crd_test1(&ctx.db, sizes, seed.wrapping_add(21));
    let w2 = crd_test2(&ctx.db, sizes, seed.wrapping_add(22));
    let ws = scale(&ctx.db, sizes, seed.wrapping_add(23));
    let mut report = ExperimentReport::new(
        "table5",
        "Table 5 — distribution of joins in the cardinality workloads",
    )
    .with_headers(&["0", "1", "2", "3", "4", "5", "overall"]);
    for workload in [&w1, &w2, &ws] {
        let dist = workload.join_distribution(5);
        let mut cells: Vec<String> = dist.iter().map(|c| c.to_string()).collect();
        cells.push(workload.len().to_string());
        report.push_row(workload.name.clone(), cells);
    }
    report.push_note("paper sizes: crd_test1 450, crd_test2 450, scale 500".to_string());
    report
}

fn cardinality_comparison(
    ctx: &ExperimentContext,
    workload: &Workload,
    id: &str,
    title: &str,
    note: &str,
) -> ExperimentReport {
    let (results, _) = evaluate_headline_models(ctx, workload);
    let mut report = ExperimentReport::new(id, title).with_qerror_headers();
    for errors in &results {
        report.push_summary(errors.model.clone(), &errors.summary());
    }
    report.push_note(format!("{} queries; {}", workload.len(), note));
    report.push_plot(render_box_plots(
        &format!("{title} — box plot"),
        &results,
        70,
    ));
    report
}

/// Table 6 / Figure 9 — estimation errors on `crd_test1` (0–2 joins).
pub fn table6_crd_test1(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test1(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(21),
    );
    cardinality_comparison(
        ctx,
        &workload,
        "table6",
        "Table 6 & Figure 9 — cardinality estimation errors on crd_test1 (0-2 joins)",
        "expected shape (paper): MSCN and Cnt2Crd(CRN) competitive, PostgreSQL skewed upward",
    )
}

/// Table 7 / Figure 10 — estimation errors on `crd_test2` (0–5 joins).
pub fn table7_crd_test2(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    cardinality_comparison(
        ctx,
        &workload,
        "table7",
        "Table 7 & Figure 10 — cardinality estimation errors on crd_test2 (0-5 joins)",
        "expected shape (paper): Cnt2Crd(CRN) mean ~100x lower than MSCN, ~1000x lower than PostgreSQL",
    )
}

/// Table 8 — estimation errors on `crd_test2` restricted to 3–5 joins.
pub fn table8_many_joins(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let (results, truth) = evaluate_headline_models(ctx, &workload);
    let mask = join_mask(&truth.join_counts, 3, 5);
    let mut report = ExperimentReport::new(
        "table8",
        "Table 8 — estimation errors on crd_test2, queries with three to five joins only",
    )
    .with_qerror_headers();
    for errors in &results {
        report.push_summary(errors.model.clone(), &errors.summary_where(&mask));
    }
    report.push_note(format!(
        "{} of {} queries have 3-5 joins",
        mask.iter().filter(|&&b| b).count(),
        workload.len()
    ));
    report
}

/// Table 9 / Figure 11 — mean and median q-error per number of joins on `crd_test2`.
pub fn table9_per_join(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let (results, truth) = evaluate_headline_models(ctx, &workload);
    let mut report = ExperimentReport::new(
        "table9",
        "Table 9 & Figure 11 — q-error means (and medians) for each number of joins on crd_test2",
    )
    .with_headers(&["0", "1", "2", "3", "4", "5"]);
    for errors in &results {
        let means: Vec<String> = (0..=5)
            .map(|joins| {
                let mask = join_mask(&truth.join_counts, joins, joins);
                format_number(errors.mean_where(&mask))
            })
            .collect();
        report.push_row(format!("{} (mean)", errors.model), means);
        let medians: Vec<String> = (0..=5)
            .map(|joins| {
                let mask = join_mask(&truth.join_counts, joins, joins);
                format_number(errors.median_where(&mask))
            })
            .collect();
        report.push_row(format!("{} (median)", errors.model), medians);
    }
    report.push_note(
        "expected shape (paper): baseline errors grow exponentially with joins; Cnt2Crd(CRN) stays flat"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_context as ctx;

    #[test]
    fn table5_reports_three_workloads() {
        let report = table5_workload_distribution(ctx());
        assert_eq!(report.rows.len(), 3);
    }

    #[test]
    fn table6_and_7_report_three_models() {
        for report in [table6_crd_test1(ctx()), table7_crd_test2(ctx())] {
            assert_eq!(report.rows.len(), 3);
            let labels: Vec<&str> = report.rows.iter().map(|(l, _)| l.as_str()).collect();
            assert!(labels.contains(&"PostgreSQL"));
            assert!(labels.contains(&"MSCN"));
            assert!(labels.contains(&"Cnt2Crd(CRN)"));
        }
    }

    #[test]
    fn table8_is_a_subset_of_table7() {
        let report = table8_many_joins(ctx());
        assert_eq!(report.rows.len(), 3);
    }

    #[test]
    fn table9_has_mean_and_median_rows_per_model() {
        let report = table9_per_join(ctx());
        assert_eq!(report.rows.len(), 6);
        assert_eq!(report.headers.len(), 6);
    }
}
