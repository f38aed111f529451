//! Containment-rate estimation experiments (paper §4): Tables 2–4, Figures 5–6.

use crate::experiments::common::{containment_ground_truth, evaluate_containment_model, join_mask};
use crate::harness::ExperimentContext;
use crate::plot::render_box_plots;
use crate::report::ExperimentReport;
use crate::workloads::{cnt_test1, cnt_test2, PairWorkload};
use crn_core::Crd2Cnt;
use crn_estimators::ContainmentEstimator;

/// Table 2 — distribution of joins in the containment workloads.
pub fn table2_workload_distribution(ctx: &ExperimentContext) -> ExperimentReport {
    let sizes = &ctx.config.workloads;
    let w1 = cnt_test1(&ctx.db, sizes, ctx.config.seed.wrapping_add(11));
    let w2 = cnt_test2(&ctx.db, sizes, ctx.config.seed.wrapping_add(12));
    let mut report = ExperimentReport::new(
        "table2",
        "Table 2 — distribution of joins in the containment workloads",
    )
    .with_headers(&["0", "1", "2", "3", "4", "5", "overall"]);
    for workload in [&w1, &w2] {
        let dist = workload.join_distribution(5);
        let mut cells: Vec<String> = dist.iter().map(|c| c.to_string()).collect();
        cells.push(workload.len().to_string());
        report.push_row(workload.name.clone(), cells);
    }
    report.push_note(format!(
        "paper sizes are 1200 pairs per workload; this run uses {} and {} pairs",
        w1.len(),
        w2.len()
    ));
    report
}

/// Shared evaluation of the three containment estimators on a pair workload.
fn containment_comparison(
    ctx: &ExperimentContext,
    workload: &PairWorkload,
    id: &str,
    title: &str,
) -> ExperimentReport {
    let truth = containment_ground_truth(&ctx.db, workload);
    let crd2cnt_postgres = Crd2Cnt::new(&ctx.postgres);
    let crd2cnt_mscn = Crd2Cnt::new(&ctx.mscn);

    let models: Vec<(&str, &dyn ContainmentEstimator)> = vec![
        ("Crd2Cnt(PostgreSQL)", &crd2cnt_postgres),
        ("Crd2Cnt(MSCN)", &crd2cnt_mscn),
        ("CRN", &ctx.crn),
    ];
    let mut report = ExperimentReport::new(id, title).with_qerror_headers();
    let mut all_errors = Vec::new();
    for (label, model) in models {
        let mut errors = evaluate_containment_model(model, workload, &truth);
        errors.model = label.to_string();
        report.push_summary(label, &errors.summary());
        all_errors.push(errors);
    }
    report.push_note(format!(
        "{} pairs; true rates computed by exact execution; q-error floor {}",
        workload.len(),
        crate::metrics::RATE_FLOOR
    ));
    report.push_plot(render_box_plots(
        &format!("{title} — box plot"),
        &all_errors,
        70,
    ));
    report
}

/// Table 3 / Figure 5 — containment estimation errors on `cnt_test1` (0–2 joins).
pub fn table3_cnt_test1(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = cnt_test1(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(11),
    );
    let mut report = containment_comparison(
        ctx,
        &workload,
        "table3",
        "Table 3 & Figure 5 — containment estimation errors on cnt_test1 (0-2 joins)",
    );
    report.push_note(
        "expected shape (paper): CRN and Crd2Cnt(MSCN) close, Crd2Cnt(PostgreSQL) heavy-tailed"
            .to_string(),
    );
    report
}

/// Table 4 / Figure 6 — containment estimation errors on `cnt_test2` (0–5 joins,
/// generalization beyond the training join count).
pub fn table4_cnt_test2(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = cnt_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(12),
    );
    let truth = containment_ground_truth(&ctx.db, &workload);
    let crd2cnt_postgres = Crd2Cnt::new(&ctx.postgres);
    let crd2cnt_mscn = Crd2Cnt::new(&ctx.mscn);
    let models: Vec<(&str, &dyn ContainmentEstimator)> = vec![
        ("Crd2Cnt(PostgreSQL)", &crd2cnt_postgres),
        ("Crd2Cnt(MSCN)", &crd2cnt_mscn),
        ("CRN", &ctx.crn),
    ];

    let mut report = ExperimentReport::new(
        "table4",
        "Table 4 & Figure 6 — containment estimation errors on cnt_test2 (0-5 joins)",
    )
    .with_qerror_headers();
    let many_joins = join_mask(&truth.join_counts, 3, 5);
    for (label, model) in models {
        let errors = evaluate_containment_model(model, &workload, &truth);
        report.push_summary(label, &errors.summary());
        report.push_summary(
            format!("{label} [3-5 joins]"),
            &errors.summary_where(&many_joins),
        );
    }
    report.push_note(
        "expected shape (paper): CRN generalizes to unseen join counts markedly better (≈8x lower mean)".to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_context as ctx;

    #[test]
    fn table2_lists_both_workloads() {
        let report = table2_workload_distribution(ctx());
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.headers.len(), 7);
        // cnt_test1 must not contain 3+ join pairs.
        let (_, cells) = &report.rows[0];
        assert_eq!(cells[3], "0");
        assert_eq!(cells[4], "0");
        assert_eq!(cells[5], "0");
    }

    #[test]
    fn table3_compares_three_models() {
        let report = table3_cnt_test1(ctx());
        assert_eq!(report.rows.len(), 3);
        let labels: Vec<&str> = report.rows.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"CRN"));
        assert!(labels.contains(&"Crd2Cnt(PostgreSQL)"));
        assert!(labels.contains(&"Crd2Cnt(MSCN)"));
        let text = report.render_text();
        assert!(text.contains("cnt_test1"));
    }

    #[test]
    fn table4_adds_many_join_breakdown() {
        let report = table4_cnt_test2(ctx());
        assert_eq!(
            report.rows.len(),
            6,
            "three models, each with an all-joins and a 3-5 join row"
        );
    }
}
