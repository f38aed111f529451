//! Ablation experiments.
//!
//! These are not tables of the paper; they isolate design choices the paper asserts without a
//! dedicated experiment (`ablation_crn` and `ablation_final_fn` in
//! [`ALL_EXPERIMENTS`](crate::experiments::ALL_EXPERIMENTS)):
//!
//! * average vs sum pooling in the set encoder (§3.2.2),
//! * the `Expand` combination vs plain concatenation (§3.2.3),
//! * q-error vs MSE vs MAE training objective (§3.2.4),
//! * Median vs Mean vs TrimmedMean final function (§5.3.1).

use crate::experiments::common::{
    cardinality_ground_truth, containment_ground_truth, evaluate_cardinality_model,
    evaluate_containment_model,
};
use crate::harness::ExperimentContext;
use crate::report::ExperimentReport;
use crate::workloads::{cnt_test1, crd_test2};
use crn_core::{Cnt2Crd, Cnt2CrdConfig, CrnModel, CrnOptions, ExpandMode, FinalFunction, Pooling};
use crn_estimators::PostgresEstimator;
use crn_nn::{LossKind, TrainConfig};

/// Ablation: CRN architecture variants (pooling, expand function, training objective).
pub fn ablation_crn_architecture(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = cnt_test1(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(11),
    );
    let truth = containment_ground_truth(&ctx.db, &workload);
    let mut report = ExperimentReport::new(
        "ablation_crn",
        "Ablation — CRN design choices (pooling, Expand, training objective) on cnt_test1",
    )
    .with_qerror_headers();

    let variants: Vec<(&str, CrnOptions, LossKind)> = vec![
        (
            "paper (mean pool, Expand, q-error)",
            CrnOptions::default(),
            LossKind::QError,
        ),
        (
            "sum pooling",
            CrnOptions {
                pooling: Pooling::Sum,
                expand: ExpandMode::Full,
            },
            LossKind::QError,
        ),
        (
            "plain concatenation",
            CrnOptions {
                pooling: Pooling::Mean,
                expand: ExpandMode::Concat,
            },
            LossKind::QError,
        ),
        ("MSE objective", CrnOptions::default(), LossKind::Mse),
        ("MAE objective", CrnOptions::default(), LossKind::Mae),
    ];
    for (label, options, loss) in variants {
        let config = TrainConfig {
            loss,
            ..ctx.config.train.clone()
        };
        let mut model = CrnModel::with_options(&ctx.db, config, options);
        model.fit(&ctx.containment_training);
        let errors = evaluate_containment_model(&model, &workload, &truth);
        report.push_summary(label, &errors.summary());
    }
    report.push_note(
        "paper's claims: mean pooling, the Expand function and the q-error objective each help"
            .to_string(),
    );
    report
}

/// Ablation: the final function `F` of the queries-pool technique (§5.3.1).
pub fn ablation_final_function(ctx: &ExperimentContext) -> ExperimentReport {
    let workload = crd_test2(
        &ctx.db,
        &ctx.config.workloads,
        ctx.config.seed.wrapping_add(22),
    );
    let truth = cardinality_ground_truth(&ctx.db, &workload);
    let mut report = ExperimentReport::new(
        "ablation_final_fn",
        "Ablation — final function of the queries-pool technique on crd_test2",
    )
    .with_qerror_headers();
    for (label, final_function) in [
        ("Median", FinalFunction::Median),
        ("Mean", FinalFunction::Mean),
        ("Trimmed mean (25%)", FinalFunction::TrimmedMean(0.25)),
    ] {
        let estimator = Cnt2Crd::new(&ctx.crn, ctx.pool.clone())
            .with_config(Cnt2CrdConfig {
                final_function,
                ..Cnt2CrdConfig::default()
            })
            .with_fallback(Box::new(PostgresEstimator::from_stats(
                ctx.postgres.stats().clone(),
            )));
        let errors = evaluate_cardinality_model(&estimator, &workload, &truth);
        report.push_summary(label, &errors.summary());
    }
    report.push_note(
        "paper: all final functions are close; the median is the most robust (§5.3.1)".to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_context as ctx;

    #[test]
    fn final_function_ablation_has_three_rows() {
        let report = ablation_final_function(ctx());
        assert_eq!(report.rows.len(), 3);
    }

    #[test]
    fn architecture_ablation_covers_five_variants() {
        let report = ablation_crn_architecture(ctx());
        assert_eq!(report.rows.len(), 5);
    }
}
