//! The per-table / per-figure experiment runners.
//!
//! Every experiment is a function `fn(&ExperimentContext) -> ExperimentReport`; the
//! [`run_experiment`] dispatcher maps the experiment ids used by the `repro` binary and the
//! benches (`table3`, `fig13`, ...) to those functions.  [`ALL_EXPERIMENTS`] (printed by
//! `repro list`) is the full index of ids in paper order; each report's title names the paper
//! artifact it mirrors, and `crates/eval/tests/tiny_reproduction.md` holds every table as the
//! tiny preset reproduces it.

pub mod ablations;
pub mod advanced;
pub mod cardinality;
pub mod common;
pub mod containment;
pub mod timing;
pub mod training;

use crate::harness::ExperimentContext;
use crate::report::ExperimentReport;

/// All experiment ids, in the order they appear in the paper.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig3",
    "fig4",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "fig13",
    "table11",
    "table12",
    "table13",
    "table14",
    "table15",
    "ablation_crn",
    "ablation_final_fn",
];

/// Runs a single experiment by id.
///
/// Returns `None` for unknown ids.  Figure ids that share data with a table (`fig5`/`fig6`,
/// `fig9`–`fig11`, `fig12`) are aliases of the corresponding table experiment.
pub fn run_experiment(ctx: &ExperimentContext, id: &str) -> Option<ExperimentReport> {
    let report = match id {
        "fig3" => training::fig3_hidden_size(ctx),
        "fig4" => training::fig4_convergence(ctx),
        "table2" => containment::table2_workload_distribution(ctx),
        "table3" | "fig5" => containment::table3_cnt_test1(ctx),
        "table4" | "fig6" => containment::table4_cnt_test2(ctx),
        "table5" => cardinality::table5_workload_distribution(ctx),
        "table6" | "fig9" => cardinality::table6_crd_test1(ctx),
        "table7" | "fig10" => cardinality::table7_crd_test2(ctx),
        "table8" => cardinality::table8_many_joins(ctx),
        "table9" | "fig11" => cardinality::table9_per_join(ctx),
        "table10" | "fig12" => advanced::table10_scale(ctx),
        "fig13" => advanced::fig13_all_models(ctx),
        "table11" => advanced::table11_improved_postgres(ctx),
        "table12" => advanced::table12_improved_mscn(ctx),
        "table13" => advanced::table13_improved_vs_crn(ctx),
        "table14" => timing::table14_pool_sweep(ctx),
        "table15" => timing::table15_prediction_time(ctx),
        "ablation_crn" => ablations::ablation_crn_architecture(ctx),
        "ablation_final_fn" => ablations::ablation_final_function(ctx),
        _ => return None,
    };
    Some(report)
}

/// Runs every experiment in paper order.
pub fn run_all(ctx: &ExperimentContext) -> Vec<ExperimentReport> {
    ALL_EXPERIMENTS
        .iter()
        .filter_map(|id| run_experiment(ctx, id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_context as ctx;

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(run_experiment(ctx(), "table99").is_none());
        assert!(run_experiment(ctx(), "").is_none());
    }

    #[test]
    fn figure_aliases_resolve_to_table_experiments() {
        let table = run_experiment(ctx(), "table6").unwrap();
        let figure = run_experiment(ctx(), "fig9").unwrap();
        assert_eq!(table.id, figure.id);
    }
}
