//! Training-behaviour experiments (paper §3.4–3.5): Figure 3 (hidden-size sweep) and
//! Figure 4 (convergence of the validation q-error).

use crate::harness::ExperimentContext;
use crate::report::{format_number, ExperimentReport};
use crn_core::CrnModel;
use crn_nn::TrainConfig;

/// The hidden-layer sizes swept by the Figure 3 experiment, derived from the context's
/// configured hidden size `H`: `[H/4, H/2, H, 2H]` (the paper sweeps 64…2048 around its
/// chosen 512).
pub fn hidden_size_sweep(base: usize) -> Vec<usize> {
    let mut sizes = vec![(base / 4).max(4), (base / 2).max(8), base, base * 2];
    sizes.dedup();
    sizes
}

/// Figure 3 — mean validation q-error for different hidden layer sizes.
pub fn fig3_hidden_size(ctx: &ExperimentContext) -> ExperimentReport {
    let sizes = hidden_size_sweep(ctx.config.train.hidden_size);
    let mut report = ExperimentReport::new(
        "fig3",
        "Figure 3 — mean q-error on the validation set with different hidden layer sizes",
    )
    .with_headers(&["hidden size", "best validation mean q-error", "epochs run"]);
    for hidden in sizes {
        let config = TrainConfig {
            hidden_size: hidden,
            ..ctx.config.train.clone()
        };
        let mut model = CrnModel::new(&ctx.db, config);
        let history = model.fit(&ctx.containment_training);
        report.push_row(
            format!("H={hidden}"),
            vec![
                hidden.to_string(),
                format_number(history.best_validation),
                history.len().to_string(),
            ],
        );
    }
    report.push_note(
        "paper: accuracy improves with H up to a sweet spot (512), then over-fits; training time grows"
            .to_string(),
    );
    report
}

/// Figure 4 — convergence of the validation q-error across epochs, taken from the CRN training
/// history of the shared context.
pub fn fig4_convergence(ctx: &ExperimentContext) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig4",
        "Figure 4 — convergence of the mean q-error on the validation set",
    )
    .with_headers(&["epoch", "train loss", "validation mean q-error"]);
    for stats in &ctx.crn_history.epochs {
        report.push_row(
            format!("epoch {}", stats.epoch),
            vec![
                stats.epoch.to_string(),
                format_number(stats.train_loss),
                format_number(stats.validation_q_error),
            ],
        );
    }
    report.push_note(format!(
        "best epoch {} with validation mean q-error {}",
        ctx.crn_history.best_epoch,
        format_number(ctx.crn_history.best_validation)
    ));
    report.push_note(
        "paper: converges to a mean q-error of ~4.5 after ~120 epochs on the full corpus"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_context as ctx;

    #[test]
    fn sweep_sizes_are_increasing_and_nonempty() {
        let sizes = hidden_size_sweep(64);
        assert_eq!(sizes, vec![16, 32, 64, 128]);
        assert!(hidden_size_sweep(4).iter().all(|&s| s >= 4));
    }

    #[test]
    fn fig4_reports_every_trained_epoch() {
        let report = fig4_convergence(ctx());
        assert_eq!(report.rows.len(), ctx().crn_history.len());
        assert!(!report.notes.is_empty());
    }

    #[test]
    fn fig3_trains_one_model_per_hidden_size() {
        // Use a dedicated tiny context so this heavier test does not depend on ordering.
        let report = fig3_hidden_size(ctx());
        assert_eq!(
            report.rows.len(),
            hidden_size_sweep(ctx().config.train.hidden_size).len()
        );
    }
}
