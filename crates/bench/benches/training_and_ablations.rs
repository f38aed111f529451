//! Training-cost benchmarks (Figures 3 and 4) and the costs behind the `ablation_crn` /
//! `ablation_final_fn` experiments (`repro list`).
//!
//! * `fig3_hidden_size` — cost of one training epoch as a function of the hidden layer size
//!   (the paper's Figure 3 trades accuracy against exactly this cost).
//! * `fig4_training_epoch` — cost of one epoch at the default size (Figure 4's x-axis unit).
//! * `parallel_epoch_{crn,mscn}` — one epoch at H = 64 / batch = 128 swept over the
//!   data-parallel engine's worker-thread count (plus the deterministic mode), against the
//!   PR-1 single-thread batched baseline.
//! * `ablation_*` — forward-pass cost of the design variants (pooling, Expand, featurization)
//!   and of the final functions of the queries-pool technique.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use crn_bench::shared_context;
use crn_core::{
    Cnt2Crd, Cnt2CrdConfig, CrnFeaturizer, CrnModel, CrnOptions, ExpandMode, FinalFunction, Pooling,
};
use crn_estimators::{CardinalityEstimator, ContainmentEstimator, MscnFeaturizer, MscnModel};
use crn_eval::experiments::training::hidden_size_sweep;
use crn_nn::{ThreadPoolConfig, TrainConfig};

/// Figure 3 — training cost vs hidden layer size (one short fit per size).
fn bench_fig3_hidden_size(c: &mut Criterion) {
    let ctx = shared_context();
    let mut group = c.benchmark_group("fig3_hidden_size_training_cost");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    // A small slice of the training corpus keeps one iteration short while preserving the
    // relative cost across hidden sizes.
    let slice = &ctx.containment_training[..ctx.containment_training.len().min(60)];
    for hidden in hidden_size_sweep(ctx.config.train.hidden_size) {
        group.bench_with_input(
            BenchmarkId::from_parameter(hidden),
            &hidden,
            |b, &hidden| {
                b.iter(|| {
                    let config = TrainConfig {
                        hidden_size: hidden,
                        epochs: 1,
                        patience: None,
                        ..ctx.config.train.clone()
                    };
                    let mut model = CrnModel::new(&ctx.db, config);
                    black_box(model.fit(slice))
                })
            },
        );
    }
    group.finish();
}

/// Figure 4 — cost of a single training epoch at the default configuration.
fn bench_fig4_training_epoch(c: &mut Criterion) {
    let ctx = shared_context();
    let slice = &ctx.containment_training[..ctx.containment_training.len().min(80)];
    let mut group = c.benchmark_group("fig4_training_epoch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("crn_one_epoch", |b| {
        b.iter(|| {
            let config = TrainConfig {
                epochs: 1,
                patience: None,
                ..ctx.config.train.clone()
            };
            let mut model = CrnModel::new(&ctx.db, config);
            black_box(model.fit(slice))
        })
    });
    group.finish();
}

/// Data-parallel epoch engine — one CRN / MSCN training epoch at the paper's H = 64 /
/// batch = 128 shape, swept over the worker-thread count of `crn_nn::parallel`.
///
/// `threads_1` is exactly the PR-1 single-thread batched path (one shard per mini-batch);
/// the acceptance bar is ≥ 2.5× at `threads_4` over it.  `threads_4_det` measures the
/// deterministic mode (canonical 8-shard splitting + sequential reduction) at the same
/// worker count — the price of bit-identical results across thread counts.
fn bench_parallel_epoch_threads(c: &mut Criterion) {
    let ctx = shared_context();
    let sweep: [(&str, ThreadPoolConfig); 5] = [
        ("threads_1", ThreadPoolConfig::single_threaded()),
        ("threads_2", ThreadPoolConfig::with_threads(2)),
        ("threads_4", ThreadPoolConfig::with_threads(4)),
        ("threads_8", ThreadPoolConfig::with_threads(8)),
        ("threads_4_det", ThreadPoolConfig::deterministic(4)),
    ];

    let mut group = c.benchmark_group("parallel_epoch_crn");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5));
    for (label, parallel) in sweep {
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = TrainConfig {
                    hidden_size: 64,
                    batch_size: 128,
                    epochs: 1,
                    patience: None,
                    parallel,
                    ..ctx.config.train.clone()
                };
                let mut model = CrnModel::new(&ctx.db, config);
                black_box(model.fit(&ctx.containment_training))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("parallel_epoch_mscn");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5));
    for (label, parallel) in sweep {
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = TrainConfig {
                    hidden_size: 64,
                    batch_size: 128,
                    epochs: 1,
                    patience: None,
                    parallel,
                    ..ctx.config.train.clone()
                };
                let mut model = MscnModel::new(&ctx.db, config);
                black_box(model.fit(&ctx.cardinality_training))
            })
        });
    }
    group.finish();
}

/// Ablation — CRN prediction cost under the architecture variants (pooling / Expand).
fn bench_ablation_architecture(c: &mut Criterion) {
    let ctx = shared_context();
    let sample = &ctx.containment_training[0];
    let variants = [
        (
            "mean_pool_full_expand",
            CrnOptions {
                pooling: Pooling::Mean,
                expand: ExpandMode::Full,
            },
        ),
        (
            "sum_pool_full_expand",
            CrnOptions {
                pooling: Pooling::Sum,
                expand: ExpandMode::Full,
            },
        ),
        (
            "mean_pool_concat",
            CrnOptions {
                pooling: Pooling::Mean,
                expand: ExpandMode::Concat,
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation_crn_architecture_forward");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    for (name, options) in variants {
        let model = CrnModel::with_options(&ctx.db, ctx.config.train.clone(), options);
        group.bench_function(name, |b| {
            b.iter(|| black_box(model.estimate_containment(&sample.q1, &sample.q2)))
        });
    }
    group.finish();
}

/// Ablation — shared CRN featurization vs MSCN's per-set featurization.
fn bench_ablation_featurization(c: &mut Criterion) {
    let ctx = shared_context();
    let sample = &ctx.containment_training[0];
    let crn_featurizer = CrnFeaturizer::new(&ctx.db);
    let mscn_featurizer = MscnFeaturizer::new(&ctx.db);
    let mut group = c.benchmark_group("ablation_featurization");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("crn_shared_format_pair", |b| {
        b.iter(|| black_box(crn_featurizer.featurize_pair(&sample.q1, &sample.q2)))
    });
    group.bench_function("mscn_separate_sets_single", |b| {
        b.iter(|| black_box(mscn_featurizer.featurize(&sample.q1)))
    });
    group.finish();
}

/// Ablation — the final function of the queries-pool technique (§5.3.1).
fn bench_ablation_final_function(c: &mut Criterion) {
    let ctx = shared_context();
    let query = &ctx.containment_training[0].q1;
    let mut group = c.benchmark_group("ablation_final_function");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    for (name, final_function) in [
        ("median", FinalFunction::Median),
        ("mean", FinalFunction::Mean),
        ("trimmed_mean", FinalFunction::TrimmedMean(0.25)),
    ] {
        let estimator = Cnt2Crd::new(&ctx.crn, ctx.pool.clone()).with_config(Cnt2CrdConfig {
            final_function,
            ..Cnt2CrdConfig::default()
        });
        group.bench_function(name, |b| b.iter(|| black_box(estimator.estimate(query))));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fig3_hidden_size,
    bench_fig4_training_epoch,
    bench_parallel_epoch_threads,
    bench_ablation_architecture,
    bench_ablation_featurization,
    bench_ablation_final_function
);
criterion_main!(benches);
