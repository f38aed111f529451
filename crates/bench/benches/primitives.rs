//! Benchmarks of the substrate primitives the experiments are built on: exact execution,
//! containment-rate labelling, statistics collection and the neural-network kernels.
//!
//! These are not paper artifacts; they exist so that regressions in the substrates (which
//! dominate the wall-clock time of the full reproduction) are visible in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use crn_bench::shared_context;
use crn_core::{Cnt2Crd, CrnModel, QueriesPool};
use crn_db::imdb::{generate_imdb, ImdbConfig};
use crn_estimators::{ContainmentEstimator, DatabaseStats, MscnModel, StatsConfig};
use crn_exec::{Executor, TableSamples};
use crn_nn::{
    gemm_packed, Adam, Dense, Epilogue, Matrix, PackedWeights, ThreadPoolConfig, TrainConfig,
};
use crn_query::ast::Query;
use crn_query::generator::{GeneratorConfig, QueryGenerator};

/// Exact cardinality computation per join count (the ground-truth oracle cost).
fn bench_executor_cardinality(c: &mut Criterion) {
    let ctx = shared_context();
    let executor = Executor::new(&ctx.db);
    let mut generator = QueryGenerator::new(&ctx.db, GeneratorConfig::with_max_joins(7, 5));
    let mut group = c.benchmark_group("executor_cardinality_by_joins");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    for joins in [0usize, 2, 5] {
        let queries = generator.generate_initial_with_joins(10, joins);
        group.bench_with_input(BenchmarkId::from_parameter(joins), &queries, |b, qs| {
            b.iter(|| {
                for q in qs {
                    black_box(executor.cardinality(q));
                }
            })
        });
    }
    group.finish();
}

/// Containment-rate ground truth for one pair.
fn bench_containment_rate(c: &mut Criterion) {
    let ctx = shared_context();
    let executor = Executor::new(&ctx.db);
    let sample = &ctx.containment_training[0];
    let mut group = c.benchmark_group("executor_containment_rate");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("single_pair", |b| {
        b.iter(|| black_box(executor.containment_rate(&sample.q1, &sample.q2)))
    });
    group.finish();
}

/// Synthetic database generation and ANALYZE-style profiling.
fn bench_database_generation_and_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("database_generation_and_stats");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("generate_imdb_tiny", |b| {
        b.iter(|| black_box(generate_imdb(&ImdbConfig::tiny(1))))
    });
    let db = generate_imdb(&ImdbConfig::tiny(1));
    group.bench_function("collect_statistics", |b| {
        b.iter(|| black_box(DatabaseStats::collect(&db, &StatsConfig::default())))
    });
    group.bench_function("materialize_samples_64", |b| {
        b.iter(|| black_box(TableSamples::new(&db, 64, 3)))
    });
    group.finish();
}

/// Neural-network kernels: dense forward/backward and matrix multiplication.
fn bench_nn_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_kernels");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(2));
    let layer = Dense::new(128, 128, 1);
    let input = Matrix::xavier_seeded(8, 128, 2);
    group.bench_function("dense_forward_8x128x128", |b| {
        b.iter(|| black_box(layer.forward(&input)))
    });
    let a = Matrix::xavier_seeded(64, 128, 3);
    let bm = Matrix::xavier_seeded(128, 64, 4);
    group.bench_function("matmul_64x128x64", |b| b.iter(|| black_box(a.matmul(&bm))));
    let trainable = Dense::new(128, 64, 5);
    let grad = Matrix::xavier_seeded(8, 64, 6);
    let x = Matrix::xavier_seeded(8, 128, 7);
    let (mut grad_w, mut grad_b) = (Matrix::zeros(128, 64), Matrix::zeros(1, 64));
    group.bench_function("dense_backward_8x128x64", |b| {
        b.iter(|| black_box(trainable.backward(&x, &grad, &mut grad_w, &mut grad_b)))
    });

    // Dense vs sparsity-aware kernel on the three left-operand regimes the models produce —
    // the measurements behind the `matmul` / `matmul_sparse` routing (see `Matrix::matmul_sparse`).
    let dense_left = Matrix::xavier_seeded(128, 64, 8);
    let mut relu_left = Matrix::xavier_seeded(128, 64, 9);
    for v in relu_left.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let mut one_hot_left = Matrix::zeros(128, 64);
    for row in 0..128 {
        for j in 0..3 {
            one_hot_left.set(row, (row * 7 + j * 11) % 64, 1.0);
        }
    }
    let right = Matrix::xavier_seeded(64, 128, 10);
    for (name, left) in [
        ("dense", &dense_left),
        ("post_relu", &relu_left),
        ("one_hot", &one_hot_left),
    ] {
        group.bench_function(format!("matmul_branchfree_{name}_128x64x128"), |b| {
            b.iter(|| black_box(left.matmul(&right)))
        });
        group.bench_function(format!("matmul_sparse_{name}_128x64x128"), |b| {
            b.iter(|| black_box(left.matmul_sparse(&right)))
        });
    }

    // The containment head's first layer (`4H×2H` at `H = 128`) at the row counts serving
    // feeds it — 1 query × 1 anchor up to a fused group — through the strided entry point
    // (training's) and the prepacked one (inference's).
    let head = Matrix::xavier_seeded(512, 256, 11);
    let packed = PackedWeights::pack(&head);
    for m in [1usize, 4, 8, 9, 66, 124] {
        let rows = Matrix::xavier_seeded(m, 512, 12 + m as u64);
        group.bench_function(format!("head_gemm_{m}x512x256_strided"), |b| {
            b.iter(|| black_box(rows.matmul(&head)))
        });
        group.bench_function(format!("head_gemm_{m}x512x256_packed"), |b| {
            b.iter(|| {
                black_box(gemm_packed(
                    rows.data(),
                    m,
                    &packed,
                    0..512,
                    None,
                    Epilogue::None,
                ))
            })
        });
    }
    group.finish();
}

/// The sub-steps of one CRN training step at the benchmark fixture's operating point
/// (`H = 128`, 8 deterministic shards of 16 pairs on 2 threads), and the step itself.
fn bench_training_step(c: &mut Criterion) {
    let ctx = shared_context();
    let mut group = c.benchmark_group("training_step");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));

    // The optimizer pass over `out1.w` (512×256 = 131,072 elements): with live moments, and
    // with every first moment parked on the smallest subnormal under zero gradients — where
    // an optimizer that stores what it computes stays forever.
    let gradient = Matrix::xavier_seeded(512, 256, 21);
    let mut live = Matrix::xavier_seeded(512, 256, 22);
    let mut adam = Adam::default();
    group.bench_function("adam_step_131k_normal", |b| {
        b.iter(|| adam.step_with(vec![&mut live], std::slice::from_ref(&gradient)))
    });
    let zero_gradient = Matrix::zeros(512, 256);
    let mut stuck = Matrix::xavier_seeded(512, 256, 23);
    let mut adam = Adam {
        m: vec![Matrix::from_vec(
            512,
            256,
            vec![f32::from_bits(1); 512 * 256],
        )],
        v: vec![Matrix::zeros(512, 256)],
        ..Adam::default()
    };
    group.bench_function("adam_step_131k_stuck_subnormal_moments", |b| {
        b.iter(|| adam.step_with(vec![&mut stuck], std::slice::from_ref(&zero_gradient)))
    });

    // One shard's backward through `out1`: dL/dW and dL/db into the shard's accumulators,
    // dL/dx returned — against transposed panels repacked once per step
    // (`dense_panels_512x256`, shared by the step's 8 shards).
    let layer = Dense::new(512, 256, 24);
    let x = Matrix::xavier_seeded(16, 512, 25);
    let grad_y = Matrix::xavier_seeded(16, 256, 26);
    let mut transposed = PackedWeights::pack_transposed(&layer.w);
    let (mut grad_w, mut grad_b) = (Matrix::zeros(512, 256), Matrix::zeros(1, 256));
    group.bench_function("dense_backward_16x512x256", |b| {
        b.iter(|| {
            grad_w.fill_zero();
            grad_b.fill_zero();
            black_box(Dense::backward_into(
                &transposed,
                &x,
                &grad_y,
                &mut grad_w,
                &mut grad_b,
            ))
        })
    });
    group.bench_function("dense_panels_512x256", |b| {
        b.iter(|| transposed.repack_transposed(black_box(&layer.w)))
    });

    let mut model = CrnModel::new(
        &ctx.db,
        TrainConfig {
            hidden_size: 128,
            parallel: ThreadPoolConfig::deterministic(2),
            ..TrainConfig::default()
        },
    );
    let pairs = &ctx.containment_training[..128];
    let mut adam = Adam::default();
    group.bench_function("crn_train_step_128_h128", |b| {
        b.iter(|| black_box(model.fit_incremental(pairs, &mut adam, 1)))
    });
    group.finish();
}

/// Training epochs of both models through the one training loop (`crn_nn::train`): one
/// ragged-batch forward/backward per mini-batch shard, at the paper's H = 64 / batch = 128
/// operating point.
///
/// Each iteration runs a four-epoch `fit` so the timing reflects steady-state epoch cost
/// (featurization is done once per training run and amortizes over its epochs, exactly as in
/// real training); divide the printed times by four for per-epoch numbers.
fn bench_training_epochs(c: &mut Criterion) {
    let ctx = shared_context();
    let config = TrainConfig {
        hidden_size: 64,
        epochs: 4,
        batch_size: 128,
        patience: None,
        ..TrainConfig::default()
    };
    let mut group = c.benchmark_group("training_epochs_x4_h64_b128");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(10));
    group.bench_function("crn_batched", |b| {
        b.iter(|| {
            let mut model = CrnModel::new(&ctx.db, config.clone());
            black_box(model.fit(&ctx.containment_training))
        })
    });
    group.bench_function("mscn_batched", |b| {
        b.iter(|| {
            let mut model = MscnModel::new(&ctx.db, config.clone());
            black_box(model.fit(&ctx.cardinality_training))
        })
    });
    group.finish();
}

/// Batched vs sequential Cnt2Crd serving against a 256-anchor pool: two batched forwards per
/// incoming query versus the Figure-8 loop's 2·N single-pair forwards.
fn bench_cnt2crd_serving(c: &mut Criterion) {
    let ctx = shared_context();
    // Build a pool whose 256 anchors all share the probe query's FROM clause, so every anchor
    // participates in the estimate (the worst — and intended — serving case).
    let mut generator = QueryGenerator::new(&ctx.db, GeneratorConfig::with_max_joins(97, 0));
    let candidates = generator.generate_initial_with_joins(4000, 0);
    let probe = candidates[0].clone();
    let mut pool = QueriesPool::new();
    for query in candidates {
        if pool.len() >= 256 {
            break;
        }
        if query.tables() == probe.tables() {
            // Serving cost does not depend on the stored cardinality; skip executing.
            pool.insert(query, 100);
        }
    }
    assert!(
        pool.len() >= 128,
        "need a well-filled single-FROM pool, got {}",
        pool.len()
    );
    let anchor_count = pool.len();
    let estimator = Cnt2Crd::new(ctx.crn.clone(), pool);

    let mut group = c.benchmark_group("cnt2crd_estimate");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5));
    group.bench_function(BenchmarkId::new("batched", anchor_count), |b| {
        b.iter(|| black_box(estimator.per_entry_estimates(&probe)))
    });
    group.bench_function(BenchmarkId::new("sequential", anchor_count), |b| {
        b.iter(|| black_box(estimator.per_entry_estimates_sequential(&probe)))
    });
    // The model call under `batched`, alone: one query against the prepared anchors — its
    // own encoding plus two head passes resumed from the stored prefixes.
    let anchors: Vec<&Query> = estimator
        .pool()
        .matching(&probe)
        .map(|entry| &entry.query)
        .collect();
    let prepared = ctx.crn.prepare_anchors(&anchors).expect("anchors prepare");
    group.bench_function(BenchmarkId::new("prepared_group", anchor_count), |b| {
        b.iter(|| {
            black_box(
                ctx.crn
                    .predict_group(&anchors, &[&probe], Some(prepared.as_ref())),
            )
        })
    });
    group.finish();
}

/// CRN prediction latency (featurization + forward pass), the unit of §3.5.2.
fn bench_crn_prediction(c: &mut Criterion) {
    let ctx = shared_context();
    let sample = &ctx.containment_training[0];
    let mut group = c.benchmark_group("crn_prediction");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("predict_single_pair", |b| {
        b.iter(|| black_box(ctx.crn.predict(&sample.q1, &sample.q2)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_executor_cardinality,
    bench_containment_rate,
    bench_database_generation_and_stats,
    bench_nn_kernels,
    bench_crn_prediction,
    bench_training_step,
    bench_training_epochs,
    bench_cnt2crd_serving
);
criterion_main!(benches);
