//! The layer walk of the traced run: direct calls into each layer's public functions
//! over the probe queries, timed from outside.

use crate::fixture::{Fixture, SERVING_SHARDS, SERVING_THREADS};
use crate::report::Metrics;
use crate::stats::mean;
use crate::trace::BackendSpan;
use crn_cluster::wire::{self, EvalRequest, EvalResponse, Message, ShardLists};
use crn_core::{fold_entry_lists, Cnt2CrdConfig, ExpandMode, QueriesPool, ServeStats, ShardedPool};
use crn_estimators::PostgresEstimator;
use crn_nn::{Adam, Matrix, WorkerPool};
use crn_obs::Obs;
use crn_query::ast::Query;
use crn_serve::ComputeBackend;
use std::hint::black_box;
use std::time::Instant;

/// Anchors in the bucket the GEMM metrics are computed at.
const GEMM_ANCHORS: usize = 256;
/// Pairs per `fit_incremental` call (`train_step`'s batch).
pub const TRAIN_PAIRS_PER_STEP: usize = 128;

/// Mean µs per call of `call` over `items`.
fn mean_us<T>(items: &[T], mut call: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        call(item);
    }
    start.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
}

/// crn-core retrieval, featurization, inference, fold and write paths, crn-nn's head
/// GEMM, pool dispatch and training step — each through its public function, over the
/// probe and `pool` (the pool the workload serves from).
pub fn walk(fixture: &Fixture, pool: &QueriesPool, metrics: &mut Metrics) {
    let probe = &fixture.probe;
    let model = &fixture.model;

    // Featurization and retrieval.
    let featurizer = model.featurizer();
    metrics.insert(
        "core.featurize_us",
        mean_us(probe, |q| {
            black_box(featurizer.featurize(black_box(q)));
        }),
    );
    let sharded = ShardedPool::from_pool(pool, SERVING_SHARDS);
    let snapshot = sharded.snapshot();
    let mut anchors = 0usize;
    metrics.insert(
        "core.retrieve_full_us",
        mean_us(probe, |q| {
            anchors += black_box(snapshot.matching(q).count())
        }),
    );
    metrics.insert(
        "core.anchors_per_query",
        anchors as f64 / probe.len() as f64,
    );
    metrics.insert(
        "core.retrieve_topk32_us",
        mean_us(probe, |q| {
            black_box(snapshot.matching_top_k(q, 32));
        }),
    );

    // Unprepared containment inference: both directions for every matching anchor.
    let mut inferred = 0usize;
    let start = Instant::now();
    for query in probe {
        let matching: Vec<&Query> = snapshot.matching(query).map(|entry| &entry.query).collect();
        inferred += matching.len();
        black_box(model.predict_batch(&matching, query));
    }
    metrics.insert(
        "core.predict_batch_us_per_anchor",
        start.elapsed().as_secs_f64() * 1e6 / inferred.max(1) as f64,
    );

    // Fold, warm serve, and the write path, on a scratch service.
    let service = fixture.service(
        pool,
        SERVING_SHARDS,
        WorkerPool::new(SERVING_THREADS),
        &Obs::disabled(),
    );
    let lists = service.serve_entry_lists(probe);
    let config = Cnt2CrdConfig::default();
    let fallback = PostgresEstimator::analyze(&fixture.db);
    let start = Instant::now();
    const FOLDS: usize = 20;
    for _ in 0..FOLDS {
        let mut stats = ServeStats::default();
        black_box(fold_entry_lists(
            &config,
            Some(&fallback),
            &lists.per_query,
            probe,
            &mut stats,
        ));
    }
    metrics.insert(
        "core.fold_us",
        start.elapsed().as_secs_f64() * 1e6 / (FOLDS * probe.len()) as f64,
    );
    let one = |q: &Query| {
        black_box(service.serve(std::slice::from_ref(q)));
    };
    metrics.insert("core.warm_serve_us", mean_us(probe, one));
    let writes = &probe[..64];
    let mut upsert_us = Vec::with_capacity(writes.len());
    let mut post_write_us = Vec::with_capacity(writes.len());
    for (query, &truth) in writes.iter().zip(&fixture.probe_truth) {
        let start = Instant::now();
        service.pool().upsert(query.clone(), truth);
        upsert_us.push(start.elapsed().as_secs_f64() * 1e6);
        // The first serve of the written FROM group re-prepares that shard's anchors.
        let start = Instant::now();
        one(query);
        post_write_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    metrics.insert("core.upsert_us", mean(&upsert_us));
    metrics.insert("core.post_write_serve_us", mean(&post_write_us));
    let mut swap_us = Vec::new();
    for _ in 0..5 {
        let next = model.clone();
        let start = Instant::now();
        service.swap_model(next);
        swap_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    metrics.insert("core.swap_model_us", mean(&swap_us));

    // The first containment-head layer at a 256-anchor bucket: (256 × E) · (E × H).
    let hidden = model.hidden_size();
    let expanded = match model.options().expand {
        ExpandMode::Full => 4 * hidden,
        ExpandMode::Concat => 2 * hidden,
    };
    let a = Matrix::xavier_seeded(GEMM_ANCHORS, expanded, 1);
    let b = Matrix::xavier_seeded(expanded, hidden, 2);
    const GEMMS: usize = 200;
    let start = Instant::now();
    for _ in 0..GEMMS {
        black_box(black_box(&a).matmul(black_box(&b)));
    }
    let gemm_us = start.elapsed().as_secs_f64() * 1e6 / GEMMS as f64;
    // Computed from the shape, not measured: 2·m·k·n operations; A, B read and C written
    // once, 4 bytes each.
    let flop = 2.0 * (GEMM_ANCHORS * expanded * hidden) as f64;
    let bytes = 4.0 * (GEMM_ANCHORS * expanded + expanded * hidden + GEMM_ANCHORS * hidden) as f64;
    metrics.insert("nn.gemm_us", gemm_us);
    metrics.insert("nn.gemm_gflops", flop / gemm_us / 1e3);
    metrics.insert("nn.gemm_flop_per_call", flop);
    metrics.insert("nn.gemm_bytes_per_call", bytes);

    // A worker-pool round trip with nothing to do.
    let workers = WorkerPool::new(SERVING_THREADS);
    const DISPATCHES: usize = 2_000;
    let start = Instant::now();
    for _ in 0..DISPATCHES {
        black_box(workers.run_sharded(SERVING_THREADS, |shard| shard));
    }
    metrics.insert(
        "nn.pool_dispatch_us",
        start.elapsed().as_secs_f64() * 1e6 / DISPATCHES as f64,
    );

    // One training step per 128 pairs.
    let mut scratch = model.clone();
    let mut adam = Adam::new(scratch.config().learning_rate);
    const STEPS: usize = 10;
    let start = Instant::now();
    for step in 0..STEPS {
        let from = step * TRAIN_PAIRS_PER_STEP;
        black_box(scratch.fit_incremental(
            &fixture.train[from..from + TRAIN_PAIRS_PER_STEP],
            &mut adam,
            1,
        ));
    }
    metrics.insert(
        "nn.train_us_per_pair",
        start.elapsed().as_secs_f64() * 1e6 / (STEPS * TRAIN_PAIRS_PER_STEP) as f64,
    );
}

/// crn-core metrics of the backend spans recorded in `[from_ns, to_ns)`: time per call,
/// share of the wall the backend was busy, and the phase means of the `ServeStats` each
/// call returned.
pub fn backend_metrics(spans: &[BackendSpan], from_ns: u64, to_ns: u64, metrics: &mut Metrics) {
    let spans: Vec<&BackendSpan> = spans
        .iter()
        .filter(|span| span.start_ns >= from_ns && span.end_ns <= to_ns)
        .collect();
    if spans.is_empty() {
        return;
    }
    let calls = spans.len() as f64;
    let busy_us: f64 = spans.iter().map(|span| span.duration_us()).sum();
    let stat_us = |pick: fn(&ServeStats) -> std::time::Duration| {
        spans
            .iter()
            .map(|span| pick(&span.stats).as_secs_f64() * 1e6)
            .sum::<f64>()
            / calls
    };
    metrics.insert("core.serve_call_us", busy_us / calls);
    metrics.insert(
        "core.serve_busy_frac",
        busy_us * 1e3 / (to_ns - from_ns) as f64,
    );
    metrics.insert("core.snapshot_us", stat_us(|s| s.snapshot_time));
    metrics.insert("core.group_us", stat_us(|s| s.group_time));
    metrics.insert("core.compute_us", stat_us(|s| s.compute_time));
    metrics.insert("core.merge_us", stat_us(|s| s.merge_time));
    let work_items: usize = spans.iter().map(|span| span.stats.work_items).sum();
    let queries: usize = spans.iter().map(|span| span.stats.queries).sum();
    let fallbacks: usize = spans.iter().map(|span| span.stats.fallbacks).sum();
    metrics.insert("core.work_items_per_batch", work_items as f64 / calls);
    metrics.insert(
        "core.fallback_frac",
        fallbacks as f64 / queries.max(1) as f64,
    );
}

/// crn-cluster wire metrics over the run's own batches: the same batches through a
/// local two-shard service (the difference to the cluster's time per call is the wire +
/// scatter/gather cost), and `wire::encode` / `wire::decode_body` on the `Eval` message
/// each batch sends one worker and the `EvalResult` that worker's shard returns.
pub fn cluster_wire(
    fixture: &Fixture,
    batches: &[Vec<Query>],
    cluster_call_us: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    if batches.is_empty() {
        return Err("the traced cluster run recorded no batch".to_string());
    }
    let local = fixture.service(
        &fixture.base_pool,
        SERVING_SHARDS,
        WorkerPool::new(SERVING_THREADS),
        &Obs::disabled(),
    );
    for batch in batches {
        black_box(ComputeBackend::serve(&local, batch)); // fills the prepared anchors
    }
    let local_call_us = mean_us(batches, |batch| {
        black_box(ComputeBackend::serve(&local, batch));
    });
    metrics.insert("cluster.serve_call_us", cluster_call_us);
    metrics.insert("core.serve_call_us", local_call_us);
    metrics.insert("cluster.wire_overhead_us", cluster_call_us - local_call_us);

    // Worker 0 owns shard 0: its reply carries that shard's per-query entry lists.
    let shard0 = ShardedPool::from_pool(&fixture.base_pool, SERVING_SHARDS)
        .snapshot()
        .shard_pool(0);
    let worker = fixture.service(&shard0, 1, WorkerPool::new(1), &Obs::disabled());
    let mut frames = Vec::with_capacity(batches.len());
    let mut encode_us = 0.0;
    let wire_err = |e: wire::WireError| format!("wire: {e}");
    for batch in batches {
        let eval = Message::Eval(EvalRequest {
            model_version: 1,
            queries: batch.clone(),
        });
        let result = Message::EvalResult(EvalResponse {
            model_version: 1,
            shards: vec![ShardLists {
                index: 0,
                lists: worker.serve_entry_lists(batch).per_query,
            }],
        });
        let start = Instant::now();
        let eval_frame = wire::encode(&eval).map_err(wire_err)?;
        let result_frame = wire::encode(&result).map_err(wire_err)?;
        encode_us += start.elapsed().as_secs_f64() * 1e6;
        frames.push((eval_frame, result_frame));
    }
    let start = Instant::now();
    for (eval_frame, result_frame) in &frames {
        // A frame is a 4-byte length prefix, then the body `decode_body` takes.
        black_box(wire::decode_body(&eval_frame[4..]).map_err(wire_err)?);
        black_box(wire::decode_body(&result_frame[4..]).map_err(wire_err)?);
    }
    let decode_us = start.elapsed().as_secs_f64() * 1e6;
    let count = frames.len() as f64;
    metrics.insert("cluster.encode_us", encode_us / count);
    metrics.insert("cluster.decode_us", decode_us / count);
    metrics.insert(
        "cluster.eval_frame_bytes",
        frames.iter().map(|(e, _)| e.len()).sum::<usize>() as f64 / count,
    );
    metrics.insert(
        "cluster.result_frame_bytes",
        frames.iter().map(|(_, r)| r.len()).sum::<usize>() as f64 / count,
    );
    Ok(())
}
