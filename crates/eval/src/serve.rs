//! `repro serve` — drives the serving stack end to end, synchronously or async.
//!
//! Builds the shared experiment context (database, trained CRN, queries pool), wraps the
//! pool in a [`ShardedPool`] at the requested shard count and wires the model into an
//! [`EstimatorService`] backed by the persistent worker pool.  Two modes:
//!
//! * **Synchronous** (default): pushes a synthetic workload through `serve` in
//!   fixed-size batches — the PR-3 demo — printing per-batch [`ServeStats`] and an
//!   aggregate throughput line.
//! * **Async** (`--async`): stands up a [`ServeRuntime`] over the service and runs a
//!   *closed-loop multi-caller load generator*: `--callers` threads each submit their
//!   share of the workload one request at a time (submit → wait → next, retrying when
//!   admission sheds), exercising the bounded queue, the `--batch-window-us` cross-call
//!   batching window and the per-caller fairness quota; afterwards the maintenance lane
//!   is fed true cardinalities and flushed — the paper's pool-refresh loop live.
//!
//! In both modes the first batch is verified **bit-for-bit** against the sequential
//! single-query `Cnt2Crd` path over the same (flattened) pool; a violation returns an
//! `Err` so the `repro` binary exits non-zero and the CI smoke fails loudly.
//!
//! With `--bench-json <path>` the run additionally emits a machine-readable
//! `BENCH_serving.json` record (p50/p99 latency and throughput for the exact
//! configuration) so the serving perf trajectory is trackable across PRs.

use crate::harness::{ExperimentConfig, ExperimentContext};
use crate::metrics::QErrorSummary;
use crn_cluster::{ClusterClient, ClusterOptions};
use crn_core::{
    Cnt2Crd, Cnt2CrdConfig, CrnModel, EstimatorService, QueriesPool, ServeStats, ShardedPool,
};
use crn_estimators::{CardinalityEstimator, PostgresEstimator};
use crn_nn::parallel::WorkerPool;
use crn_online::{
    Checkpoint, CheckpointError, CheckpointSink, ExecLabeler, OnlineConfig, RefreshController,
    RefreshDecision, RefreshOutcome,
};
use crn_query::generator::{GeneratorConfig, QueryGenerator, ScaleGenerator, ScaleGeneratorConfig};
use crn_query::Query;
use crn_serve::{
    CheckpointWriter, ComputeBackend, FaultInjector, FaultPlan, FeedbackObserver, RuntimeConfig,
    ServeRuntime, SloClass, SupervisorPolicy,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one `repro serve` run.
#[derive(Debug, Clone)]
pub struct ServeDemoConfig {
    /// The experiment preset supplying the database, trained model and pool.
    pub experiment: ExperimentConfig,
    /// The preset's name, echoed into the bench JSON (`--preset`).
    pub preset_label: String,
    /// Pool shard count (`--shards`).
    pub shards: usize,
    /// Worker threads of the persistent pool (`--threads`).
    pub threads: usize,
    /// Total workload size (`--queries`).
    pub queries: usize,
    /// Synchronous mode: concurrent queries handed to `serve` per call (`--batch`).
    /// Async mode: the runtime's batch size threshold.
    pub batch: usize,
    /// Drive the async request-queue runtime instead of direct `serve` calls (`--async`).
    pub async_mode: bool,
    /// Async batching window in microseconds (`--batch-window-us`).
    pub batch_window_us: u64,
    /// Async bounded submission-queue depth (`--queue-depth`).
    pub queue_depth: usize,
    /// Closed-loop load-generator threads (`--callers`).
    pub callers: usize,
    /// Emit the machine-readable latency/throughput record here (`--bench-json`).
    pub bench_json: Option<String>,
    /// Drive the online model-refresh demo (`--online`): async serving plus a
    /// drifting-workload phase with feedback, drift detection, gated fine-tuning and
    /// hot-swap.
    pub online: bool,
    /// Feedback records between refresh checks in the online demo
    /// (`--refresh-interval`); 0 disables refresh entirely (pool maintenance still
    /// runs — the parity mode of the acceptance criterion).
    pub refresh_interval: usize,
    /// Fraction of the feedback stream held out as the validation gate's probe set
    /// (`--probe-frac`).
    pub probe_fraction: f64,
    /// Relative margin a refresh candidate must beat the live model by at the
    /// validation gate (`--gate-margin`, default 0 = strictly better).
    pub gate_margin: f64,
    /// Per-request deadline in µs for async submissions (`--deadline-us`); `None`
    /// disables deadlines (requests wait however long the queue takes).
    pub deadline_us: Option<u64>,
    /// Checkpoint directory (`--checkpoint-dir`): restored from on startup when it
    /// holds a committed checkpoint, written to on the maintenance cadence.
    pub checkpoint_dir: Option<String>,
    /// Applied maintenance records between checkpoint writes (`--checkpoint-every`);
    /// 0 disables cadence-driven checkpoints.
    pub checkpoint_every: u64,
    /// Per-lane restart budget inside the supervisor's window (`--restart-budget`);
    /// `None` keeps the default policy.
    pub restart_budget: Option<u32>,
    /// Deterministic fault plan (`--chaos`): either `crash-restore` (the kill-and-
    /// recover checkpoint demo) or a [`FaultPlan`] spec like
    /// `batch-panic:2,maint-kill,checkpoint-fail:every2`.
    pub chaos: Option<String>,
    /// Batch-class batching window in µs (`--class-window-us`); `None` keeps the
    /// runtime's default batch-class window, 0 makes the batch class inherit the base
    /// window.  Setting this (or `--class-weights`) switches the async demo to mixed
    /// traffic: odd-indexed callers register as `Batch`-class.
    pub class_window_us: Option<u64>,
    /// Weighted admission shares `interactive:batch` (`--class-weights A:B`); `None`
    /// disables weighting — every class may use the whole queue depth.
    pub class_weights: Option<(u32, u32)>,
    /// Cross-window estimate cache capacity in entries (`--cache-entries`); 0 disables
    /// the cache entirely.  With the cache on, the async demo drives the workload
    /// twice so the second pass measures the hit path.
    pub cache_entries: usize,
    /// Top-K anchor selection per FROM bucket (`--top-k`); 0 keeps the full-pool path,
    /// which is bit-identical to the pre-pool-tier serving semantics.
    pub top_k: usize,
    /// Total pool capacity (`--pool-cap`); 0 = unbounded.  With a bound, maintenance
    /// inserts past it evict the lowest-retention-weight anchors.
    pub pool_cap: usize,
    /// The estimator-quality parity budget of the pool-scale sweep
    /// (`--q-error-budget`): the top-K arm's median q-error may exceed the full-pool
    /// arm's by at most this factor, else the sweep errors out (non-zero exit).
    pub q_error_budget: f64,
    /// Pool sizes of the production-scale latency sweep (`--pool-scale a,b,...`);
    /// `None` runs the regular demo instead.
    pub pool_scale: Option<Vec<usize>>,
    /// Batch-class deadline in µs (`--batch-deadline-us`); `None` inherits
    /// `--deadline-us` for batch traffic too.
    pub batch_deadline_us: Option<u64>,
    /// Live metrics export: append one JSON snapshot line (plus journal events) to this
    /// path on every interval tick (`--metrics-jsonl`).
    pub metrics_jsonl: Option<String>,
    /// Export interval in milliseconds for `--metrics-jsonl` (`--metrics-interval-ms`).
    pub metrics_interval_ms: u64,
    /// Cross-process distributed serving (`--cluster N`): fork N worker processes, ship
    /// them the shard subsets and serve the workload through the scatter/gather
    /// coordinator instead of the in-process service.  0 keeps single-process serving.
    pub cluster: usize,
    /// Per-worker gather timeout in µs for cluster mode (`--worker-timeout-us`); a
    /// worker that misses it is declared lost and its queries degrade loudly.
    pub worker_timeout_us: u64,
    /// Applied maintenance records between pool compactions on the maintenance lane
    /// (`--compact-every`); 0 disables periodic compaction.
    pub compact_every: u64,
}

impl ServeDemoConfig {
    /// Defaults matching the tiny CI smoke: 4 shards, 2 threads, 64 queries in batches of
    /// 16; async mode off (flags switch it on) with a 200µs window, depth 32, 4 callers.
    pub fn new(experiment: ExperimentConfig) -> Self {
        ServeDemoConfig {
            experiment,
            preset_label: "tiny".to_string(),
            shards: 4,
            threads: 2,
            queries: 64,
            batch: 16,
            async_mode: false,
            batch_window_us: 200,
            queue_depth: 32,
            callers: 4,
            bench_json: None,
            online: false,
            refresh_interval: 16,
            probe_fraction: 0.25,
            gate_margin: 0.0,
            deadline_us: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            restart_budget: None,
            chaos: None,
            class_window_us: None,
            class_weights: None,
            cache_entries: 0,
            top_k: 0,
            pool_cap: 0,
            q_error_budget: 1.1,
            pool_scale: None,
            batch_deadline_us: None,
            metrics_jsonl: None,
            metrics_interval_ms: 50,
            cluster: 0,
            worker_timeout_us: 2_000_000,
            compact_every: 0,
        }
    }
}

/// One configuration's latency/throughput record inside [`BenchSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    /// `"sync"` or `"async"`.
    pub mode: String,
    /// The experiment preset.
    pub preset: String,
    /// Pool shard count.
    pub shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// Async queue depth (0 in sync mode).
    pub queue_depth: usize,
    /// Async batching window in µs (0 in sync mode).
    pub batch_window_us: u64,
    /// Concurrent callers (1 in sync mode: the driver thread).
    pub callers: usize,
    /// Queries served.
    pub queries: usize,
    /// Batches executed (serve calls in sync mode).
    pub batches: u64,
    /// Mean executed batch size — the cross-call fusion factor.
    pub mean_batch: f64,
    /// Admission rejections observed by the load generator (always 0 in sync mode).
    pub rejected: u64,
    /// Median latency in µs (per request in async mode, per serve call in sync mode).
    pub p50_us: f64,
    /// 99th-percentile latency in µs.
    pub p99_us: f64,
    /// Mean latency in µs.
    pub mean_us: f64,
    /// End-to-end served queries per second.
    pub throughput_qps: f64,
    /// Callers registered `Batch`-class (0 outside the mixed async mode).
    pub batch_callers: usize,
    /// The batch class's effective batching window in µs (0 in sync mode).
    pub class_window_us: u64,
    /// Median / 99th-percentile latency in µs over interactive-class requests only
    /// (0 when no interactive caller ran).
    pub interactive_p50_us: f64,
    /// See [`BenchRecord::interactive_p50_us`].
    pub interactive_p99_us: f64,
    /// Median / 99th-percentile latency in µs over batch-class requests only
    /// (0 when no batch caller ran).
    pub batch_p50_us: f64,
    /// See [`BenchRecord::batch_p50_us`].
    pub batch_p99_us: f64,
    /// Configured estimate-cache capacity (0 = cache off).
    pub cache_entries: usize,
    /// Estimate-cache hits / misses over the whole run (warmup included).
    pub cache_hits: u64,
    /// See [`BenchRecord::cache_hits`].
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when the cache never probed.
    pub cache_hit_rate: f64,
    /// Pool entries this configuration served from.
    pub pool_entries: usize,
    /// Top-K anchor selection in force (0 = full-pool path).
    pub top_k: usize,
    /// Mean number of anchors the serving core ran through the model per query
    /// (`ServeStats::anchors_scored` over the served queries) — recorded by the pool-scale
    /// sweep, whose gates compare it between arms and across sizes (0 in the regular
    /// demos).
    pub anchors_per_query: f64,
    /// Median q-error of the served estimates against executed truths — measured by
    /// the pool-scale sweep (0 in the regular demos, which gate on bit-parity with the
    /// sequential path instead).
    pub median_q_error: f64,
    /// Histogram-derived interactive-class p50 (µs): the driver's measured latencies
    /// replayed through a `crn-obs` log₂ histogram, cross-checked in-process against
    /// the sort-based `interactive_p50_us` to within one bucket.  0 outside async mode
    /// or when the class saw no traffic.
    pub hist_interactive_p50_us: u64,
    /// See [`BenchRecord::hist_interactive_p50_us`].
    pub hist_interactive_p99_us: u64,
    /// Histogram-derived batch-class p50 (µs); see
    /// [`BenchRecord::hist_interactive_p50_us`].
    pub hist_batch_p50_us: u64,
    /// See [`BenchRecord::hist_batch_p50_us`].
    pub hist_batch_p99_us: u64,
    /// Requests whose resolved ticket carried a recorded span.
    pub span_requests: usize,
    /// Mean per-request queue-wait segment (µs) over the recorded spans.
    pub span_queue_wait_us: f64,
    /// Mean batch-wait segment (µs): batch close → serve start, probe time excluded.
    pub span_batch_wait_us: f64,
    /// Mean cache-probe segment (µs); 0 with the cache off.
    pub span_cache_probe_us: f64,
    /// Mean shard-compute segment (µs) attributed from the service's phase stats.
    pub span_shard_compute_us: f64,
    /// Mean merge segment (µs) attributed from the service's phase stats.
    pub span_merge_us: f64,
    /// Worker processes of the cluster mode (0 = single-process serving).
    pub cluster_workers: usize,
    /// Queries answered by the coordinator-local degraded path (0 outside cluster
    /// mode; non-zero means a worker was lost or timed out mid-run).
    pub degraded_queries: u64,
}

/// The `BENCH_serving.json` shape: a schema tag plus one record per measured config.
#[derive(Debug, Clone, Serialize)]
pub struct BenchSummary {
    /// Format version tag for downstream tooling.
    pub schema: String,
    /// The measured configurations.
    pub configs: Vec<BenchRecord>,
}

/// Nearest-rank percentile over an unsorted latency sample (µs), 0 for an empty sample.
fn percentile_us(latencies: &mut [f64], fraction: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((latencies.len() - 1) as f64 * fraction).round() as usize;
    latencies[rank]
}

/// Runs the serve demo, returning the printed report (one line per batch plus the
/// summary) — or an `Err` describing the first bit-parity violation, which the `repro`
/// binary turns into a non-zero exit (the CI smoke's tripwire).
pub fn run_serve_demo(config: &ServeDemoConfig) -> Result<String, String> {
    let started = Instant::now();
    let ctx = ExperimentContext::build(config.experiment.clone());
    let mut lines = vec![format!(
        "[serve] context ready in {:.1}s: pool of {} entries over {} FROM clauses",
        started.elapsed().as_secs_f64(),
        ctx.pool.len(),
        ctx.pool.num_from_clauses()
    )];

    // The production-scale sweep replaces the regular demo outright: it builds its own
    // pools (one per requested size) and gates on estimator-quality parity and
    // sublinear latency growth instead of bit-parity with a single configuration.
    if let Some(sizes) = &config.pool_scale {
        let records = match run_pool_scale_sweep(config, &ctx, sizes, &mut lines) {
            Ok(records) => records,
            Err(violation) => {
                eprintln!("{}", lines.join("\n"));
                return Err(violation);
            }
        };
        if let Some(path) = &config.bench_json {
            let summary = BenchSummary {
                schema: "crn-serve-bench-v1".to_string(),
                configs: records,
            };
            let json =
                serde_json::to_string(&summary).map_err(|e| format!("bench json render: {e}"))?;
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            lines.push(format!("[serve] wrote pool-scale bench summary to {path}"));
        }
        return Ok(lines.join("\n"));
    }

    // Startup restore: with --checkpoint-dir pointing at a committed checkpoint, the
    // serving state (pool + model, optimizer moments included) comes from disk instead
    // of the freshly-built context — a restarted process resumes exactly where the
    // crashed one checkpointed.  A corrupt or version-skewed checkpoint fails loudly;
    // only a *missing* one falls back to the fresh context.
    let (model, base_pool) = match config.checkpoint_dir.as_deref() {
        Some(dir) => {
            let restore_started = Instant::now();
            match Checkpoint::load(dir) {
                Ok((checkpoint, manifest)) => {
                    lines.push(format!(
                        "[serve] restored checkpoint seq {} (model v{}, pool {} entries) \
                         from {dir} in {:.0}us",
                        manifest.sequence,
                        checkpoint.model_version,
                        checkpoint.pool.len(),
                        restore_started.elapsed().as_secs_f64() * 1e6,
                    ));
                    (checkpoint.model, checkpoint.pool)
                }
                Err(CheckpointError::Missing) => {
                    lines.push(format!(
                        "[serve] no committed checkpoint in {dir}; starting fresh"
                    ));
                    (ctx.crn.clone(), ctx.pool.clone())
                }
                Err(e) => return Err(format!("checkpoint restore from {dir} failed: {e}")),
            }
        }
        None => (ctx.crn.clone(), ctx.pool.clone()),
    };

    let mut sharded = ShardedPool::from_pool(&base_pool, config.shards);
    if config.pool_cap > 0 {
        sharded = sharded.with_capacity(config.pool_cap);
    }
    // One estimator config for BOTH the served and the sequential path: parity then
    // holds at any --top-k, because the two paths select the same ranked anchor set.
    let estimator_config = Cnt2CrdConfig {
        top_k: config.top_k,
        ..Cnt2CrdConfig::default()
    };
    let workers = WorkerPool::shared(config.threads.max(1));
    // The demo always runs with observability enabled (the hist/span fields in the
    // bench record come from it); the zero-overhead disabled path is pinned by the
    // serving-runtime tests and the obs-off criterion baseline instead.
    let obs = crn_obs::Obs::new(crn_obs::ObsConfig::enabled());
    let service = Arc::new(
        EstimatorService::new(model.clone(), sharded, workers)
            .with_config(estimator_config)
            .with_fallback(Box::new(PostgresEstimator::analyze(&ctx.db)))
            .with_obs(&obs),
    );

    // `generate_queries` expands each initial query with perturbed variants, so truncate to
    // the requested workload size exactly.
    let mut generator =
        QueryGenerator::new(&ctx.db, GeneratorConfig::paper(ctx.config.seed ^ 0x5e));
    let mut workload: Vec<Query> = generator.generate_queries(config.queries.max(1));
    workload.truncate(config.queries.max(1));

    let sequential = Cnt2Crd::new(model, base_pool)
        .with_config(estimator_config)
        .with_fallback(Box::new(PostgresEstimator::analyze(&ctx.db)));

    // Cluster mode replaces the in-process service with the scatter/gather coordinator
    // over forked worker processes, built from the sequential oracle's own model, pool and
    // configuration, so the startup parity tripwire spans process boundaries.
    if config.cluster > 0 {
        let record = match run_cluster_demo(config, &ctx, &sequential, &workload, &mut lines) {
            Ok(record) => record,
            Err(violation) => {
                eprintln!("{}", lines.join("\n"));
                return Err(violation);
            }
        };
        if let Some(path) = &config.bench_json {
            let summary = BenchSummary {
                schema: "crn-serve-bench-v1".to_string(),
                configs: vec![record],
            };
            let json =
                serde_json::to_string(&summary).map_err(|e| format!("bench json render: {e}"))?;
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            lines.push(format!("[serve] wrote cluster bench summary to {path}"));
        }
        return Ok(lines.join("\n"));
    }

    if let Some(plan) = &config.chaos {
        let summary = if plan.trim() == "crash-restore" {
            run_crash_restore_demo(config, &ctx, &workload, &mut lines)
        } else {
            run_chaos_demo(config, &ctx, &service, &obs, plan, &workload, &mut lines)
        };
        let summary = match summary {
            Ok(summary) => summary,
            Err(violation) => {
                eprintln!("{}", lines.join("\n"));
                return Err(violation);
            }
        };
        if let Some(path) = &config.bench_json {
            let json =
                serde_json::to_string(&summary).map_err(|e| format!("bench json render: {e}"))?;
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            lines.push(format!("[serve] wrote chaos bench summary to {path}"));
        }
        return Ok(lines.join("\n"));
    }

    if config.online {
        let summary = match run_online_demo(
            config,
            &ctx,
            &service,
            &obs,
            &sequential,
            &workload,
            &mut lines,
        ) {
            Ok(summary) => summary,
            Err(violation) => {
                // The report so far is the diagnostic context of the violation: emit it
                // on stderr so the CI log shows what led up to the non-zero exit.
                eprintln!("{}", lines.join("\n"));
                return Err(violation);
            }
        };
        if let Some(path) = &config.bench_json {
            let json =
                serde_json::to_string(&summary).map_err(|e| format!("bench json render: {e}"))?;
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            lines.push(format!("[serve] wrote online bench summary to {path}"));
        }
        return Ok(lines.join("\n"));
    }

    let record = if config.async_mode {
        run_async_demo(
            config,
            &ctx,
            &service,
            &obs,
            &sequential,
            &workload,
            &mut lines,
        )?
    } else {
        run_sync_demo(config, &service, &sequential, &workload, &mut lines)?
    };

    if let Some(path) = &config.bench_json {
        let summary = BenchSummary {
            schema: "crn-serve-bench-v1".to_string(),
            configs: vec![record],
        };
        let json =
            serde_json::to_string(&summary).map_err(|e| format!("bench json render: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        lines.push(format!("[serve] wrote bench summary to {path}"));
    }
    Ok(lines.join("\n"))
}

/// The startup parity tripwire shared by both modes: every estimate of the first batch
/// must be bit-identical to the sequential single-query path.
fn verify_parity(
    estimates: &[f64],
    queries: &[Query],
    sequential: &Cnt2Crd<crn_core::CrnModel>,
    mode: &str,
) -> Result<(), String> {
    for (index, (query, estimate)) in queries.iter().zip(estimates).enumerate() {
        let expected = sequential.estimate(query);
        if *estimate != expected {
            return Err(format!(
                "parity violation ({mode}) at query {index}: served {estimate} vs \
                 sequential {expected}"
            ));
        }
    }
    Ok(())
}

/// The synchronous demo: the whole workload in `batch`-sized `serve` calls.
fn run_sync_demo(
    config: &ServeDemoConfig,
    service: &EstimatorService<crn_core::CrnModel>,
    sequential: &Cnt2Crd<crn_core::CrnModel>,
    workload: &[Query],
    lines: &mut Vec<String>,
) -> Result<BenchRecord, String> {
    let first_batch = &workload[..workload.len().min(config.batch.max(1))];
    let response = service.serve(first_batch);
    verify_parity(&response.estimates, first_batch, sequential, "sync")?;
    lines.push(format!(
        "[serve] parity check passed: {} estimates bit-identical to the sequential path",
        first_batch.len()
    ));

    let mut total = ServeStats::default();
    let mut latencies_us: Vec<f64> = Vec::new();
    let run_started = Instant::now();
    for chunk in workload.chunks(config.batch.max(1)) {
        let call_started = Instant::now();
        let response = service.serve(chunk);
        latencies_us.push(call_started.elapsed().as_secs_f64() * 1e6);
        lines.push(format!("[serve] {}", response.stats.render()));
        total.accumulate(&response.stats);
    }
    let elapsed = run_started.elapsed();
    let batches = latencies_us.len() as u64;
    lines.push(format!(
        "[serve] served {} queries over {} shards x {} threads in {:.3}s ({:.0} queries/s); \
         {} pool hits, {} fallbacks; layer time: snapshot {:.1?} group {:.1?} compute {:.1?} \
         merge {:.1?}",
        total.queries,
        config.shards,
        config.threads,
        elapsed.as_secs_f64(),
        total.queries as f64 / elapsed.as_secs_f64().max(1e-9),
        total.pool_hits,
        total.fallbacks,
        total.snapshot_time,
        total.group_time,
        total.compute_time,
        total.merge_time,
    ));
    let mean_us = latencies_us.iter().sum::<f64>() / latencies_us.len().max(1) as f64;
    Ok(BenchRecord {
        mode: "sync".to_string(),
        preset: config.preset_label.clone(),
        shards: config.shards,
        threads: config.threads,
        queue_depth: 0,
        batch_window_us: 0,
        callers: 1,
        queries: total.queries,
        batches,
        mean_batch: total.queries as f64 / batches.max(1) as f64,
        rejected: 0,
        p50_us: percentile_us(&mut latencies_us, 0.50),
        p99_us: percentile_us(&mut latencies_us, 0.99),
        mean_us,
        throughput_qps: total.queries as f64 / elapsed.as_secs_f64().max(1e-9),
        batch_callers: 0,
        class_window_us: 0,
        interactive_p50_us: 0.0,
        interactive_p99_us: 0.0,
        batch_p50_us: 0.0,
        batch_p99_us: 0.0,
        cache_entries: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_hit_rate: 0.0,
        pool_entries: service.pool().len(),
        top_k: config.top_k,
        anchors_per_query: 0.0,
        median_q_error: 0.0,
        hist_interactive_p50_us: 0,
        hist_interactive_p99_us: 0,
        hist_batch_p50_us: 0,
        hist_batch_p99_us: 0,
        span_requests: 0,
        span_queue_wait_us: 0.0,
        span_batch_wait_us: 0.0,
        span_cache_probe_us: 0.0,
        span_shard_compute_us: 0.0,
        span_merge_us: 0.0,
        cluster_workers: 0,
        degraded_queries: 0,
    })
}

/// The cluster demo (`repro serve --cluster N`): forks N worker *processes* (this same
/// binary in `cluster-worker` mode), ships each its shard subset over the wire,
/// verifies the first scatter/gather batch **bit-for-bit** against the sequential
/// single-query path (the cross-process parity tripwire — a violation exits non-zero),
/// then drives the workload through a closed-loop [`ServeRuntime`] over the coordinator
/// and reports latency plus the degraded-query accounting.
fn run_cluster_demo(
    config: &ServeDemoConfig,
    ctx: &ExperimentContext,
    sequential: &Cnt2Crd<CrnModel>,
    workload: &[Query],
    lines: &mut Vec<String>,
) -> Result<BenchRecord, String> {
    use std::io::BufRead;

    let kill_fleet = |children: &mut Vec<std::process::Child>| {
        for child in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    };

    // Fork the fleet: each worker binds an ephemeral loopback port and announces it on
    // stdout as `CLUSTER_WORKER_PORT=<port>` before blocking in its serve loop.
    let workers = config.cluster;
    let exe = std::env::current_exe().map_err(|e| format!("cluster: current_exe: {e}"))?;
    let mut children: Vec<std::process::Child> = Vec::new();
    let mut addrs: Vec<std::net::SocketAddr> = Vec::new();
    let spawn_started = Instant::now();
    for worker in 0..workers {
        let mut child = std::process::Command::new(&exe)
            .arg("cluster-worker")
            .arg("--threads")
            .arg(config.threads.max(1).to_string())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cluster: fork worker {worker}: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        children.push(child);
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        let port = loop {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|e| format!("cluster: worker {worker} stdout: {e}"))?;
            if read == 0 {
                kill_fleet(&mut children);
                return Err(format!(
                    "cluster: worker {worker} exited before announcing its port"
                ));
            }
            if let Some(rest) = line.trim().strip_prefix("CLUSTER_WORKER_PORT=") {
                match rest.parse::<u16>() {
                    Ok(port) => break port,
                    Err(e) => {
                        kill_fleet(&mut children);
                        return Err(format!(
                            "cluster: worker {worker} announced a bad port {rest:?}: {e}"
                        ));
                    }
                }
            }
        };
        addrs.push(std::net::SocketAddr::from(([127, 0, 0, 1], port)));
    }
    lines.push(format!(
        "[serve] cluster: forked {workers} worker processes in {:.0}ms ({})",
        spawn_started.elapsed().as_secs_f64() * 1e3,
        addrs
            .iter()
            .map(|addr| addr.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    ));

    let options = ClusterOptions {
        config: *sequential.config(),
        worker_timeout: std::time::Duration::from_micros(config.worker_timeout_us.max(1)),
        ..ClusterOptions::default()
    };
    let (model, base_pool) = (sequential.model().clone(), sequential.pool());
    let client = match ClusterClient::connect(&addrs, model, base_pool, config.shards, options) {
        Ok(client) => client.with_fallback(Box::new(PostgresEstimator::analyze(&ctx.db))),
        Err(e) => {
            kill_fleet(&mut children);
            return Err(format!("cluster: connect failed: {e}"));
        }
    };

    // The startup parity tripwire, now spanning process boundaries: the first
    // scatter/gather batch must match the sequential single-query oracle bit-for-bit.
    let first_batch = &workload[..workload.len().min(config.batch.max(1))];
    let response = client.serve(first_batch);
    if !response.degraded.is_empty() {
        kill_fleet(&mut children);
        return Err(format!(
            "cluster: startup batch degraded queries {:?} — fleet unhealthy at launch",
            response.degraded
        ));
    }
    if let Err(violation) = verify_parity(&response.estimates, first_batch, sequential, "cluster") {
        kill_fleet(&mut children);
        return Err(violation);
    }
    lines.push(format!(
        "[serve] cluster parity check passed: {} scatter/gather estimates bit-identical \
         to the sequential path",
        first_batch.len()
    ));

    // The measured run: the same closed-loop load shape as the async demo, but the
    // runtime's backend is the cluster coordinator — every batch crosses the wire.
    let callers = config.callers.max(1);
    let client = Arc::new(client);
    let runtime = ServeRuntime::new(
        Arc::clone(&client),
        resilient_runtime_config(config, callers),
    );
    let run_started = Instant::now();
    let mut latencies_us: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let runtime = &runtime;
        let handles: Vec<_> = (0..callers)
            .map(|caller| {
                scope.spawn(move || {
                    let mut own = Vec::new();
                    for (index, query) in workload.iter().enumerate() {
                        if index % callers == caller {
                            let submitted = Instant::now();
                            let outcome = runtime
                                .submit_retrying(caller as u64, query)
                                .expect("the driver owns the runtime")
                                .wait();
                            if outcome.is_ok() {
                                own.push(submitted.elapsed().as_secs_f64() * 1e6);
                            }
                        }
                    }
                    own
                })
            })
            .collect();
        for handle in handles {
            latencies_us.extend(handle.join().expect("caller thread"));
        }
    });
    let elapsed = run_started.elapsed();

    // Maintenance-lane feedback: upserts are mirrored locally and forwarded to the
    // owning worker, and (with --compact-every) periodic compaction re-ships the
    // compacted shards — the cross-process pool-refresh loop live.
    let executor = crn_exec::Executor::new(&ctx.db);
    for query in workload.iter().take(workload.len().min(8)) {
        let cardinality = executor.cardinality(query);
        if runtime.record_feedback(query.clone(), cardinality).is_err() {
            break;
        }
    }
    runtime.flush();
    let runtime_stats = runtime.shutdown();

    let stats = client.stats();
    lines.push(format!(
        "[serve] cluster: {} coordinator batches over {} workers ({} up at shutdown); \
         {} degraded queries, {} worker losses, {} reconnects, {} upserts forwarded",
        stats.batches,
        stats.workers,
        stats.workers_up,
        stats.degraded_queries,
        stats.worker_losses,
        stats.reconnects,
        stats.upserts_forwarded,
    ));

    // Orderly teardown: Shutdown frames first, then reap; a worker that survived a
    // severed link cannot receive the frame, so reap with a bounded grace period.
    client.shutdown_workers();
    for (worker, mut child) in children.into_iter().enumerate() {
        let mut reaped = false;
        for _ in 0..250 {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        lines.push(format!(
                            "[serve] cluster: worker {worker} exited with {status}"
                        ));
                    }
                    reaped = true;
                    break;
                }
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(20)),
                Err(e) => {
                    lines.push(format!("[serve] cluster: worker {worker} wait failed: {e}"));
                    reaped = true;
                    break;
                }
            }
        }
        if !reaped {
            let _ = child.kill();
            let _ = child.wait();
            lines.push(format!(
                "[serve] cluster: worker {worker} missed the shutdown grace period; killed"
            ));
        }
    }

    let total_queries = latencies_us.len();
    let mean_us = latencies_us.iter().sum::<f64>() / latencies_us.len().max(1) as f64;
    Ok(BenchRecord {
        mode: "cluster".to_string(),
        preset: config.preset_label.clone(),
        shards: config.shards,
        threads: config.threads,
        queue_depth: config.queue_depth,
        batch_window_us: config.batch_window_us,
        callers,
        queries: total_queries,
        batches: runtime_stats.batches,
        mean_batch: if runtime_stats.batches == 0 {
            0.0
        } else {
            runtime_stats.completed as f64 / runtime_stats.batches as f64
        },
        rejected: runtime_stats.rejected_queue_full
            + runtime_stats.rejected_caller_quota
            + runtime_stats.rejected_class_share,
        p50_us: percentile_us(&mut latencies_us, 0.50),
        p99_us: percentile_us(&mut latencies_us, 0.99),
        mean_us,
        throughput_qps: total_queries as f64 / elapsed.as_secs_f64().max(1e-9),
        batch_callers: 0,
        class_window_us: 0,
        interactive_p50_us: 0.0,
        interactive_p99_us: 0.0,
        batch_p50_us: 0.0,
        batch_p99_us: 0.0,
        cache_entries: config.cache_entries,
        cache_hits: 0,
        cache_misses: 0,
        cache_hit_rate: 0.0,
        pool_entries: base_pool.len(),
        top_k: config.top_k,
        anchors_per_query: 0.0,
        median_q_error: 0.0,
        hist_interactive_p50_us: 0,
        hist_interactive_p99_us: 0,
        hist_batch_p50_us: 0,
        hist_batch_p99_us: 0,
        span_requests: 0,
        span_queue_wait_us: 0.0,
        span_batch_wait_us: 0.0,
        span_cache_probe_us: 0.0,
        span_shard_compute_us: 0.0,
        span_merge_us: 0.0,
        cluster_workers: workers,
        degraded_queries: stats.degraded_queries,
    })
}

/// Deterministically grows the context pool to `target` entries by cloning
/// predicate-bearing anchors with shifted literals and perturbed cardinalities — the
/// synthetic production-scale pool of the `--pool-scale` sweep.  Every variant keeps
/// its base's structure (FROM clause, joins, predicate shapes), so the workload
/// exercises the same FROM buckets at every size and bucket sizes grow proportionally
/// with the pool.
fn synthesize_pool(base: &QueriesPool, target: usize) -> Result<QueriesPool, String> {
    if base.len() >= target {
        return Ok(base.truncated(target));
    }
    let mut pool = base.clone();
    let perturbable: Vec<(Query, u64)> = base
        .entries()
        .iter()
        .filter(|e| !e.query.predicates().is_empty())
        .map(|e| (e.query.clone(), e.cardinality))
        .collect();
    if perturbable.is_empty() {
        return Err("pool-scale: the base pool has no predicate-bearing entries".to_string());
    }
    let mut variant = 0usize;
    // `insert` dedups, so a (rare) literal collision with a resident entry just skips a
    // variant; the attempt bound keeps a pathological base pool from spinning forever.
    let max_attempts = target.saturating_mul(2) + 1_000;
    while pool.len() < target {
        if variant > max_attempts {
            return Err(format!(
                "pool-scale: could not synthesize {target} entries ({} after {variant} \
                 attempts)",
                pool.len()
            ));
        }
        let (query, cardinality) = &perturbable[variant % perturbable.len()];
        let round = (variant / perturbable.len() + 1) as i64;
        let predicate = query.predicates()[0].clone();
        let shifted = crn_query::ast::Predicate::new(
            predicate.column.clone(),
            predicate.op,
            predicate.value.wrapping_add(round.wrapping_mul(7_919)),
        );
        pool.insert(
            query.with_replaced_predicate(0, shifted),
            cardinality + (variant % 31) as u64 + 1,
        );
        variant += 1;
    }
    Ok(pool)
}

/// The production-scale latency sweep (`repro serve --pool-scale a,b,...`): per
/// requested pool size, the whole workload is served query-at-a-time through two arms —
/// the full-pool path (`top_k = 0`, per-anchor model inference over entire FROM
/// buckets) and the top-K path (cheap featurization-space scoring selects the K most
/// similar anchors; only those reach the model) — recording per-query p50/p99 latency
/// curves, median q-errors and the mean number of anchors the model scored per query into
/// `BENCH_serving.json`.
///
/// Hard gates (each returns `Err`, so `repro` exits non-zero and CI fails loudly).  They
/// gate on the work the tier exists to bound — anchors scored per query, an exact count the
/// serving core takes where it calls the model (`ServeStats::anchors_scored`), so a serve
/// that ignored `top_k` or scanned the whole bucket would show — and not on the two arms' p50s, which are reported: one run's p50 of 64 single-query
/// serves moves ± 30 % on a shared host, and the comparison failed 3 runs in 8 on
/// unchanged code.
///
/// * **Estimator-quality parity budget**, per size: the top-K arm's median q-error must
///   not exceed the full arm's by more than `--q-error-budget`.
/// * **Sublinear growth**, with ≥ 2 sizes: the top-K arm's anchors per query may grow by
///   at most half the pool-size ratio between the smallest and largest size (the full
///   arm scores its whole FROM bucket, i.e. grows linearly with the pool).
/// * **Top-K wins at scale**: at the largest size the top-K arm must score fewer anchors
///   per query than the full arm.
fn run_pool_scale_sweep(
    config: &ServeDemoConfig,
    ctx: &ExperimentContext,
    sizes: &[usize],
    lines: &mut Vec<String>,
) -> Result<Vec<BenchRecord>, String> {
    if sizes.is_empty() {
        return Err("--pool-scale needs at least one size".to_string());
    }
    let top_k = if config.top_k > 0 { config.top_k } else { 32 };
    let workers = WorkerPool::shared(config.threads.max(1));
    let mut generator =
        QueryGenerator::new(&ctx.db, GeneratorConfig::paper(ctx.config.seed ^ 0x5e));
    let mut workload: Vec<Query> = generator.generate_queries(config.queries.max(1));
    workload.truncate(config.queries.max(1));
    let executor = crn_exec::Executor::new(&ctx.db);
    let truths: Vec<u64> = workload.iter().map(|q| executor.cardinality(q)).collect();
    lines.push(format!(
        "[serve] pool-scale sweep: sizes {:?}, top-K {top_k}, {} queries/arm, q-error \
         budget {:.2}x",
        sizes,
        workload.len(),
        config.q_error_budget,
    ));

    let mut records: Vec<BenchRecord> = Vec::new();
    // Per size: (pool entries, full-arm anchors per query, top-K-arm anchors per query).
    let mut curve: Vec<(usize, f64, f64)> = Vec::new();
    for &size in sizes {
        let pool = synthesize_pool(&ctx.pool, size)?;
        let mut arm_median = [0.0f64; 2];
        let mut arm_p50 = [0.0f64; 2];
        let mut arm_anchors = [0.0f64; 2];
        for (arm, k) in [(0usize, 0usize), (1, top_k)] {
            let service = EstimatorService::new(
                ctx.crn.clone(),
                ShardedPool::from_pool(&pool, config.shards),
                workers.clone(),
            )
            .with_config(Cnt2CrdConfig {
                top_k: k,
                ..Cnt2CrdConfig::default()
            })
            .with_fallback(Box::new(PostgresEstimator::analyze(&ctx.db)));
            // One warmup serve primes lazily-built state so the measured single-query
            // latencies below are steady-state retrieval + inference.
            let _ = service.serve(&workload[..1]);
            let mut latencies_us: Vec<f64> = Vec::with_capacity(workload.len());
            let mut estimates: Vec<f64> = Vec::with_capacity(workload.len());
            // What the serving core reports having run through the model
            // (`ServeStats::anchors_scored`) over the measured serves.
            let mut anchors_scored = 0usize;
            let run_started = Instant::now();
            for query in &workload {
                let serve_started = Instant::now();
                let response = service.serve(std::slice::from_ref(query));
                latencies_us.push(serve_started.elapsed().as_secs_f64() * 1e6);
                estimates.push(response.estimates[0]);
                anchors_scored += response.stats.anchors_scored;
            }
            let elapsed = run_started.elapsed();
            arm_anchors[arm] = anchors_scored as f64 / workload.len() as f64;
            let median = median_q_error(&estimates, &truths);
            let mean_us = latencies_us.iter().sum::<f64>() / latencies_us.len().max(1) as f64;
            let p50 = percentile_us(&mut latencies_us, 0.50);
            let p99 = percentile_us(&mut latencies_us, 0.99);
            arm_median[arm] = median;
            arm_p50[arm] = p50;
            records.push(BenchRecord {
                mode: if k == 0 {
                    "pool-scale-full".to_string()
                } else {
                    "pool-scale-topk".to_string()
                },
                preset: config.preset_label.clone(),
                shards: config.shards,
                threads: config.threads,
                queue_depth: 0,
                batch_window_us: 0,
                callers: 1,
                queries: workload.len(),
                batches: workload.len() as u64,
                mean_batch: 1.0,
                rejected: 0,
                p50_us: p50,
                p99_us: p99,
                mean_us,
                throughput_qps: workload.len() as f64 / elapsed.as_secs_f64().max(1e-9),
                batch_callers: 0,
                class_window_us: 0,
                interactive_p50_us: 0.0,
                interactive_p99_us: 0.0,
                batch_p50_us: 0.0,
                batch_p99_us: 0.0,
                cache_entries: 0,
                cache_hits: 0,
                cache_misses: 0,
                cache_hit_rate: 0.0,
                pool_entries: pool.len(),
                top_k: k,
                anchors_per_query: arm_anchors[arm],
                median_q_error: median,
                hist_interactive_p50_us: 0,
                hist_interactive_p99_us: 0,
                hist_batch_p50_us: 0,
                hist_batch_p99_us: 0,
                span_requests: 0,
                span_queue_wait_us: 0.0,
                span_batch_wait_us: 0.0,
                span_cache_probe_us: 0.0,
                span_shard_compute_us: 0.0,
                span_merge_us: 0.0,
                cluster_workers: 0,
                degraded_queries: 0,
            });
        }
        lines.push(format!(
            "[serve] pool {} entries: full {:.1} anchors/query, p50 {:.0}us (median q-error \
             {:.3}) vs top-{} {:.1} anchors/query, p50 {:.0}us (median q-error {:.3})",
            pool.len(),
            arm_anchors[0],
            arm_p50[0],
            arm_median[0],
            top_k,
            arm_anchors[1],
            arm_p50[1],
            arm_median[1],
        ));
        // The estimator-quality parity budget, per size.
        if arm_median[1] > arm_median[0] * config.q_error_budget {
            return Err(format!(
                "pool-scale quality violation at {} entries: top-{top_k} median q-error \
                 {:.3} exceeds the full-pool {:.3} by more than the {:.2}x budget",
                pool.len(),
                arm_median[1],
                arm_median[0],
                config.q_error_budget,
            ));
        }
        curve.push((pool.len(), arm_anchors[0], arm_anchors[1]));
    }

    if curve.len() >= 2 {
        let (first_size, _, first_topk) = curve[0];
        let (last_size, last_full, last_topk) = curve[curve.len() - 1];
        let size_ratio = last_size as f64 / first_size.max(1) as f64;
        let growth = last_topk / first_topk.max(1e-9);
        if growth > 0.5 * size_ratio {
            return Err(format!(
                "pool-scale work violation: top-{top_k} scored {growth:.2}x the anchors per \
                 query over a {size_ratio:.2}x pool-size ratio (bound: {:.2}x) — retrieval \
                 is not sublinear",
                0.5 * size_ratio,
            ));
        }
        if last_topk >= last_full {
            return Err(format!(
                "pool-scale work violation: top-{top_k} scores {last_topk:.1} anchors per \
                 query, not fewer than the full pool's {last_full:.1}, at {last_size} entries",
            ));
        }
        lines.push(format!(
            "[serve] pool-scale gates hold: top-{top_k} anchors/query grew {growth:.2}x over \
             a {size_ratio:.2}x size ratio (bound {:.2}x), {last_topk:.1} vs the full path's \
             {last_full:.1} at {last_size} entries",
            0.5 * size_ratio,
        ));
    }
    Ok(records)
}

/// The async demo: runtime + closed-loop multi-caller load generator + maintenance lane.
#[allow(clippy::too_many_arguments)]
fn run_async_demo(
    config: &ServeDemoConfig,
    ctx: &ExperimentContext,
    service: &Arc<EstimatorService<crn_core::CrnModel>>,
    obs: &crn_obs::Obs,
    sequential: &Cnt2Crd<crn_core::CrnModel>,
    workload: &[Query],
    lines: &mut Vec<String>,
) -> Result<BenchRecord, String> {
    let callers = config.callers.max(1);
    let runtime_config = resilient_runtime_config(config, callers).with_obs(obs.clone());
    let runtime = ServeRuntime::new(Arc::clone(service), runtime_config);
    attach_checkpoint_sink(config, service, &runtime, lines);
    let emitter = spawn_metrics_emitter(config, obs, lines)?;
    lines.push(format!(
        "[serve] async runtime up: window {}us, queue depth {}, per-caller quota {}, \
         batch max {}, deadline {}, restart budget {}/lane",
        config.batch_window_us,
        runtime.config().queue_depth,
        runtime.config().per_caller_depth,
        runtime.config().batch_max,
        match config.deadline_us {
            Some(us) => format!("{us}us"),
            None => "off".to_string(),
        },
        runtime.config().restart_policy.max_restarts,
    ));

    // Mixed SLO-class traffic: setting either class knob registers every odd-indexed
    // caller as `Batch`-class, so the run exercises per-class windows and (with
    // `--class-weights`) the weighted admission shares.
    let mixed = config.class_window_us.is_some() || config.class_weights.is_some();
    let batch_callers = if mixed { callers / 2 } else { 0 };
    if mixed {
        for caller in 0..callers {
            if caller % 2 == 1 {
                runtime.register_caller(caller as u64, SloClass::Batch);
            }
        }
        let class_window = runtime.config().class_window(SloClass::Batch);
        lines.push(format!(
            "[serve] SLO classes on: {} interactive + {} batch callers, batch-class \
             window {:.0}us, weights {}, cache {} entries",
            callers - batch_callers,
            batch_callers,
            class_window.as_secs_f64() * 1e6,
            match config.class_weights {
                Some((i, b)) => format!("{i}:{b}"),
                None => "off".to_string(),
            },
            config.cache_entries,
        ));
    }

    // Parity tripwire: the first batch goes through the *runtime* (so the whole
    // queue → scheduler → service path is on the hook), checked against the sequential
    // single-query semantics.  Closed-loop one at a time: the warmup then neither skews
    // `max_batch` nor the fusion stats of the measured run below.
    let first_batch = &workload[..workload.len().min(config.batch.max(1))];
    let estimates = serve_all(&runtime, 0, first_batch)?;
    verify_parity(&estimates, first_batch, sequential, "async")?;
    lines.push(format!(
        "[serve] parity check passed: {} async estimates bit-identical to the sequential \
         path",
        first_batch.len()
    ));

    // The measured run: closed-loop callers, per-request latencies bucketed by SLO
    // class.  With the cache on the workload runs twice, so the second pass measures
    // the hit path.  Every counter reported below deltas against this snapshot so the
    // parity warmup stays out of the measured figures.
    let passes = if config.cache_entries > 0 { 2 } else { 1 };
    let pre_load = runtime.stats();
    let run_started = Instant::now();
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut interactive_us: Vec<f64> = Vec::new();
    let mut batch_us: Vec<f64> = Vec::new();
    let mut spans: Vec<crn_obs::RequestTrace> = Vec::new();
    let mut queued_gauge = [0u64; SloClass::COUNT];
    // The driver's own view of the measured latencies, replayed through crn-obs log₂
    // histograms: same samples as the sort-based percentiles below, so the two must
    // agree to within one bucket (the cross-check at the end of this function).
    let driver_hists = [
        obs.hist("driver.latency_us.interactive"),
        obs.hist("driver.latency_us.batch"),
    ];
    std::thread::scope(|scope| {
        let runtime = &runtime;
        let handles: Vec<_> = (0..callers)
            .map(|caller| {
                scope.spawn(move || {
                    let mut own = Vec::new();
                    let mut own_spans = Vec::new();
                    for _pass in 0..passes {
                        for (index, query) in workload.iter().enumerate() {
                            if index % callers == caller {
                                let submitted = Instant::now();
                                let outcome = runtime
                                    .submit_retrying(caller as u64, query)
                                    .expect("the driver owns the runtime")
                                    .wait();
                                // Expired/failed tickets are visible in the runtime's
                                // own counters; only served requests fund the latency
                                // sample.
                                if let Ok(outcome) = outcome {
                                    own.push(submitted.elapsed().as_secs_f64() * 1e6);
                                    if let Some(trace) = outcome.trace {
                                        own_spans.push(trace);
                                    }
                                    debug_assert!(outcome.estimate >= 0.0);
                                }
                            }
                        }
                    }
                    (caller, own, own_spans)
                })
            })
            .collect();
        // A mid-load point-in-time sample of the per-class queue-depth gauge: the
        // closed-loop callers are in flight right now, so this observes live depths
        // (possibly 0 when the scheduler drains faster than submission).
        std::thread::sleep(std::time::Duration::from_micros(500));
        queued_gauge = runtime.stats().queued_by_class;
        for handle in handles {
            let (caller, own, own_spans) = handle.join().expect("caller thread");
            let class = if mixed && caller % 2 == 1 {
                SloClass::Batch
            } else {
                SloClass::Interactive
            };
            for &latency in &own {
                driver_hists[class.index()].record(latency as u64);
            }
            if class == SloClass::Batch {
                batch_us.extend(own.iter().copied());
            } else {
                interactive_us.extend(own.iter().copied());
            }
            latencies_us.extend(own);
            spans.extend(own_spans);
        }
    });
    let elapsed = run_started.elapsed();

    // Cache parity tripwire: with the cache warm, re-serving the warmup batch replays
    // from it — and must STILL be bit-identical to the sequential single-query path.
    // (Runs before the feedback phase: maintenance upserts move the pool version, which
    // by design would turn these replays back into recomputations.)
    if config.cache_entries > 0 {
        let replayed = serve_all(&runtime, 0, first_batch)?;
        verify_parity(&replayed, first_batch, sequential, "async-cache")?;
        lines.push(format!(
            "[serve] cache parity check passed: {} warm replays bit-identical to the \
             sequential path",
            first_batch.len()
        ));
    }

    // The maintenance lane: feed true cardinalities of the first few served queries back
    // into the pool (the §5.2 refresh loop) and wait for the upserts to land.
    let executor = crn_exec::Executor::new(&ctx.db);
    let feedback = workload.len().min(8);
    for query in workload.iter().take(feedback) {
        let cardinality = executor.cardinality(query);
        if runtime.record_feedback(query.clone(), cardinality).is_err() {
            break;
        }
    }
    runtime.flush();

    let class_window = runtime.config().class_window(SloClass::Batch);
    let base_window = runtime.config().batch_window;
    let stats = runtime.shutdown();
    let rejected =
        stats.rejected_queue_full + stats.rejected_caller_quota + stats.rejected_class_share
            - pre_load.rejected_queue_full
            - pre_load.rejected_caller_quota
            - pre_load.rejected_class_share;
    let load_completed = stats.completed - pre_load.completed;
    let load_batches = stats.batches - pre_load.batches;
    let load_mean_batch = if load_batches == 0 {
        0.0
    } else {
        load_completed as f64 / load_batches as f64
    };
    lines.push(format!(
        "[serve] async: {} completed in {} batches (mean {:.2}, max {}, {} coalesced) — \
         {} size-closed, {} window-closed, {} drain-closed; {} rejections absorbed by \
         retries; maintenance applied {} refreshes, {} failed (pool now {} entries)",
        load_completed,
        load_batches,
        load_mean_batch,
        stats.max_batch,
        stats.coalesced,
        stats.size_closes - pre_load.size_closes,
        stats.window_closes - pre_load.window_closes,
        stats.drain_closes - pre_load.drain_closes,
        rejected,
        stats.maintenance_applied,
        stats.maintenance_failed,
        service.pool().len(),
    ));
    lines.push(format!(
        "[serve] resilience: {} expired, {} failed, {} degraded, {} sync-served; \
         restarts scheduler {} maintenance {}{}{}; checkpoints {} written, {} failed",
        stats.expired,
        stats.failed,
        stats.degraded,
        stats.sync_served,
        stats.scheduler_restarts,
        stats.maintenance_restarts,
        if stats.degraded_sync_mode {
            " [DEGRADED-SYNC]"
        } else {
            ""
        },
        if stats.maintenance_down {
            " [MAINTENANCE DOWN]"
        } else {
            ""
        },
        stats.checkpoints_written,
        stats.checkpoints_failed,
    ));
    lines.push(format!(
        "[serve] aggregate (incl. parity warmup) {}",
        stats.serve.render()
    ));
    // The complete counter audit: every RuntimeStats scalar, printed from the same
    // enumeration the field-coverage test pins — a counter added to the struct without
    // extending `counter_fields` fails that test, so this line can never silently lag.
    lines.push(format!(
        "[serve] runtime counters: {}",
        stats
            .counter_fields()
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let total_queries = latencies_us.len();
    let mean_us = latencies_us.iter().sum::<f64>() / total_queries.max(1) as f64;
    let p50 = percentile_us(&mut latencies_us, 0.50);
    let p99 = percentile_us(&mut latencies_us, 0.99);
    lines.push(format!(
        "[serve] served {} queries via {} callers in {:.3}s ({:.0} queries/s); latency \
         p50 {:.0}us p99 {:.0}us mean {:.0}us; mid-load queue gauge interactive {} \
         batch {}",
        total_queries,
        callers,
        elapsed.as_secs_f64(),
        total_queries as f64 / elapsed.as_secs_f64().max(1e-9),
        p50,
        p99,
        mean_us,
        queued_gauge[SloClass::Interactive.index()],
        queued_gauge[SloClass::Batch.index()],
    ));

    let interactive_p50 = percentile_us(&mut interactive_us, 0.50);
    let interactive_p99 = percentile_us(&mut interactive_us, 0.99);
    let batch_p50 = percentile_us(&mut batch_us, 0.50);
    let batch_p99 = percentile_us(&mut batch_us, 0.99);
    if mixed {
        lines.push(format!(
            "[serve] per-class latency: interactive p50 {:.0}us p99 {:.0}us ({} \
             requests), batch p50 {:.0}us p99 {:.0}us ({} requests); {} class-share \
             rejections absorbed",
            interactive_p50,
            interactive_p99,
            interactive_us.len(),
            batch_p50,
            batch_p99,
            batch_us.len(),
            stats.rejected_class_share - pre_load.rejected_class_share,
        ));
        // The SLO tripwire: when the batch class genuinely batches longer than the
        // interactive window, interactive tail latency must sit strictly below batch
        // tail latency — otherwise the classes aren't isolating and the smoke fails.
        if class_window > base_window && !interactive_us.is_empty() && !batch_us.is_empty() {
            if interactive_p99 >= batch_p99 {
                return Err(format!(
                    "SLO violation: interactive p99 {interactive_p99:.0}us is not \
                     strictly below batch p99 {batch_p99:.0}us despite a {:.0}us \
                     batch-class window",
                    class_window.as_secs_f64() * 1e6
                ));
            }
            lines.push(format!(
                "[serve] SLO holds: interactive p99 {interactive_p99:.0}us < batch \
                 p99 {batch_p99:.0}us"
            ));
        }
    }
    if config.cache_entries > 0 {
        lines.push(format!(
            "[serve] estimate cache: {} hits / {} misses ({:.1}% hit rate), {} \
             insertions, {} evictions over {} entries",
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_hit_rate() * 100.0,
            stats.cache_insertions,
            stats.cache_evictions,
            config.cache_entries,
        ));
    }

    // Histogram-vs-sort cross-check over the identical driver samples, per class.
    if !interactive_us.is_empty() {
        lines.push(check_hist_vs_sort(
            "driver.latency_us.interactive",
            &driver_hists[SloClass::Interactive.index()],
            interactive_p50,
            interactive_p99,
            interactive_us.len(),
        )?);
    }
    if !batch_us.is_empty() {
        lines.push(check_hist_vs_sort(
            "driver.latency_us.batch",
            &driver_hists[SloClass::Batch.index()],
            batch_p50,
            batch_p99,
            batch_us.len(),
        )?);
    }

    // Per-request phase breakdown: mean of each span segment over every resolved
    // request that carried a trace (computed and cache-hit paths both do).
    let span_requests = spans.len();
    let span_mean = |segment: fn(&crn_obs::RequestTrace) -> u64| {
        spans.iter().map(|trace| segment(trace) as f64).sum::<f64>() / span_requests.max(1) as f64
    };
    let span_queue_wait_us = span_mean(|t| t.queue_wait_us);
    let span_batch_wait_us = span_mean(|t| t.batch_wait_us);
    let span_cache_probe_us = span_mean(|t| t.cache_probe_us);
    let span_shard_compute_us = span_mean(|t| t.shard_compute_us);
    let span_merge_us = span_mean(|t| t.merge_us);
    lines.push(format!(
        "[serve] span breakdown over {span_requests} requests (mean µs): queue-wait \
         {span_queue_wait_us:.0}, batch-wait {span_batch_wait_us:.0}, cache-probe \
         {span_cache_probe_us:.0}, shard-compute {span_shard_compute_us:.0}, merge \
         {span_merge_us:.0}"
    ));
    finish_metrics(emitter, obs, lines);

    Ok(BenchRecord {
        mode: "async".to_string(),
        preset: config.preset_label.clone(),
        shards: config.shards,
        threads: config.threads,
        queue_depth: config.queue_depth,
        batch_window_us: config.batch_window_us,
        callers,
        queries: total_queries,
        batches: load_batches,
        mean_batch: load_mean_batch,
        rejected,
        p50_us: p50,
        p99_us: p99,
        mean_us,
        throughput_qps: total_queries as f64 / elapsed.as_secs_f64().max(1e-9),
        batch_callers,
        class_window_us: if mixed {
            (class_window.as_secs_f64() * 1e6).round() as u64
        } else {
            0
        },
        interactive_p50_us: interactive_p50,
        interactive_p99_us: interactive_p99,
        batch_p50_us: batch_p50,
        batch_p99_us: batch_p99,
        cache_entries: config.cache_entries,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_hit_rate: stats.cache_hit_rate(),
        pool_entries: service.pool().len(),
        top_k: config.top_k,
        anchors_per_query: 0.0,
        median_q_error: 0.0,
        hist_interactive_p50_us: driver_hists[SloClass::Interactive.index()].quantile(0.50),
        hist_interactive_p99_us: driver_hists[SloClass::Interactive.index()].quantile(0.99),
        hist_batch_p50_us: driver_hists[SloClass::Batch.index()].quantile(0.50),
        hist_batch_p99_us: driver_hists[SloClass::Batch.index()].quantile(0.99),
        span_requests,
        span_queue_wait_us,
        span_batch_wait_us,
        span_cache_probe_us,
        span_shard_compute_us,
        span_merge_us,
        cluster_workers: 0,
        degraded_queries: 0,
    })
}

/// The `BENCH_online.json` shape: everything the online-refresh demo measured.
#[derive(Debug, Clone, Serialize)]
pub struct OnlineBenchSummary {
    /// Format version tag for downstream tooling.
    pub schema: String,
    /// The experiment preset.
    pub preset: String,
    /// Pool shard count.
    pub shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// Feedback records between refresh checks (0 = refresh disabled).
    pub refresh_interval: usize,
    /// Held-out probe fraction of the feedback stream.
    pub probe_frac: f64,
    /// Baseline-segment queries served (the distribution the model trained on).
    pub baseline_queries: usize,
    /// Median q-error on the baseline segment.
    pub baseline_median: f64,
    /// Shifted-segment evaluation queries (held out of all feedback).
    pub shifted_eval_queries: usize,
    /// Median q-error of the frozen model on the shifted eval segment over the
    /// *original* pool (pure staleness, before any feedback).
    pub shifted_frozen_median: f64,
    /// Median q-error of the frozen model on the shifted eval segment over the *final*
    /// (maintenance-refreshed) pool — isolates what pool refresh alone bought.
    pub shifted_frozen_final_median: f64,
    /// Median q-error of the live (possibly hot-swapped) model on the shifted eval
    /// segment over the final pool — the model refresh's contribution on top.
    pub shifted_refreshed_median: f64,
    /// Feedback records fed through the maintenance lane.
    pub feedback_records: usize,
    /// Refresh cycles started / applied / gate-rejected / without training pairs.
    pub refreshes_attempted: u64,
    /// See [`OnlineBenchSummary::refreshes_attempted`].
    pub refreshes_applied: u64,
    /// See [`OnlineBenchSummary::refreshes_attempted`].
    pub refreshes_rejected: u64,
    /// See [`OnlineBenchSummary::refreshes_attempted`].
    pub refreshes_without_pairs: u64,
    /// The served model version at the end of the run (1 = never swapped).
    pub model_version: u64,
    /// Maintenance-lane upserts applied / failed over the whole run.
    pub maintenance_applied: u64,
    /// See [`OnlineBenchSummary::maintenance_applied`].
    pub maintenance_failed: u64,
    /// Duplicate in-window requests coalesced by the runtime.
    pub coalesced: u64,
}

/// Serves `queries` through the runtime closed-loop on one caller, returning the
/// estimates in query order.
fn serve_all<B: ComputeBackend + Send + Sync + 'static>(
    runtime: &ServeRuntime<B>,
    caller: u64,
    queries: &[Query],
) -> Result<Vec<f64>, String> {
    queries
        .iter()
        .map(|query| {
            let ticket = runtime
                .submit_retrying(caller, query)
                .map_err(|e| format!("submission failed: {e}"))?;
            ticket
                .wait()
                .map(|outcome| outcome.estimate)
                .map_err(|e| format!("ticket unresolved: {e}"))
        })
        .collect()
}

/// Median q-error of `(estimate, truth)` pairs (nearest-rank p50, cardinality floor 1).
fn median_q_error(estimates: &[f64], truths: &[u64]) -> f64 {
    let pairs: Vec<(f64, f64)> = estimates
        .iter()
        .zip(truths)
        .map(|(&e, &t)| (e, t as f64))
        .collect();
    QErrorSummary::from_pairs(&pairs, crate::metrics::CARDINALITY_FLOOR).p50
}

/// The online model-refresh demo (`repro serve --online`): a drifting-workload run over
/// the full subsystem — async serving, maintenance-lane feedback, drift detection,
/// gated warm-start fine-tuning and validated hot-swap — reporting median q-errors
/// before/after refresh on the shifted segment.
///
/// Phases:
///
/// 1. **Parity tripwire** — the first batch through the runtime must be bit-identical
///    to the sequential path (same as `--async`; with refresh disabled the whole run
///    stays on model version 1, so `--online` serving is bit-identical to `--async`).
/// 2. **Baseline segment** — the training-distribution workload; its median q-error
///    calibrates the drift threshold.
/// 3. **Shift** — traffic switches to the MSCN-style scale generator (equality-biased
///    predicates, literals from actual rows — a distribution the model never saw).  A
///    held-out eval slice measures the frozen model's staleness; the rest flows back as
///    `(query, true cardinality, estimate)` feedback, and every `--refresh-interval`
///    records the controller gets a refresh opportunity.
/// 4. **Verdict** — the same eval slice re-served after the refreshes, plus a
///    frozen-model evaluation over the *final* pool so the model refresh's contribution
///    is separated from what pool maintenance alone bought.  Any violated gate
///    invariant, an applied refresh that fails to beat the frozen model on the shifted
///    segment, or a swap with refresh disabled returns `Err` — `repro` exits non-zero
///    and the CI smoke fails loudly.
#[allow(clippy::too_many_arguments)]
fn run_online_demo(
    config: &ServeDemoConfig,
    ctx: &ExperimentContext,
    service: &Arc<EstimatorService<CrnModel>>,
    obs: &crn_obs::Obs,
    sequential: &Cnt2Crd<CrnModel>,
    workload: &[Query],
    lines: &mut Vec<String>,
) -> Result<OnlineBenchSummary, String> {
    let runtime_config = RuntimeConfig::default()
        .with_window_us(config.batch_window_us)
        .with_queue_depth(config.queue_depth.max(1))
        .with_batch_max(config.batch.max(1))
        .with_obs(obs.clone());
    let runtime = ServeRuntime::new(Arc::clone(service), runtime_config);
    let emitter = spawn_metrics_emitter(config, obs, lines)?;
    let refresh_enabled = config.refresh_interval > 0;
    lines.push(format!(
        "[serve] online runtime up: refresh {} (interval {}), probe fraction {:.2}",
        if refresh_enabled { "ON" } else { "OFF" },
        config.refresh_interval,
        config.probe_fraction,
    ));

    // Phase 1 — the parity tripwire (identical to --async: the queue → scheduler →
    // service path on the hook against sequential serving).
    let first_batch = &workload[..workload.len().min(config.batch.max(1))];
    let estimates = serve_all(&runtime, 0, first_batch)?;
    verify_parity(&estimates, first_batch, sequential, "online")?;
    lines.push(format!(
        "[serve] parity check passed: {} online estimates bit-identical to the \
         sequential path",
        first_batch.len()
    ));

    // Phase 2 — baseline segment: the distribution the model trained on.
    let executor = crn_exec::Executor::new(&ctx.db);
    let baseline_estimates = serve_all(&runtime, 0, workload)?;
    let baseline_truths: Vec<u64> = workload.iter().map(|q| executor.cardinality(q)).collect();
    let baseline_median = median_q_error(&baseline_estimates, &baseline_truths);
    lines.push(format!(
        "[serve] baseline segment: {} queries, median q-error {:.3}",
        workload.len(),
        baseline_median,
    ));

    // The controller, with its drift threshold calibrated off the healthy segment.
    let drift_threshold = (baseline_median * 1.3).max(2.0);
    let online_config = OnlineConfig {
        drift_threshold,
        drift_window: 32,
        min_observations: 12,
        // Well-fed cycles over trigger-happy ones: a fine-tune on a dozen records with
        // a 4-record probe gate is noise on both sides of the gate.
        min_fresh: 24,
        probe_fraction: config.probe_fraction,
        min_probe: 6,
        fine_tune_epochs: 8,
        seed: ctx.config.seed,
        gate_margin: config.gate_margin,
        ..OnlineConfig::default()
    };
    let controller = Arc::new(
        RefreshController::new(
            Arc::clone(service),
            Box::new(ExecLabeler::new(
                Arc::new(ctx.db.clone()),
                config.threads.max(1),
            )),
            online_config,
        )
        .with_obs(obs),
    );
    runtime.set_feedback_observer(Arc::clone(&controller) as Arc<dyn FeedbackObserver>);

    // Phase 3 — the shift: scale-generator traffic (equality-biased, actual-row
    // literals, no perturbation clusters), filtered to pool-covered FROM clauses.  A
    // held-out eval slice never enters any feedback; the rest is the feedback stream.
    let eval_size = (config.queries / 4).clamp(8, 64);
    let feedback_size = config.queries.max(eval_size * 2);
    let mut generator = ScaleGenerator::new(
        &ctx.db,
        ScaleGeneratorConfig {
            seed: ctx.config.seed ^ 0xd41f,
            max_joins: ctx.config.pool_max_joins.min(2),
            eq_bias: 0.7,
        },
    );
    // Keep only pool-covered queries with a non-trivial true cardinality: equality-
    // biased predicates often select ~0 rows, where the q-error floor makes every
    // estimator look perfect and the segment medians stop discriminating.  The
    // cardinalities computed here ARE the segment's ground truth — cached alongside
    // each query so the expensive executions are never repeated.
    let shifted: Vec<(Query, u64)> = generator
        .generate((eval_size + feedback_size) * 8)
        .into_iter()
        .filter(|q| ctx.pool.matching(q).next().is_some())
        .filter_map(|q| {
            let cardinality = executor.cardinality(&q);
            (cardinality >= 4).then_some((q, cardinality))
        })
        .take(eval_size + feedback_size)
        .collect();
    if shifted.len() < eval_size + 8 {
        return Err(format!(
            "shifted workload too small: {} pool-covered queries",
            shifted.len()
        ));
    }
    let (eval_pairs, feedback_slice) = shifted.split_at(eval_size.min(shifted.len() / 3));
    let eval_slice: Vec<Query> = eval_pairs.iter().map(|(q, _)| q.clone()).collect();
    let eval_truths: Vec<u64> = eval_pairs.iter().map(|(_, c)| *c).collect();
    let eval_slice = &eval_slice[..];

    // Frozen-model staleness on the shifted eval slice, over the original pool.
    let frozen_model = (*service.model()).clone();
    let pre_estimates = serve_all(&runtime, 1, eval_slice)?;
    let shifted_frozen_median = median_q_error(&pre_estimates, &eval_truths);
    lines.push(format!(
        "[serve] shifted segment: frozen model median q-error {:.3} over {} held-out \
         queries (baseline was {:.3}, drift threshold {:.3})",
        shifted_frozen_median,
        eval_slice.len(),
        baseline_median,
        drift_threshold,
    ));

    // The feedback stream: serve, observe truth, feed the maintenance lane; every
    // `refresh_interval` records the controller gets its refresh opportunity.
    let mut outcomes: Vec<RefreshOutcome> = Vec::new();
    let chunk_size = if refresh_enabled {
        config.refresh_interval
    } else {
        feedback_slice.len().max(1)
    };
    for chunk in feedback_slice.chunks(chunk_size) {
        let chunk_queries: Vec<Query> = chunk.iter().map(|(q, _)| q.clone()).collect();
        let estimates = serve_all(&runtime, 2, &chunk_queries)?;
        for ((query, truth), estimate) in chunk.iter().zip(&estimates) {
            if runtime
                .record_observed(query.clone(), *truth, *estimate)
                .is_err()
            {
                return Err("maintenance lane rejected feedback".to_string());
            }
        }
        runtime.flush();
        if refresh_enabled {
            if let Some(outcome) = controller.refresh_if_needed() {
                lines.push(format!(
                    "[serve] refresh cycle: {:?} — probe median live {:.3} vs candidate \
                     {:.3} ({} fresh, {} pairs, {} replayed) -> model v{}",
                    outcome.decision,
                    outcome.live_probe_median,
                    outcome.candidate_probe_median,
                    outcome.fresh_records,
                    outcome.labeled_pairs,
                    outcome.replayed,
                    outcome.model_version,
                ));
                if !outcome.gate_respected() {
                    return Err(format!(
                        "validation-gate violation: applied refresh with candidate \
                         probe median {:.3} >= live {:.3}",
                        outcome.candidate_probe_median, outcome.live_probe_median
                    ));
                }
                outcomes.push(outcome);
            }
        }
    }
    runtime.flush();

    // Phase 4 — the verdict on the same held-out slice.
    let post_estimates = serve_all(&runtime, 1, eval_slice)?;
    let shifted_refreshed_median = median_q_error(&post_estimates, &eval_truths);
    // Frozen model over the *final* pool: what §5.2 pool maintenance alone would have
    // achieved, so the model swap's contribution is attributable.
    let final_pool = service.pool().to_pool();
    let frozen_final = Cnt2Crd::new(frozen_model, final_pool)
        .with_config(*service.config())
        .with_fallback(Box::new(PostgresEstimator::analyze(&ctx.db)));
    let frozen_final_estimates: Vec<f64> = eval_slice
        .iter()
        .map(|q| frozen_final.estimate(q))
        .collect();
    let shifted_frozen_final_median = median_q_error(&frozen_final_estimates, &eval_truths);

    let applied = outcomes
        .iter()
        .filter(|o| o.decision == RefreshDecision::Applied)
        .count();
    let online_stats = controller.stats();
    let stats = runtime.shutdown();
    lines.push(format!(
        "[serve] shifted segment after {} applied refresh(es): median q-error {:.3} \
         (frozen model on the same final pool: {:.3}; pre-feedback: {:.3})",
        applied, shifted_refreshed_median, shifted_frozen_final_median, shifted_frozen_median,
    ));
    lines.push(format!(
        "[serve] online summary: {} feedback records, {} cycles ({} applied, {} \
         rejected by the gate, {} without pairs), model v{}; maintenance applied {} \
         refreshes, {} failed (pool now {} entries); {} requests coalesced",
        online_stats.feedback_seen,
        online_stats.refreshes_attempted,
        online_stats.refreshes_applied,
        online_stats.refreshes_rejected,
        online_stats.refreshes_without_pairs,
        service.model_version(),
        stats.maintenance_applied,
        stats.maintenance_failed,
        service.pool().len(),
        stats.coalesced,
    ));

    // Hard tripwires for the CI smoke.
    if !refresh_enabled && service.model_version() != 1 {
        return Err(format!(
            "refresh disabled but the model was swapped to v{}",
            service.model_version()
        ));
    }
    if refresh_enabled && applied == 0 {
        return Err(format!(
            "drifting-workload demo applied no refresh ({} cycles: {} rejected, {} \
             without pairs; window median {:.3}, threshold {:.3})",
            online_stats.refreshes_attempted,
            online_stats.refreshes_rejected,
            online_stats.refreshes_without_pairs,
            online_stats.window_median,
            drift_threshold,
        ));
    }
    if applied > 0 && shifted_refreshed_median >= shifted_frozen_final_median {
        return Err(format!(
            "post-refresh median q-error {shifted_refreshed_median:.3} is not strictly \
             better than the frozen-model baseline {shifted_frozen_final_median:.3} on \
             the shifted segment"
        ));
    }
    finish_metrics(emitter, obs, lines);

    Ok(OnlineBenchSummary {
        schema: "crn-online-bench-v1".to_string(),
        preset: config.preset_label.clone(),
        shards: config.shards,
        threads: config.threads,
        refresh_interval: config.refresh_interval,
        probe_frac: config.probe_fraction,
        baseline_queries: workload.len(),
        baseline_median,
        shifted_eval_queries: eval_slice.len(),
        shifted_frozen_median,
        shifted_frozen_final_median,
        shifted_refreshed_median,
        feedback_records: feedback_slice.len(),
        refreshes_attempted: online_stats.refreshes_attempted,
        refreshes_applied: online_stats.refreshes_applied,
        refreshes_rejected: online_stats.refreshes_rejected,
        refreshes_without_pairs: online_stats.refreshes_without_pairs,
        model_version: service.model_version(),
        maintenance_applied: stats.maintenance_applied,
        maintenance_failed: stats.maintenance_failed,
        coalesced: stats.coalesced,
    })
}

/// The shared runtime configuration of the async/chaos demos: batching knobs plus the
/// fault-tolerance knobs (deadline, restart budget, checkpoint cadence).
/// Starts the periodic JSONL metrics emitter when `--metrics-jsonl` is set.
fn spawn_metrics_emitter(
    config: &ServeDemoConfig,
    obs: &crn_obs::Obs,
    lines: &mut Vec<String>,
) -> Result<Option<crn_obs::JsonlEmitter>, String> {
    let Some(path) = &config.metrics_jsonl else {
        return Ok(None);
    };
    let interval_ms = config.metrics_interval_ms.max(1);
    let emitter = crn_obs::JsonlEmitter::spawn(
        obs.clone(),
        std::path::Path::new(path),
        std::time::Duration::from_millis(interval_ms),
    )
    .map_err(|e| format!("cannot open metrics jsonl {path}: {e}"))?;
    lines.push(format!(
        "[serve] metrics: JSONL export to {path} every {interval_ms}ms"
    ));
    Ok(Some(emitter))
}

/// Stops the emitter (flushing a final snapshot plus any undrained journal events) and,
/// when export was on, appends the end-of-run plain-text metrics table to the report.
fn finish_metrics(
    emitter: Option<crn_obs::JsonlEmitter>,
    obs: &crn_obs::Obs,
    lines: &mut Vec<String>,
) {
    if let Some(emitter) = emitter {
        emitter.stop();
        lines.push("[serve] metrics table:".to_string());
        lines.extend(
            crn_obs::render_table(&obs.snapshot())
                .lines()
                .map(|line| format!("  {line}")),
        );
    }
}

/// The histogram/sort agreement tripwire: the driver's measured latencies were replayed
/// into a `crn-obs` log₂ histogram, so each reported percentile must land within one
/// bucket of the sort-based oracle over the identical sample — else the histogram path
/// is broken and the run fails loudly.
fn check_hist_vs_sort(
    name: &str,
    hist: &crn_obs::HistHandle,
    sorted_p50: f64,
    sorted_p99: f64,
    samples: usize,
) -> Result<String, String> {
    let hist_p50 = hist.quantile(0.50);
    let hist_p99 = hist.quantile(0.99);
    for (label, hist_value, sorted_value) in
        [("p50", hist_p50, sorted_p50), ("p99", hist_p99, sorted_p99)]
    {
        let hist_bucket = crn_obs::bucket_index(hist_value);
        let sorted_bucket = crn_obs::bucket_index(sorted_value as u64);
        if hist_bucket.abs_diff(sorted_bucket) > 1 {
            return Err(format!(
                "histogram/sort divergence on {name} {label}: hist {hist_value}us \
                 (bucket {hist_bucket}) vs sorted {sorted_value:.0}us (bucket \
                 {sorted_bucket}) over {samples} samples"
            ));
        }
    }
    Ok(format!(
        "[serve] hist/sort agree on {name}: hist p50 {hist_p50}us p99 {hist_p99}us vs \
         sorted p50 {sorted_p50:.0}us p99 {sorted_p99:.0}us ({samples} samples)"
    ))
}

fn resilient_runtime_config(config: &ServeDemoConfig, callers: usize) -> RuntimeConfig {
    let mut runtime_config = RuntimeConfig::default()
        .with_window_us(config.batch_window_us)
        .with_queue_depth(config.queue_depth.max(1))
        .with_per_caller_depth((config.queue_depth.max(1) / callers).max(1))
        .with_batch_max(config.batch.max(1))
        .with_checkpoint_every(config.checkpoint_every);
    if let Some(micros) = config.deadline_us {
        runtime_config = runtime_config.with_deadline_us(micros);
    }
    if let Some(micros) = config.batch_deadline_us {
        runtime_config = runtime_config.with_class_deadline_us(SloClass::Batch, micros);
    }
    if let Some(budget) = config.restart_budget {
        runtime_config = runtime_config
            .with_restart_policy(SupervisorPolicy::default().with_max_restarts(budget));
    }
    if let Some(micros) = config.class_window_us {
        runtime_config = runtime_config.with_class_window_us(SloClass::Batch, micros);
    }
    if let Some((interactive, batch)) = config.class_weights {
        runtime_config = runtime_config.with_class_weights([interactive, batch]);
    }
    runtime_config
        .with_cache_entries(config.cache_entries)
        .with_compact_every(config.compact_every)
}

/// Wires a [`CheckpointSink`] into the runtime's maintenance lane when
/// `--checkpoint-dir` is set (the cadence itself comes from `--checkpoint-every`).
fn attach_checkpoint_sink(
    config: &ServeDemoConfig,
    service: &Arc<EstimatorService<CrnModel>>,
    runtime: &ServeRuntime<EstimatorService<CrnModel>>,
    lines: &mut Vec<String>,
) {
    if let Some(dir) = &config.checkpoint_dir {
        let sink = Arc::new(CheckpointSink::new(Arc::clone(service), dir.clone()));
        runtime.set_checkpoint_writer(sink as Arc<dyn CheckpointWriter>);
        lines.push(format!(
            "[serve] checkpointing to {dir} every {} applied maintenance records",
            config.checkpoint_every
        ));
    }
}

/// The `BENCH_chaos.json` shape: the fault-injection run's resolution accounting.  The
/// headline field is `unresolved`, which must be 0 — every admitted ticket resolves
/// (computed, degraded, expired or failed) under every plan.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosBenchSummary {
    /// Format version tag for downstream tooling.
    pub schema: String,
    /// The experiment preset.
    pub preset: String,
    /// The fault plan driven (`crash-restore` or a [`FaultPlan`] spec).
    pub plan: String,
    /// Worker threads.
    pub threads: usize,
    /// Closed-loop callers.
    pub callers: usize,
    /// Requests admitted.
    pub submitted: u64,
    /// Tickets resolved with a computed estimate.
    pub completed: u64,
    /// Tickets resolved with a degraded (fallback-path) estimate.
    pub degraded: u64,
    /// Tickets shed at their deadline.
    pub expired: u64,
    /// Tickets failed outright (fallback path itself panicked).
    pub failed: u64,
    /// `submitted - (completed + degraded + expired + failed)` — MUST be 0.
    pub unresolved: u64,
    /// Requests served synchronously on the caller thread after a scheduler degrade.
    pub sync_served: u64,
    /// Whether the run ended in degraded synchronous serving.
    pub degraded_sync_mode: bool,
    /// Whether the maintenance lane was down at shutdown.
    pub maintenance_down: bool,
    /// Supervisor restarts of the scheduler lane.
    pub scheduler_restarts: u64,
    /// Supervisor restarts of the maintenance lane.
    pub maintenance_restarts: u64,
    /// Faults the injector actually fired.
    pub faults_injected: u64,
    /// Maintenance records applied / failed.
    pub maintenance_applied: u64,
    /// See [`ChaosBenchSummary::maintenance_applied`].
    pub maintenance_failed: u64,
    /// Checkpoints committed / failed during the run.
    pub checkpoints_written: u64,
    /// See [`ChaosBenchSummary::checkpoints_written`].
    pub checkpoints_failed: u64,
    /// Crash-restore only: µs to load + verify + rebuild serving state from disk.
    pub restore_micros: Option<f64>,
    /// Crash-restore only: whether the restored run's estimates were bit-identical to
    /// the uninterrupted run's.
    pub bit_identical: Option<bool>,
}

/// The deterministic fault-injection demo (`repro serve --chaos <plan>`): drives the
/// workload through a runtime whose injector fires the plan's faults at exact
/// occurrence counts (no wall clock, no randomness — the same plan always kills the
/// same batch), then checks the headline invariant: **every admitted ticket resolved**.
#[allow(clippy::too_many_arguments)]
fn run_chaos_demo(
    config: &ServeDemoConfig,
    ctx: &ExperimentContext,
    service: &Arc<EstimatorService<CrnModel>>,
    obs: &crn_obs::Obs,
    plan_text: &str,
    workload: &[Query],
    lines: &mut Vec<String>,
) -> Result<ChaosBenchSummary, String> {
    let plan = FaultPlan::parse(plan_text).map_err(|e| format!("--chaos: {e}"))?;
    let injector = FaultInjector::new(plan);
    let callers = config.callers.max(1);
    let runtime = ServeRuntime::with_faults(
        Arc::clone(service),
        resilient_runtime_config(config, callers).with_obs(obs.clone()),
        Arc::clone(&injector),
    );
    attach_checkpoint_sink(config, service, &runtime, lines);
    let emitter = spawn_metrics_emitter(config, obs, lines)?;
    lines.push(format!(
        "[serve] chaos runtime up: plan '{plan_text}', {} callers, deadline {}, restart \
         budget {}/lane",
        callers,
        match config.deadline_us {
            Some(us) => format!("{us}us"),
            None => "off".to_string(),
        },
        runtime.config().restart_policy.max_restarts,
    ));

    // The load phase: closed-loop callers, every outcome tallied, none unwrapped — a
    // hung `wait()` here is exactly the bug the invariant exists to catch.
    let run_started = Instant::now();
    std::thread::scope(|scope| {
        for caller in 0..callers {
            let runtime = &runtime;
            scope.spawn(move || {
                for (index, query) in workload.iter().enumerate() {
                    if index % callers == caller {
                        if let Ok(ticket) = runtime.submit_retrying(caller as u64, query) {
                            // Any resolution is acceptable under chaos; what is not
                            // acceptable is no resolution (wait() blocking forever).
                            let _ = ticket.wait();
                        }
                    }
                }
            });
        }
    });

    // The maintenance phase: feedback records so maintenance-lane faults (maint-panic,
    // maint-kill, checkpoint-fail) have upserts to fire on.
    let executor = crn_exec::Executor::new(&ctx.db);
    let mut feedback_sent = 0usize;
    for query in workload.iter().take(workload.len().min(12)) {
        let cardinality = executor.cardinality(query);
        if runtime.record_feedback(query.clone(), cardinality).is_ok() {
            feedback_sent += 1;
        }
    }
    runtime.flush();
    let elapsed = run_started.elapsed();

    let fired: Vec<String> = injector
        .fired()
        .iter()
        .map(|fault| format!("{}#{}", fault.site.name(), fault.occurrence))
        .collect();
    let stats = runtime.shutdown();
    lines.push(format!(
        "[serve] chaos: {} faults fired [{}] in {:.3}s; {} submitted -> {} computed, {} \
         degraded, {} expired, {} failed ({} sync-served); restarts scheduler {} \
         maintenance {}{}{}",
        stats.faults_injected,
        fired.join(", "),
        elapsed.as_secs_f64(),
        stats.submitted,
        stats.completed,
        stats.degraded,
        stats.expired,
        stats.failed,
        stats.sync_served,
        stats.scheduler_restarts,
        stats.maintenance_restarts,
        if stats.degraded_sync_mode {
            " [DEGRADED-SYNC]"
        } else {
            ""
        },
        if stats.maintenance_down {
            " [MAINTENANCE DOWN]"
        } else {
            ""
        },
    ));
    lines.push(format!(
        "[serve] chaos maintenance: {} of {feedback_sent} records applied, {} failed; \
         checkpoints {} written, {} failed",
        stats.maintenance_applied,
        stats.maintenance_failed,
        stats.checkpoints_written,
        stats.checkpoints_failed,
    ));

    let resolved = stats.completed + stats.degraded + stats.expired + stats.failed;
    let unresolved = stats.submitted.saturating_sub(resolved);
    if unresolved != 0 {
        return Err(format!(
            "chaos invariant violated: {} of {} admitted tickets never resolved \
             (plan '{plan_text}')",
            unresolved, stats.submitted
        ));
    }
    lines.push(format!(
        "[serve] chaos invariant holds: all {} admitted tickets resolved",
        stats.submitted
    ));
    let restart_events = obs
        .events_since(0)
        .iter()
        .filter(|entry| matches!(entry.event, crn_obs::Event::SupervisorRestart { .. }))
        .count();
    lines.push(format!(
        "[serve] journal: {} events recorded ({} supervisor restarts)",
        obs.snapshot().journal_recorded,
        restart_events,
    ));
    finish_metrics(emitter, obs, lines);
    Ok(ChaosBenchSummary {
        schema: "crn-chaos-bench-v1".to_string(),
        preset: config.preset_label.clone(),
        plan: plan_text.to_string(),
        threads: config.threads,
        callers,
        submitted: stats.submitted,
        completed: stats.completed,
        degraded: stats.degraded,
        expired: stats.expired,
        failed: stats.failed,
        unresolved,
        sync_served: stats.sync_served,
        degraded_sync_mode: stats.degraded_sync_mode,
        maintenance_down: stats.maintenance_down,
        scheduler_restarts: stats.scheduler_restarts,
        maintenance_restarts: stats.maintenance_restarts,
        faults_injected: stats.faults_injected,
        maintenance_applied: stats.maintenance_applied,
        maintenance_failed: stats.maintenance_failed,
        checkpoints_written: stats.checkpoints_written,
        checkpoints_failed: stats.checkpoints_failed,
        restore_micros: None,
        bit_identical: None,
    })
}

/// Serves `segment` closed-loop on one caller, feeding each served `(query, truth,
/// estimate)` triple through the maintenance lane, then flushes and shuts down —
/// returning the runtime's final stats.  The building block of the crash-restore demo:
/// both lineages (uninterrupted and restored) run their halves through this exact path,
/// so any divergence is attributable to the checkpoint round-trip alone.
fn serve_segment_with_feedback(
    config: &ServeDemoConfig,
    service: &Arc<EstimatorService<CrnModel>>,
    observer: Option<&Arc<RefreshController>>,
    segment: &[Query],
    truths: &[u64],
) -> Result<crn_serve::RuntimeStats, String> {
    let runtime = ServeRuntime::new(Arc::clone(service), resilient_runtime_config(config, 1));
    if let Some(observer) = observer {
        runtime.set_feedback_observer(Arc::clone(observer) as Arc<dyn FeedbackObserver>);
    }
    for (query, truth) in segment.iter().zip(truths) {
        let estimate = runtime
            .submit_retrying(0, query)
            .map_err(|e| format!("submission failed: {e}"))?
            .wait()
            .map_err(|e| format!("ticket unresolved: {e}"))?
            .estimate;
        runtime
            .record_observed(query.clone(), *truth, estimate)
            .map_err(|e| format!("maintenance rejected feedback: {e}"))?;
    }
    runtime.flush();
    Ok(runtime.shutdown())
}

/// The crash-and-restore demo (`repro serve --chaos crash-restore`): runs the workload
/// twice — once uninterrupted, once "crashed" at the midpoint and restored from the
/// checkpoint written there — and requires the two lineages' final estimates to be
/// **bit-identical** over the whole workload.  The checkpoint round-trip (pool, model,
/// optimizer moments and controller counters, through JSON and back) is the only thing
/// that differs between the lineages, so this pins exact-restoration end to end.
fn run_crash_restore_demo(
    config: &ServeDemoConfig,
    ctx: &ExperimentContext,
    workload: &[Query],
    lines: &mut Vec<String>,
) -> Result<ChaosBenchSummary, String> {
    let threads = config.threads.max(1);
    let executor = crn_exec::Executor::new(&ctx.db);
    let truths: Vec<u64> = workload.iter().map(|q| executor.cardinality(q)).collect();
    let split = (workload.len() / 2).max(1).min(workload.len());
    let (first_half, second_half) = workload.split_at(split);
    let (first_truths, second_truths) = truths.split_at(split);
    let build_service = |model: CrnModel, pool: &QueriesPool| {
        Arc::new(
            EstimatorService::new(
                model,
                ShardedPool::from_pool(pool, config.shards),
                WorkerPool::shared(threads),
            )
            .with_fallback(Box::new(PostgresEstimator::analyze(&ctx.db))),
        )
    };
    let (dir, ephemeral_dir) = match &config.checkpoint_dir {
        Some(dir) => (std::path::PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!("crn_crash_restore_{}", std::process::id())),
            true,
        ),
    };

    // Lineage A — uninterrupted: both halves, then the final estimates over the whole
    // workload (the reference the restored lineage must match bit for bit).
    let reference_service = build_service(ctx.crn.clone(), &ctx.pool);
    serve_segment_with_feedback(config, &reference_service, None, first_half, first_truths)?;
    serve_segment_with_feedback(config, &reference_service, None, second_half, second_truths)?;
    let reference = reference_service.serve(workload).estimates;
    lines.push(format!(
        "[serve] crash-restore: uninterrupted lineage done ({} queries, pool now {} \
         entries)",
        workload.len(),
        reference_service.pool().len(),
    ));

    // Lineage B — crashed: first half with a live refresh controller observing the
    // feedback, checkpoint at the midpoint, then the process state is dropped.
    let crashed_service = build_service(ctx.crn.clone(), &ctx.pool);
    let controller = Arc::new(RefreshController::new(
        Arc::clone(&crashed_service),
        Box::new(ExecLabeler::new(Arc::new(ctx.db.clone()), threads)),
        OnlineConfig {
            gate_margin: config.gate_margin,
            ..OnlineConfig::default()
        },
    ));
    let first_stats = serve_segment_with_feedback(
        config,
        &crashed_service,
        Some(&controller),
        first_half,
        first_truths,
    )?;
    let sink = CheckpointSink::new(Arc::clone(&crashed_service), dir.clone())
        .with_controller(Arc::clone(&controller));
    let manifest = sink
        .write()
        .map_err(|e| format!("midpoint checkpoint: {e}"))?;
    let counters_at_crash = controller.stats();
    lines.push(format!(
        "[serve] crash-restore: checkpoint seq {} committed at the midpoint ({} feedback \
         records observed); crashing",
        manifest.sequence, counters_at_crash.feedback_seen,
    ));
    drop(sink);
    drop(controller);
    drop(crashed_service); // the "crash": every in-memory artifact of lineage B is gone

    // Restore: load + verify + rebuild the service and controller from disk alone.
    let restore_started = Instant::now();
    let (checkpoint, loaded_manifest) =
        Checkpoint::load(&dir).map_err(|e| format!("restore: {e}"))?;
    let restored_service = build_service(checkpoint.model, &checkpoint.pool);
    let restored_controller = Arc::new(RefreshController::new(
        Arc::clone(&restored_service),
        Box::new(ExecLabeler::new(Arc::new(ctx.db.clone()), threads)),
        OnlineConfig {
            gate_margin: config.gate_margin,
            ..OnlineConfig::default()
        },
    ));
    let online_state = checkpoint
        .online
        .ok_or("restore: checkpoint holds no controller state")?;
    restored_controller.restore_state(online_state);
    let restore_micros = restore_started.elapsed().as_secs_f64() * 1e6;
    if loaded_manifest != manifest {
        return Err("restore: reloaded manifest differs from the committed one".to_string());
    }
    let restored_counters = restored_controller.stats();
    if restored_counters.feedback_seen != counters_at_crash.feedback_seen
        || restored_counters.refreshes_attempted != counters_at_crash.refreshes_attempted
    {
        return Err(format!(
            "restore: controller counters did not round-trip ({} vs {} feedback records)",
            restored_counters.feedback_seen, counters_at_crash.feedback_seen
        ));
    }
    lines.push(format!(
        "[serve] crash-restore: restored seq {} in {restore_micros:.0}us (pool {} \
         entries, controller counters intact)",
        loaded_manifest.sequence,
        restored_service.pool().len(),
    ));

    // The restored lineage finishes the run, then the verdict: bit-identical finals.
    let second_stats = serve_segment_with_feedback(
        config,
        &restored_service,
        Some(&restored_controller),
        second_half,
        second_truths,
    )?;
    let restored = restored_service.serve(workload).estimates;
    let mut bit_identical = true;
    for (index, (a, b)) in restored.iter().zip(&reference).enumerate() {
        if a != b {
            lines.push(format!(
                "[serve] crash-restore MISMATCH at query {index}: restored {a} vs \
                 uninterrupted {b}"
            ));
            bit_identical = false;
        }
    }
    if ephemeral_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if !bit_identical {
        return Err(
            "crash-restore violation: restored lineage is not bit-identical to the \
             uninterrupted one"
                .to_string(),
        );
    }
    lines.push(format!(
        "[serve] crash-restore invariant holds: {} estimates bit-identical after \
         mid-run crash + restore",
        restored.len()
    ));
    let submitted = first_stats.submitted + second_stats.submitted;
    Ok(ChaosBenchSummary {
        schema: "crn-chaos-bench-v1".to_string(),
        preset: config.preset_label.clone(),
        plan: "crash-restore".to_string(),
        threads: config.threads,
        callers: 1,
        submitted,
        completed: first_stats.completed + second_stats.completed,
        degraded: first_stats.degraded + second_stats.degraded,
        expired: first_stats.expired + second_stats.expired,
        failed: first_stats.failed + second_stats.failed,
        unresolved: 0,
        sync_served: first_stats.sync_served + second_stats.sync_served,
        degraded_sync_mode: second_stats.degraded_sync_mode,
        maintenance_down: second_stats.maintenance_down,
        scheduler_restarts: first_stats.scheduler_restarts + second_stats.scheduler_restarts,
        maintenance_restarts: first_stats.maintenance_restarts + second_stats.maintenance_restarts,
        faults_injected: 0,
        maintenance_applied: first_stats.maintenance_applied + second_stats.maintenance_applied,
        maintenance_failed: first_stats.maintenance_failed + second_stats.maintenance_failed,
        checkpoints_written: 1,
        checkpoints_failed: 0,
        restore_micros: Some(restore_micros),
        bit_identical: Some(bit_identical),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_demo_runs_on_the_tiny_preset() {
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 24;
        config.batch = 8;
        config.shards = 2;
        config.threads = 2;
        let report = run_serve_demo(&config).expect("parity holds");
        assert!(report.contains("parity check passed"));
        assert!(report.contains("served 24 queries over 2 shards x 2 threads"));
    }

    /// The full online demo on the tiny preset: drift detected, at least one gated
    /// refresh applied, post-refresh median strictly better than the frozen model on
    /// the shifted segment, and the machine-readable summary written.
    #[test]
    fn online_demo_refreshes_and_emits_bench_json() {
        let dir = std::env::temp_dir().join("crn_online_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_online.json");
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 64;
        config.batch = 16;
        config.shards = 4;
        config.threads = 2;
        config.online = true;
        config.refresh_interval = 16;
        config.probe_fraction = 0.25;
        config.bench_json = Some(path.to_string_lossy().to_string());
        let report = run_serve_demo(&config).expect("gates hold and the refresh improves");
        assert!(report.contains("online runtime up"));
        assert!(report.contains("parity check passed"));
        assert!(report.contains("refresh cycle: Applied"));
        assert!(report.contains("maintenance applied"));
        let json = std::fs::read_to_string(&path).expect("bench json written");
        std::fs::remove_file(&path).ok();
        assert!(json.contains("crn-online-bench-v1"));
        assert!(json.contains("refreshes_applied"));
        assert!(json.contains("shifted_refreshed_median"));
        assert!(json.contains("maintenance_failed"));
    }

    /// `--online` with refresh disabled is the PR-4 async path bit-for-bit: the model
    /// version never moves and the post-segment medians coincide exactly with the
    /// frozen model over the same pool.
    #[test]
    fn online_demo_with_refresh_disabled_never_swaps() {
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 48;
        config.batch = 16;
        config.shards = 2;
        config.threads = 2;
        config.online = true;
        config.refresh_interval = 0;
        let report = run_serve_demo(&config).expect("parity mode always passes");
        assert!(report.contains("refresh OFF"));
        assert!(report.contains("model v1"));
        assert!(report.contains("0 cycles"));
    }

    /// The fault-plan chaos demo: every injected fault fires at its scripted
    /// occurrence, every admitted ticket resolves, and the run's resolution accounting
    /// lands in BENCH_chaos.json.
    #[test]
    fn chaos_demo_resolves_every_ticket_and_emits_bench_json() {
        let dir = std::env::temp_dir().join("crn_chaos_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_chaos.json");
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 24;
        config.batch = 8;
        config.shards = 2;
        config.threads = 2;
        config.chaos = Some("batch-panic:2,maint-kill".to_string());
        config.bench_json = Some(path.to_string_lossy().to_string());
        let report = run_serve_demo(&config).expect("every ticket resolves");
        assert!(report.contains("chaos runtime up"));
        assert!(report.contains("batch-panic#2"));
        assert!(report.contains("maint-kill#1"));
        assert!(report.contains("chaos invariant holds"));
        let json = std::fs::read_to_string(&path).expect("bench json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("crn-chaos-bench-v1"));
        assert!(json.contains("\"unresolved\":0"));
        assert!(json.contains("\"degraded\":"));
        assert!(json.contains("\"maintenance_restarts\":1"));
    }

    /// The crash-restore demo: a mid-run crash restored from the checkpoint must serve
    /// bit-identically to the uninterrupted lineage, and the restore latency lands in
    /// the bench record.
    #[test]
    fn crash_restore_demo_is_bit_identical() {
        let dir = std::env::temp_dir().join("crn_crash_restore_demo_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_chaos.json");
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 16;
        config.batch = 8;
        config.shards = 2;
        config.threads = 2;
        config.chaos = Some("crash-restore".to_string());
        config.checkpoint_dir = Some(dir.join("ckpt").to_string_lossy().to_string());
        config.bench_json = Some(path.to_string_lossy().to_string());
        let report = run_serve_demo(&config).expect("restored lineage matches");
        assert!(report.contains("checkpoint seq 1 committed"));
        assert!(report.contains("crash-restore invariant holds"));
        let json = std::fs::read_to_string(&path).expect("bench json written");
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"plan\":\"crash-restore\""));
        assert!(json.contains("\"bit_identical\":true"));
        assert!(json.contains("restore_micros"));
    }

    /// The mixed SLO/cache demo: batch-class callers ride a long window behind
    /// interactive traffic (interactive p99 strictly below batch p99 — the in-demo
    /// tripwire), warm cache replays stay bit-identical to sequential serving, and the
    /// extended per-class/cache fields land in BENCH_serving.json.
    #[test]
    fn mixed_slo_cache_demo_isolates_classes_and_hits_the_cache() {
        let dir = std::env::temp_dir().join("crn_slo_cache_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serving.json");
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 24;
        config.batch = 8;
        config.shards = 2;
        config.threads = 2;
        config.async_mode = true;
        config.batch_window_us = 100;
        config.queue_depth = 16;
        config.callers = 4;
        config.class_window_us = Some(20_000);
        config.class_weights = Some((3, 1));
        config.cache_entries = 256;
        config.bench_json = Some(path.to_string_lossy().to_string());
        let report = run_serve_demo(&config).expect("parity and the SLO hold");
        assert!(report.contains("SLO classes on: 2 interactive + 2 batch callers"));
        assert!(report.contains("cache parity check passed"));
        assert!(report.contains("SLO holds"));
        assert!(report.contains("estimate cache:"));
        let json = std::fs::read_to_string(&path).expect("bench json written");
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"batch_callers\":2"));
        assert!(json.contains("\"class_window_us\":20000"));
        assert!(json.contains("interactive_p99_us"));
        assert!(json.contains("batch_p99_us"));
        assert!(json.contains("\"cache_entries\":256"));
        assert!(json.contains("cache_hit_rate"));
        // The second workload pass replays pass 1 from the cache, so hits are
        // structurally nonzero.
        assert!(!json.contains("\"cache_hits\":0,"));
    }

    /// Top-K serving stays bit-identical to the sequential path when BOTH run the same
    /// `Cnt2CrdConfig`: the parity tripwire holds at k > 0, not just on the full-pool
    /// path.  (`--top-k 0` bit-parity with the pre-pool-tier semantics is pinned by
    /// every other test in this module — the default config leaves `top_k` at 0.)
    #[test]
    fn serve_demo_parity_holds_with_top_k_selection() {
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 24;
        config.batch = 8;
        config.shards = 3;
        config.threads = 2;
        config.top_k = 4;
        let report = run_serve_demo(&config).expect("top-K parity holds");
        assert!(report.contains("parity check passed"));
    }

    /// The pool-scale sweep on the tiny preset: synthesized pools at two sizes, both
    /// arms measured, the q-error budget and the sublinear/top-K-wins latency gates
    /// enforced, and per-arm records (pool_entries, top_k, median_q_error) in the
    /// bench JSON.
    #[test]
    fn pool_scale_sweep_gates_hold_and_emit_bench_json() {
        let dir = std::env::temp_dir().join("crn_pool_scale_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serving.json");
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 24;
        config.batch = 8;
        config.shards = 2;
        config.threads = 2;
        config.top_k = 8;
        config.pool_scale = Some(vec![300, 1500]);
        config.q_error_budget = 1.25;
        config.bench_json = Some(path.to_string_lossy().to_string());
        let report = run_serve_demo(&config).expect("sweep gates hold");
        assert!(report.contains("pool-scale sweep: sizes [300, 1500]"));
        assert!(report.contains("pool-scale gates hold"));
        let json = std::fs::read_to_string(&path).expect("bench json written");
        std::fs::remove_file(&path).ok();
        assert!(json.contains("crn-serve-bench-v1"));
        assert!(json.contains("\"mode\":\"pool-scale-full\""));
        assert!(json.contains("\"mode\":\"pool-scale-topk\""));
        assert!(json.contains("\"top_k\":8"));
        assert!(json.contains("median_q_error"));
        assert!(json.contains("\"pool_entries\":300"));
        assert!(json.contains("\"pool_entries\":1500"));
        assert_eq!(
            json.matches("\"mode\":\"pool-scale-").count(),
            4,
            "two sizes x two arms"
        );
    }

    #[test]
    fn async_serve_demo_runs_and_emits_bench_json() {
        let dir = std::env::temp_dir().join("crn_serve_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serving.json");
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 24;
        config.batch = 8;
        config.shards = 2;
        config.threads = 2;
        config.async_mode = true;
        config.batch_window_us = 100;
        config.queue_depth = 16;
        config.callers = 3;
        config.bench_json = Some(path.to_string_lossy().to_string());
        let report = run_serve_demo(&config).expect("parity holds");
        assert!(report.contains("async runtime up"));
        assert!(report.contains("parity check passed"));
        assert!(report.contains("maintenance applied"));
        let json = std::fs::read_to_string(&path).expect("bench json written");
        std::fs::remove_file(&path).ok();
        assert!(json.contains("crn-serve-bench-v1"));
        assert!(json.contains("\"mode\":\"async\""));
        assert!(json.contains("throughput_qps"));
    }
}
