//! `repro serve` — one scenario driver over the serving stack.
//!
//! Builds the shared experiment context (database, trained CRN, queries pool) and runs one
//! scenario, which varies two things:
//!
//! * the **backend** — the in-process [`EstimatorService`] over a [`ShardedPool`], or with
//!   `--cluster N` a [`ClusterClient`] scattering to N forked worker processes (both are
//!   [`ComputeBackend`]s);
//! * the **load shape** — *direct* (default: the workload in `--batch`-sized `serve` calls
//!   on the driver thread), *closed loop* (`--async`, and always with `--cluster`: a
//!   [`ServeRuntime`] over the backend with `--callers` threads each submitting their share
//!   one request at a time — submit → wait → next, retrying when admission sheds — then
//!   true cardinalities fed through the maintenance lane, the paper's pool-refresh loop
//!   live), or the *pool-scale arms* (`--pool-scale a,b,...`: direct single-query serves
//!   over synthesized pools, full scan vs top-K).
//!
//! The direct and closed-loop shapes verify their first batch **bit-for-bit** against the
//! sequential single-query `Cnt2Crd` path over the same (flattened) pool, through the very
//! path they then measure; every violated gate returns an `Err`, so the `repro` binary exits
//! non-zero.  Refresh, fault-injection and crash-restore behaviour is not driven from here:
//! `crates/{online,serve}/tests` pin it.
//!
//! With `--bench-json <path>` the run emits one [`BenchRecord`] per measured configuration,
//! the same shape in every mode, so the serving perf trajectory is trackable across PRs.

use crate::harness::{ExperimentConfig, ExperimentContext};
use crate::metrics::QErrorSummary;
use crn_cluster::{ClusterClient, ClusterOptions};
use crn_core::{
    Cnt2Crd, Cnt2CrdConfig, CrnModel, EstimatorService, QueriesPool, ServeStats, ShardedPool,
};
use crn_estimators::{CardinalityEstimator, PostgresEstimator};
use crn_nn::parallel::WorkerPool;
use crn_online::{Checkpoint, CheckpointError, CheckpointSink};
use crn_query::generator::{GeneratorConfig, QueryGenerator};
use crn_query::Query;
use crn_serve::{
    CheckpointWriter, ComputeBackend, RuntimeConfig, ServeRuntime, SloClass, TicketError,
    TicketOutcome,
};
use serde::Serialize;
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Direct shape: concurrent queries handed to `serve` per call (`--batch`).
    /// Closed loop: the runtime's batch size threshold.
    pub batch: usize,
    /// Drive the async request-queue runtime instead of direct `serve` calls (`--async`).
    pub async_mode: bool,
    /// Async batching window in microseconds (`--batch-window-us`).
    pub batch_window_us: u64,
    /// Async bounded submission-queue depth (`--queue-depth`).
    pub queue_depth: usize,
    /// Closed-loop load-generator threads (`--callers`).
    pub callers: usize,
    /// Emit the machine-readable latency/throughput records here (`--bench-json`).
    pub bench_json: Option<String>,
    /// Per-request deadline in µs for async submissions (`--deadline-us`); `None`
    /// disables deadlines (requests wait however long the queue takes).
    pub deadline_us: Option<u64>,
    /// Checkpoint directory (`--checkpoint-dir`): restored from on startup when it
    /// holds a committed checkpoint, written to on the maintenance cadence.
    pub checkpoint_dir: Option<String>,
    /// Applied maintenance records between checkpoint writes (`--checkpoint-every`);
    /// 0 disables cadence-driven checkpoints.
    pub checkpoint_every: u64,
    /// Batch-class batching window in µs (`--class-window-us`); `None` keeps the
    /// runtime's default batch-class window, 0 makes the batch class inherit the base
    /// window.  Setting this (or `--class-weights`) switches the closed loop to mixed
    /// traffic: odd-indexed callers register as `Batch`-class.
    pub class_window_us: Option<u64>,
    /// Weighted admission shares `interactive:batch` (`--class-weights A:B`); `None`
    /// disables weighting — every class may use the whole queue depth.
    pub class_weights: Option<(u32, u32)>,
    /// Cross-window estimate cache capacity in entries (`--cache-entries`); 0 disables
    /// the cache entirely.  With the cache on, the closed loop drives the workload
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
    /// `None` runs the regular scenario instead.
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
            deadline_us: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
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

/// The schema tag of every [`BenchSummary`] this driver writes.
const BENCH_SCHEMA: &str = "crn-serve-bench-v2";

/// One measured configuration inside [`BenchSummary`]: the configuration echoed as given,
/// the latency summary, the per-class split and the runtime's counters.  Every mode emits
/// the same keys; what a mode does not measure is empty or `null`, never a made-up zero.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    /// `sync`, `async`, `cluster`, `pool-scale-full` or `pool-scale-topk`.
    pub mode: String,
    /// The experiment preset (`--preset`).
    pub preset: String,
    /// Pool shard count (`--shards`).
    pub shards: usize,
    /// Worker threads (`--threads`).
    pub threads: usize,
    /// Queries per direct `serve` call / the runtime's batch size threshold (`--batch`).
    pub batch: usize,
    /// Closed-loop callers (`--callers`).
    pub callers: usize,
    /// Runtime queue depth (`--queue-depth`).
    pub queue_depth: usize,
    /// Runtime base batching window in µs (`--batch-window-us`).
    pub batch_window_us: u64,
    /// Estimate-cache capacity (`--cache-entries`; 0 = cache off).
    pub cache_entries: usize,
    /// Worker processes (`--cluster`; 0 = single-process serving).
    pub cluster_workers: usize,
    /// Top-K anchor selection in force (0 = full-pool path).
    pub top_k: usize,
    /// Pool entries in the snapshot the last `serve` call of the run read.
    pub pool_entries: usize,
    /// Queries served inside the measured window.
    pub queries: usize,
    /// Latency samples taken: one per request in the closed loop, one per `serve` call in
    /// the direct shapes.
    pub samples: usize,
    /// Median latency in µs over the samples.
    pub p50_us: f64,
    /// 99th-percentile latency in µs.
    pub p99_us: f64,
    /// Mean latency in µs.
    pub mean_us: f64,
    /// Served queries per second over the measured window.
    pub throughput_qps: f64,
    /// The closed loop's per-SLO-class split, one entry per class that saw traffic (two
    /// with classes on); empty in the direct shapes.
    pub classes: Vec<ClassLatency>,
    /// Mean number of anchors the serving core ran through the model per query
    /// (`ServeStats::anchors_scored`; what the pool-scale gates compare).  0 from the
    /// cluster coordinator, whose workers score.
    pub anchors_per_query: f64,
    /// Median q-error of the served estimates against executed truths — the pool-scale
    /// arms only; the other modes gate on bit-parity with the sequential path instead.
    pub median_q_error: Option<f64>,
    /// `RuntimeStats::counter_fields()` at shutdown (parity warmup included), as
    /// `[name, value]` pairs — this workspace's JSON map encoding; empty without a runtime.
    pub counters: Vec<(&'static str, u64)>,
}

/// One SLO class's share of a closed-loop run.
#[derive(Debug, Clone, Serialize)]
pub struct ClassLatency {
    /// `interactive` or `batch`.
    pub class: &'static str,
    /// Callers registered in the class.
    pub callers: usize,
    /// The class's effective batching window in µs.
    pub window_us: u64,
    /// Requests the class's callers had served.
    pub requests: usize,
    /// Sort-based median latency in µs.
    pub p50_us: f64,
    /// Sort-based 99th-percentile latency in µs.
    pub p99_us: f64,
    /// The same sample's median read off a `crn-obs` log₂ histogram; cross-checked
    /// in-process against `p50_us` to within one bucket.
    pub hist_p50_us: u64,
    /// See [`ClassLatency::hist_p50_us`].
    pub hist_p99_us: u64,
}

/// The `--bench-json` shape: a schema tag plus one record per measured configuration.
#[derive(Debug, Clone, Serialize)]
pub struct BenchSummary {
    /// Format version tag for downstream tooling.
    pub schema: String,
    /// The measured configurations.
    pub configs: Vec<BenchRecord>,
}

/// What one load shape measured; [`BenchRecord::new`] is the only place it becomes a record.
struct Measured {
    /// One latency per sample, in µs.
    latencies_us: Vec<f64>,
    /// Queries served inside the measured window.
    queries: usize,
    /// The measured window.
    elapsed: Duration,
    /// The serving core's own accounting over the run.
    serve: ServeStats,
    classes: Vec<ClassLatency>,
    median_q_error: Option<f64>,
    counters: Vec<(&'static str, u64)>,
}

impl BenchRecord {
    fn new(config: &ServeDemoConfig, mode: &str, top_k: usize, mut measured: Measured) -> Self {
        let samples = measured.latencies_us.len();
        BenchRecord {
            mode: mode.to_string(),
            preset: config.preset_label.clone(),
            shards: config.shards,
            threads: config.threads,
            batch: config.batch,
            callers: config.callers,
            queue_depth: config.queue_depth,
            batch_window_us: config.batch_window_us,
            cache_entries: config.cache_entries,
            cluster_workers: config.cluster,
            top_k,
            pool_entries: measured.serve.pool_entries,
            queries: measured.queries,
            samples,
            p50_us: percentile_us(&mut measured.latencies_us, 0.50),
            p99_us: percentile_us(&mut measured.latencies_us, 0.99),
            mean_us: measured.latencies_us.iter().sum::<f64>() / samples.max(1) as f64,
            throughput_qps: measured.queries as f64 / measured.elapsed.as_secs_f64().max(1e-9),
            classes: measured.classes,
            anchors_per_query: measured.serve.anchors_scored as f64
                / measured.serve.queries.max(1) as f64,
            median_q_error: measured.median_q_error,
            counters: measured.counters,
        }
    }
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

/// Runs one `repro serve` scenario, returning the printed report — or an `Err` describing
/// the first violated gate (bit-parity, SLO inversion, histogram-vs-sort mismatch, a
/// pool-scale gate), which the `repro` binary turns into a non-zero exit.
pub fn run_serve_demo(config: &ServeDemoConfig) -> Result<String, String> {
    let started = Instant::now();
    let ctx = ExperimentContext::build(config.experiment.clone());
    let mut lines = vec![format!(
        "[serve] context ready in {:.1}s: pool of {} entries over {} FROM clauses",
        started.elapsed().as_secs_f64(),
        ctx.pool.len(),
        ctx.pool.num_from_clauses()
    )];
    let records = match run_scenario(config, &ctx, &mut lines) {
        Ok(records) => records,
        Err(violation) => {
            // The report so far is the diagnostic context of the violation: emit it on
            // stderr so the CI log shows what led up to the non-zero exit.
            eprintln!("{}", lines.join("\n"));
            return Err(violation);
        }
    };
    if let Some(path) = &config.bench_json {
        let summary = BenchSummary {
            schema: BENCH_SCHEMA.to_string(),
            configs: records,
        };
        let json =
            serde_json::to_string(&summary).map_err(|e| format!("bench json render: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        lines.push(format!("[serve] wrote bench summary to {path}"));
    }
    Ok(lines.join("\n"))
}

/// What the direct and closed-loop shapes of one run share.
struct Scenario<'a> {
    config: &'a ServeDemoConfig,
    ctx: &'a ExperimentContext,
    workload: Vec<Query>,
    /// The sequential single-query oracle over the served model and (flattened) pool.
    sequential: Cnt2Crd<CrnModel>,
    /// Always enabled (the per-class histograms and request spans come from it); the
    /// zero-overhead disabled path is pinned by the serving-runtime tests instead.
    obs: crn_obs::Obs,
}

impl Scenario<'_> {
    fn first_batch(&self) -> &[Query] {
        &self.workload[..self.workload.len().min(self.config.batch.max(1))]
    }

    /// The parity tripwire: `estimates`, served for [`Scenario::first_batch`] by the path
    /// under measurement, must be bit-identical to the sequential single-query path.
    fn verify_parity(&self, estimates: &[f64], mode: &str) -> Result<String, String> {
        let queries = self.first_batch();
        for (index, (query, estimate)) in queries.iter().zip(estimates).enumerate() {
            let expected = self.sequential.estimate(query);
            if *estimate != expected {
                return Err(format!(
                    "parity violation ({mode}) at query {index}: served {estimate} vs \
                     sequential {expected}"
                ));
            }
        }
        Ok(format!(
            "[serve] parity check passed ({mode}): {} estimates bit-identical to the \
             sequential path",
            queries.len()
        ))
    }
}

/// Picks the backend and the load shape from the configuration and runs them.
fn run_scenario(
    config: &ServeDemoConfig,
    ctx: &ExperimentContext,
    lines: &mut Vec<String>,
) -> Result<Vec<BenchRecord>, String> {
    // `generate_queries` expands each initial query with perturbed variants, so truncate to
    // the requested workload size exactly.
    let mut generator =
        QueryGenerator::new(&ctx.db, GeneratorConfig::paper(ctx.config.seed ^ 0x5e));
    let mut workload: Vec<Query> = generator.generate_queries(config.queries.max(1));
    workload.truncate(config.queries.max(1));

    // The production-scale sweep builds its own pools (one per requested size) and gates on
    // estimator-quality parity and sublinear work growth instead of bit-parity.
    if let Some(sizes) = &config.pool_scale {
        return run_pool_scale_sweep(config, ctx, sizes, &workload, lines);
    }

    let (model, base_pool) = restore_or_fresh(config, ctx, lines)?;
    // One estimator config for BOTH the served and the sequential path: parity then
    // holds at any --top-k, because the two paths select the same ranked anchor set.
    let estimator_config = Cnt2CrdConfig {
        top_k: config.top_k,
        ..Cnt2CrdConfig::default()
    };
    let fallback = || Box::new(PostgresEstimator::analyze(&ctx.db));
    let scenario = Scenario {
        config,
        ctx,
        workload,
        sequential: Cnt2Crd::new(model, base_pool)
            .with_config(estimator_config)
            .with_fallback(fallback()),
        obs: crn_obs::Obs::new(crn_obs::ObsConfig::enabled()),
    };
    let (model, base_pool) = (
        scenario.sequential.model().clone(),
        scenario.sequential.pool(),
    );

    // Cluster mode: the coordinator over forked worker processes is built from the
    // sequential oracle's own model, pool and configuration, so the parity tripwire spans
    // process boundaries.
    if config.cluster > 0 {
        let exe = std::env::current_exe().map_err(|e| format!("cluster: current_exe: {e}"))?;
        let spawn_started = Instant::now();
        let fleet = WorkerFleet::spawn(&exe, config.cluster, config.threads.max(1))?;
        lines.push(format!(
            "[serve] cluster: forked {} worker processes in {:.0}ms ({})",
            config.cluster,
            spawn_started.elapsed().as_secs_f64() * 1e3,
            fleet
                .addrs()
                .iter()
                .map(|addr| addr.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        ));
        let options = ClusterOptions {
            config: estimator_config,
            worker_timeout: Duration::from_micros(config.worker_timeout_us.max(1)),
            ..ClusterOptions::default()
        };
        let client =
            ClusterClient::connect(fleet.addrs(), model, base_pool, config.shards, options)
                .map_err(|e| format!("cluster: connect failed: {e}"))?
                .with_fallback(fallback());
        let client = Arc::new(client);
        let record = run_closed_loop(&scenario, "cluster", &client, None, lines)?;
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
        client.shutdown_workers();
        fleet.reap(lines);
        return Ok(vec![record]);
    }

    let mut sharded = ShardedPool::from_pool(base_pool, config.shards);
    if config.pool_cap > 0 {
        sharded = sharded.with_capacity(config.pool_cap);
    }
    let service = Arc::new(
        EstimatorService::new(model, sharded, WorkerPool::shared(config.threads.max(1)))
            .with_config(estimator_config)
            .with_fallback(fallback())
            .with_obs(&scenario.obs),
    );
    let record = if config.async_mode {
        // The maintenance lane checkpoints on the `--checkpoint-every` cadence.
        let checkpoint = config.checkpoint_dir.as_ref().map(|dir| {
            lines.push(format!(
                "[serve] checkpointing to {dir} every {} applied maintenance records",
                config.checkpoint_every
            ));
            Arc::new(CheckpointSink::new(Arc::clone(&service), dir.clone()))
                as Arc<dyn CheckpointWriter>
        });
        run_closed_loop(&scenario, "async", &service, checkpoint, lines)?
    } else {
        run_direct(&scenario, &service, lines)?
    };
    Ok(vec![record])
}

/// Startup restore: with `--checkpoint-dir` pointing at a committed checkpoint, the serving
/// state (pool + model, optimizer moments included) comes from disk instead of the
/// freshly-built context — a restarted process resumes exactly where the crashed one
/// checkpointed.  A corrupt or version-skewed checkpoint fails loudly; only a *missing* one
/// falls back to the fresh context.
fn restore_or_fresh(
    config: &ServeDemoConfig,
    ctx: &ExperimentContext,
    lines: &mut Vec<String>,
) -> Result<(CrnModel, QueriesPool), String> {
    if let Some(dir) = config.checkpoint_dir.as_deref() {
        let restore_started = Instant::now();
        match Checkpoint::load(dir) {
            Ok((checkpoint, manifest)) => {
                lines.push(format!(
                    "[serve] restored checkpoint seq {} (model v{}, pool {} entries) from \
                     {dir} in {:.0}us",
                    manifest.sequence,
                    checkpoint.model_version,
                    checkpoint.pool.len(),
                    restore_started.elapsed().as_secs_f64() * 1e6,
                ));
                return Ok((checkpoint.model, checkpoint.pool));
            }
            Err(CheckpointError::Missing) => lines.push(format!(
                "[serve] no committed checkpoint in {dir}; starting fresh"
            )),
            Err(e) => return Err(format!("checkpoint restore from {dir} failed: {e}")),
        }
    }
    Ok((ctx.crn.clone(), ctx.pool.clone()))
}

/// The forked `repro cluster-worker` processes of `--cluster N`.  Dropping the fleet kills
/// and reaps every worker — `Child::drop` does neither, and a worker blocks in its serve
/// loop forever — so no exit path of the driver (an error return, a panic) leaks one.
pub struct WorkerFleet {
    children: Vec<Child>,
    addrs: Vec<SocketAddr>,
}

impl WorkerFleet {
    /// Forks `workers` processes of `exe` in `cluster-worker` mode.  Each binds an ephemeral
    /// loopback port and announces it on stdout as `CLUSTER_WORKER_PORT=<port>` before
    /// blocking in its serve loop.
    pub fn spawn(exe: &std::path::Path, workers: usize, threads: usize) -> Result<Self, String> {
        let mut fleet = WorkerFleet {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        for worker in 0..workers {
            let mut child = Command::new(exe)
                .arg("cluster-worker")
                .arg("--threads")
                .arg(threads.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cluster: fork worker {worker}: {e}"))?;
            let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
            fleet.children.push(child);
            let mut line = String::new();
            let port = loop {
                line.clear();
                let read = stdout
                    .read_line(&mut line)
                    .map_err(|e| format!("cluster: worker {worker} stdout: {e}"))?;
                if read == 0 {
                    return Err(format!(
                        "cluster: worker {worker} exited before announcing its port"
                    ));
                }
                if let Some(rest) = line.trim().strip_prefix("CLUSTER_WORKER_PORT=") {
                    break rest.parse::<u16>().map_err(|e| {
                        format!("cluster: worker {worker} announced a bad port {rest:?}: {e}")
                    })?;
                }
            };
            fleet.addrs.push(SocketAddr::from(([127, 0, 0, 1], port)));
        }
        Ok(fleet)
    }

    /// The workers' loopback addresses, in fleet order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Orderly teardown, after the coordinator sent its Shutdown frames: gives each worker a
    /// bounded grace period to exit on its own and reports the ones that did not — a worker
    /// behind a severed link never saw the frame — which `Drop` then kills.
    fn reap(mut self, lines: &mut Vec<String>) {
        for (worker, child) in self.children.iter_mut().enumerate() {
            let deadline = Instant::now() + Duration::from_secs(5);
            let verdict = loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break None,
                    Ok(Some(status)) => break Some(format!("exited with {status}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20))
                    }
                    Ok(None) => break Some("missed the shutdown grace period; killed".into()),
                    Err(e) => break Some(format!("wait failed: {e}")),
                }
            };
            if let Some(verdict) = verdict {
                lines.push(format!("[serve] cluster: worker {worker} {verdict}"));
            }
        }
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The direct load shape: `workload` through `service.serve` in `batch`-sized calls on the
/// calling thread, each call timed.  Returns the estimates in workload order beside the
/// measurement.
fn serve_direct(
    service: &EstimatorService<CrnModel>,
    workload: &[Query],
    batch: usize,
) -> (Vec<f64>, Measured) {
    let mut estimates = Vec::with_capacity(workload.len());
    let mut latencies_us = Vec::new();
    let mut serve = ServeStats::default();
    let run_started = Instant::now();
    for chunk in workload.chunks(batch.max(1)) {
        let call_started = Instant::now();
        let response = service.serve(chunk);
        latencies_us.push(call_started.elapsed().as_secs_f64() * 1e6);
        estimates.extend(response.estimates);
        serve.accumulate(&response.stats);
    }
    let measured = Measured {
        latencies_us,
        queries: workload.len(),
        elapsed: run_started.elapsed(),
        serve,
        classes: Vec::new(),
        median_q_error: None,
        counters: Vec::new(),
    };
    (estimates, measured)
}

/// `repro serve` without `--async`: the parity tripwire on one direct `serve` of the first
/// batch, then the whole workload through [`serve_direct`].
fn run_direct(
    scenario: &Scenario<'_>,
    service: &EstimatorService<CrnModel>,
    lines: &mut Vec<String>,
) -> Result<BenchRecord, String> {
    let config = scenario.config;
    let response = service.serve(scenario.first_batch());
    lines.push(scenario.verify_parity(&response.estimates, "sync")?);

    let (_, measured) = serve_direct(service, &scenario.workload, config.batch);
    lines.push(format!("[serve] {}", measured.serve.render()));
    lines.push(format!(
        "[serve] served {} queries over {} shards x {} threads in {:.3}s ({:.0} queries/s)",
        measured.queries,
        config.shards,
        config.threads,
        measured.elapsed.as_secs_f64(),
        measured.queries as f64 / measured.elapsed.as_secs_f64().max(1e-9),
    ));
    Ok(BenchRecord::new(config, "sync", config.top_k, measured))
}

/// One request of a closed-loop run, as its caller saw it.
struct Served {
    caller: usize,
    latency_us: f64,
    outcome: Result<TicketOutcome, TicketError>,
}

/// The closed-loop load generator: `callers` threads split `queries` round-robin and each
/// drives its share `passes` times, one request at a time (submit → wait → next;
/// `submit_retrying` absorbs admission sheds).  Returns every request, each caller's in its
/// submission order — with one caller and one pass that is query order.  Nothing is
/// unwrapped: under deadlines a ticket may resolve `Expired`, and what must never happen
/// is a `wait()` that does not return.
fn drive_closed_loop<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    callers: usize,
    passes: usize,
    queries: &[Query],
) -> Result<Vec<Served>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|caller| {
                scope.spawn(move || {
                    let mut own = Vec::new();
                    for _ in 0..passes {
                        for query in queries.iter().skip(caller).step_by(callers) {
                            let submitted = Instant::now();
                            let outcome = runtime
                                .submit_retrying(caller as u64, query)
                                .map_err(|e| format!("caller {caller}: submission failed: {e}"))?
                                .wait();
                            own.push(Served {
                                caller,
                                latency_us: submitted.elapsed().as_secs_f64() * 1e6,
                                outcome,
                            });
                        }
                    }
                    Ok::<_, String>(own)
                })
            })
            .collect();
        let mut served = Vec::new();
        for handle in handles {
            served.extend(handle.join().expect("caller thread")?);
        }
        Ok(served)
    })
}

/// The estimates of a parity pass in query order; a ticket that resolved without a
/// full-fidelity estimate (expired, failed, or degraded by a lost worker) fails the check.
fn parity_estimates(served: &[Served]) -> Result<Vec<f64>, String> {
    served
        .iter()
        .enumerate()
        .map(|(index, request)| match &request.outcome {
            Ok(outcome) if outcome.is_computed() => Ok(outcome.estimate),
            Ok(_) => Err(format!(
                "query {index} of the parity batch was served degraded — backend unhealthy"
            )),
            Err(e) => Err(format!(
                "query {index} of the parity batch did not resolve: {e}"
            )),
        })
        .collect()
}

/// The closed-loop shape (`--async` over the in-process service, `--cluster N` over the
/// coordinator — `mode` names which): a [`ServeRuntime`] over `backend`, the parity tripwire
/// through the whole queue → scheduler → backend path, the measured closed-loop run, the
/// warm-cache parity replay, then maintenance-lane feedback.
fn run_closed_loop<B: ComputeBackend>(
    scenario: &Scenario<'_>,
    mode: &str,
    backend: &Arc<B>,
    checkpoint: Option<Arc<dyn CheckpointWriter>>,
    lines: &mut Vec<String>,
) -> Result<BenchRecord, String> {
    let (config, obs) = (scenario.config, &scenario.obs);
    let callers = config.callers.max(1);
    let runtime = ServeRuntime::new(
        Arc::clone(backend),
        runtime_config(config, callers).with_obs(obs.clone()),
    );
    if let Some(writer) = checkpoint {
        runtime.set_checkpoint_writer(writer);
    }
    let emitter = spawn_metrics_emitter(config, obs, lines)?;
    lines.push(format!(
        "[serve] {mode} runtime up: window {}us, queue depth {}, per-caller quota {}, \
         batch max {}, deadline {}",
        config.batch_window_us,
        runtime.config().queue_depth,
        runtime.config().per_caller_depth,
        runtime.config().batch_max,
        match config.deadline_us {
            Some(us) => format!("{us}us"),
            None => "off".to_string(),
        },
    ));

    // Mixed SLO-class traffic: setting either class knob registers every odd-indexed
    // caller as `Batch`-class, so the run exercises per-class windows and (with
    // `--class-weights`) the weighted admission shares.
    let mut class_callers = [callers, 0];
    if config.class_window_us.is_some() || config.class_weights.is_some() {
        for caller in (1..callers).step_by(2) {
            runtime.register_caller(caller as u64, SloClass::Batch);
        }
        class_callers = [callers - callers / 2, callers / 2];
        lines.push(format!(
            "[serve] SLO classes on: {} interactive + {} batch callers, weights {}, cache \
             {} entries",
            class_callers[0],
            class_callers[1],
            match config.class_weights {
                Some((i, b)) => format!("{i}:{b}"),
                None => "off".to_string(),
            },
            config.cache_entries,
        ));
    }

    // Parity tripwire, one caller one request at a time: the warmup then neither skews
    // `max_batch` nor the fusion stats of the measured run below.
    let parity_pass = |label: &str| {
        let served = drive_closed_loop(&runtime, 1, 1, scenario.first_batch())?;
        scenario.verify_parity(&parity_estimates(&served)?, label)
    };
    lines.push(parity_pass(mode)?);

    // The measured run.  With the cache on the workload runs twice, so the second pass
    // measures the hit path.  The fusion figures reported below delta against this
    // snapshot so the parity warmup stays out of them.
    let passes = if config.cache_entries > 0 { 2 } else { 1 };
    let pre_load = runtime.stats();
    let run_started = Instant::now();
    let served = drive_closed_loop(&runtime, callers, passes, &scenario.workload)?;
    let elapsed = run_started.elapsed();

    // Cache parity tripwire: with the cache warm, re-serving the warmup batch replays
    // from it — and must STILL be bit-identical to the sequential single-query path.
    // (Runs before the feedback phase: maintenance upserts move the pool version, which
    // by design would turn these replays back into recomputations.)
    if config.cache_entries > 0 {
        lines.push(parity_pass(&format!("{mode}, warm cache"))?);
    }

    // The maintenance lane: feed true cardinalities of the first few served queries back
    // into the pool (the §5.2 refresh loop; in cluster mode each upsert is forwarded to
    // the owning worker) and wait for the upserts to land.
    let executor = crn_exec::Executor::new(&scenario.ctx.db);
    for query in scenario.workload.iter().take(8) {
        let cardinality = executor.cardinality(query);
        if runtime.record_feedback(query.clone(), cardinality).is_err() {
            break;
        }
    }
    runtime.flush();

    let class_windows = SloClass::ALL.map(|class| runtime.config().class_window(class));
    // Expired/failed tickets are visible in the runtime's own counters; only served
    // requests fund the latency samples.
    let mut class_us: [Vec<f64>; SloClass::COUNT] = Default::default();
    let mut spans: Vec<crn_obs::RequestTrace> = Vec::new();
    for request in &served {
        if let Ok(outcome) = &request.outcome {
            let class = runtime.caller_class(request.caller as u64);
            class_us[class.index()].push(request.latency_us);
            spans.extend(outcome.trace);
        }
    }
    let stats = runtime.shutdown();

    let latencies_us = class_us.concat();
    let queries = latencies_us.len();
    lines.push(format!(
        "[serve] served {queries} queries via {callers} callers in {:.3}s ({:.0} queries/s)",
        elapsed.as_secs_f64(),
        queries as f64 / elapsed.as_secs_f64().max(1e-9),
    ));
    let load_batches = stats.batches - pre_load.batches;
    lines.push(format!(
        "[serve] {mode}: {} completed in {} batches (mean batch {:.2}, max {}) — {} \
         size-closed, {} window-closed, {} drain-closed; maintenance applied {} refreshes, \
         {} failed",
        stats.completed - pre_load.completed,
        load_batches,
        (stats.completed - pre_load.completed) as f64 / load_batches.max(1) as f64,
        stats.max_batch,
        stats.size_closes - pre_load.size_closes,
        stats.window_closes - pre_load.window_closes,
        stats.drain_closes - pre_load.drain_closes,
        stats.maintenance_applied,
        stats.maintenance_failed,
    ));
    lines.push(format!(
        "[serve] aggregate (incl. parity warmup) {}",
        stats.serve.render()
    ));
    // The complete counter audit — rejections, cache, resilience, checkpoints — printed
    // from the same enumeration the field-coverage test in crn-serve pins, so a counter
    // added to `RuntimeStats` can never silently be missing here or in the record.
    let counters = stats.counter_fields();
    lines.push(format!(
        "[serve] runtime counters: {}",
        counters
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    // Per class: the sort-based percentiles, cross-checked against the same samples
    // replayed through a crn-obs log₂ histogram.
    let mut classes: Vec<ClassLatency> = Vec::new();
    for class in SloClass::ALL {
        let sample = &mut class_us[class.index()];
        if sample.is_empty() {
            continue;
        }
        let hist = obs.hist(&format!("driver.latency_us.{}", class.name()));
        for &latency in sample.iter() {
            hist.record(latency as u64);
        }
        let summary = ClassLatency {
            class: class.name(),
            callers: class_callers[class.index()],
            window_us: class_windows[class.index()].as_micros() as u64,
            requests: sample.len(),
            p50_us: percentile_us(sample, 0.50),
            p99_us: percentile_us(sample, 0.99),
            hist_p50_us: hist.quantile(0.50),
            hist_p99_us: hist.quantile(0.99),
        };
        lines.push(check_hist_vs_sort(&summary)?);
        classes.push(summary);
    }
    // The SLO tripwire: when the batch class genuinely batches longer than the
    // interactive window, interactive tail latency must sit strictly below batch tail
    // latency — otherwise the classes aren't isolating and the run fails.
    if let [interactive, batch] = &classes[..] {
        if batch.window_us > interactive.window_us {
            if interactive.p99_us >= batch.p99_us {
                return Err(format!(
                    "SLO violation: interactive p99 {:.0}us is not strictly below batch p99 \
                     {:.0}us despite a {}us batch-class window",
                    interactive.p99_us, batch.p99_us, batch.window_us
                ));
            }
            lines.push(format!(
                "[serve] SLO holds: interactive p99 {:.0}us < batch p99 {:.0}us",
                interactive.p99_us, batch.p99_us
            ));
        }
    }

    // Per-request phase breakdown: mean of each span segment over every resolved
    // request that carried a trace (computed and cache-hit paths both do).
    let span_mean = |segment: fn(&crn_obs::RequestTrace) -> u64| {
        spans.iter().map(|trace| segment(trace) as f64).sum::<f64>() / spans.len().max(1) as f64
    };
    lines.push(format!(
        "[serve] span breakdown over {} requests (mean µs): queue-wait {:.0}, batch-wait \
         {:.0}, cache-probe {:.0}, shard-compute {:.0}, merge {:.0}",
        spans.len(),
        span_mean(|t| t.queue_wait_us),
        span_mean(|t| t.batch_wait_us),
        span_mean(|t| t.cache_probe_us),
        span_mean(|t| t.shard_compute_us),
        span_mean(|t| t.merge_us),
    ));
    finish_metrics(emitter, obs, lines);

    let measured = Measured {
        latencies_us,
        queries,
        elapsed,
        serve: stats.serve,
        classes,
        median_q_error: None,
        counters,
    };
    Ok(BenchRecord::new(config, mode, config.top_k, measured))
}

/// The runtime configuration of the closed-loop shape: batching knobs, SLO classes, cache
/// and the fault-tolerance knobs (deadlines, checkpoint and compaction cadence).
fn runtime_config(config: &ServeDemoConfig, callers: usize) -> RuntimeConfig {
    let mut runtime_config = RuntimeConfig::default()
        .with_window_us(config.batch_window_us)
        .with_queue_depth(config.queue_depth.max(1))
        .with_per_caller_depth((config.queue_depth.max(1) / callers).max(1))
        .with_batch_max(config.batch.max(1))
        .with_checkpoint_every(config.checkpoint_every)
        .with_cache_entries(config.cache_entries)
        .with_compact_every(config.compact_every);
    if let Some(micros) = config.deadline_us {
        runtime_config = runtime_config.with_deadline_us(micros);
    }
    if let Some(micros) = config.batch_deadline_us {
        runtime_config = runtime_config.with_class_deadline_us(SloClass::Batch, micros);
    }
    if let Some(micros) = config.class_window_us {
        runtime_config = runtime_config.with_class_window_us(SloClass::Batch, micros);
    }
    if let Some((interactive, batch)) = config.class_weights {
        runtime_config = runtime_config.with_class_weights([interactive, batch]);
    }
    runtime_config
}

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
        Duration::from_millis(interval_ms),
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

/// The histogram/sort agreement tripwire: a class's measured latencies were replayed into
/// a `crn-obs` log₂ histogram, so each reported percentile must land within one bucket of
/// the sort-based oracle over the identical sample — else the histogram path is broken and
/// the run fails loudly.
fn check_hist_vs_sort(class: &ClassLatency) -> Result<String, String> {
    for (label, hist_value, sorted_value) in [
        ("p50", class.hist_p50_us, class.p50_us),
        ("p99", class.hist_p99_us, class.p99_us),
    ] {
        let hist_bucket = crn_obs::bucket_index(hist_value);
        let sorted_bucket = crn_obs::bucket_index(sorted_value as u64);
        if hist_bucket.abs_diff(sorted_bucket) > 1 {
            return Err(format!(
                "histogram/sort divergence on {} {label}: hist {hist_value}us (bucket \
                 {hist_bucket}) vs sorted {sorted_value:.0}us (bucket {sorted_bucket}) over \
                 {} samples",
                class.class, class.requests
            ));
        }
    }
    Ok(format!(
        "[serve] {} latency ({} callers, {}us window, {} requests): p50 {:.0}us p99 {:.0}us; \
         the log2 histogram agrees (p50 {}us p99 {}us)",
        class.class,
        class.callers,
        class.window_us,
        class.requests,
        class.p50_us,
        class.p99_us,
        class.hist_p50_us,
        class.hist_p99_us,
    ))
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
/// similar anchors; only those reach the model) — one [`BenchRecord`] per arm with its
/// per-query p50/p99, median q-error and mean anchors scored per query.
///
/// Hard gates (each returns `Err`, so `repro` exits non-zero and CI fails loudly).  They
/// gate on the work the tier exists to bound — anchors scored per query, an exact count the
/// serving core takes where it calls the model (`ServeStats::anchors_scored`), so a serve
/// that ignored `top_k` or scanned the whole bucket would show — and not on the two arms'
/// p50s, which are reported: one run's p50 of 64 single-query serves moves ± 30 % on a
/// shared host, and the comparison failed 3 runs in 8 on unchanged code.
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
    workload: &[Query],
    lines: &mut Vec<String>,
) -> Result<Vec<BenchRecord>, String> {
    if sizes.is_empty() {
        return Err("--pool-scale needs at least one size".to_string());
    }
    let top_k = if config.top_k > 0 { config.top_k } else { 32 };
    let workers = WorkerPool::shared(config.threads.max(1));
    let executor = crn_exec::Executor::new(&ctx.db);
    let truths: Vec<f64> = workload
        .iter()
        .map(|q| executor.cardinality(q) as f64)
        .collect();
    lines.push(format!(
        "[serve] pool-scale sweep: sizes {:?}, top-K {top_k}, {} queries/arm, q-error \
         budget {:.2}x",
        sizes,
        workload.len(),
        config.q_error_budget,
    ));

    // Two records per size: the full arm, then the top-K arm.
    let mut records: Vec<BenchRecord> = Vec::new();
    for &size in sizes {
        let pool = synthesize_pool(&ctx.pool, size)?;
        let [(full, full_median), (topk, topk_median)] = [0, top_k].map(|k| {
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
            let (estimates, mut measured) = serve_direct(&service, workload, 1);
            let pairs: Vec<(f64, f64)> =
                estimates.into_iter().zip(truths.iter().copied()).collect();
            let median = QErrorSummary::from_pairs(&pairs, crate::metrics::CARDINALITY_FLOOR).p50;
            measured.median_q_error = Some(median);
            let mode = if k == 0 {
                "pool-scale-full"
            } else {
                "pool-scale-topk"
            };
            (BenchRecord::new(config, mode, k, measured), median)
        });
        lines.push(format!(
            "[serve] pool {} entries: full {:.1} anchors/query, p50 {:.0}us (median q-error \
             {:.3}) vs top-{} {:.1} anchors/query, p50 {:.0}us (median q-error {:.3})",
            pool.len(),
            full.anchors_per_query,
            full.p50_us,
            full_median,
            top_k,
            topk.anchors_per_query,
            topk.p50_us,
            topk_median,
        ));
        // The estimator-quality parity budget, per size.
        if topk_median > full_median * config.q_error_budget {
            return Err(format!(
                "pool-scale quality violation at {} entries: top-{top_k} median q-error \
                 {topk_median:.3} exceeds the full-pool {full_median:.3} by more than the \
                 {:.2}x budget",
                pool.len(),
                config.q_error_budget,
            ));
        }
        records.extend([full, topk]);
    }

    // With at least two sizes: the first size's top-K arm against the last size's two arms.
    if let [_, first_topk, .., last_full, last_topk] = &records[..] {
        let last_size = last_topk.pool_entries;
        let size_ratio = last_size as f64 / first_topk.pool_entries.max(1) as f64;
        let growth = last_topk.anchors_per_query / first_topk.anchors_per_query.max(1e-9);
        if growth > 0.5 * size_ratio {
            return Err(format!(
                "pool-scale work violation: top-{top_k} scored {growth:.2}x the anchors per \
                 query over a {size_ratio:.2}x pool-size ratio (bound: {:.2}x) — retrieval \
                 is not sublinear",
                0.5 * size_ratio,
            ));
        }
        if last_topk.anchors_per_query >= last_full.anchors_per_query {
            return Err(format!(
                "pool-scale work violation: top-{top_k} scores {:.1} anchors per query, not \
                 fewer than the full pool's {:.1}, at {last_size} entries",
                last_topk.anchors_per_query, last_full.anchors_per_query,
            ));
        }
        lines.push(format!(
            "[serve] pool-scale gates hold: top-{top_k} anchors/query grew {growth:.2}x over \
             a {size_ratio:.2}x size ratio (bound {:.2}x), {:.1} vs the full path's {:.1} at \
             {last_size} entries",
            0.5 * size_ratio,
            last_topk.anchors_per_query,
            last_full.anchors_per_query,
        ));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(name: &str) -> (ServeDemoConfig, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("crn_serve_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serving.json");
        let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
        config.queries = 24;
        config.batch = 8;
        config.shards = 2;
        config.threads = 2;
        config.bench_json = Some(path.to_string_lossy().to_string());
        (config, dir)
    }

    fn bench_json(config: &ServeDemoConfig, dir: &std::path::Path) -> String {
        let json = std::fs::read_to_string(config.bench_json.as_ref().unwrap())
            .expect("bench json written");
        std::fs::remove_dir_all(dir).ok();
        assert!(json.contains(BENCH_SCHEMA));
        json
    }

    #[test]
    fn serve_demo_runs_on_the_tiny_preset() {
        let (config, dir) = tiny_config("sync");
        let report = run_serve_demo(&config).expect("parity holds");
        assert!(report.contains("parity check passed (sync)"));
        assert!(report.contains("served 24 queries over 2 shards x 2 threads"));
        let json = bench_json(&config, &dir);
        assert!(json.contains("\"mode\":\"sync\""));
        assert!(json.contains("\"queries\":24,\"samples\":3,"));
    }

    /// The mixed SLO/cache run: batch-class callers ride a long window behind
    /// interactive traffic (interactive p99 strictly below batch p99 — the in-run
    /// tripwire), warm cache replays stay bit-identical to sequential serving, and the
    /// per-class split and cache counters land in the record.
    #[test]
    fn mixed_slo_cache_demo_isolates_classes_and_hits_the_cache() {
        let (mut config, dir) = tiny_config("slo_cache");
        config.async_mode = true;
        config.batch_window_us = 100;
        config.queue_depth = 16;
        config.callers = 4;
        config.class_window_us = Some(20_000);
        config.class_weights = Some((3, 1));
        config.cache_entries = 256;
        let report = run_serve_demo(&config).expect("parity and the SLO hold");
        assert!(report.contains("SLO classes on: 2 interactive + 2 batch callers"));
        assert!(report.contains("parity check passed (async, warm cache)"));
        assert!(report.contains("SLO holds"));
        let json = bench_json(&config, &dir);
        assert!(json.contains("\"class\":\"interactive\",\"callers\":2,\"window_us\":100,"));
        assert!(json.contains("\"class\":\"batch\",\"callers\":2,\"window_us\":20000,"));
        assert!(json.contains("\"cache_entries\":256"));
        // The second workload pass replays pass 1 from the cache, so hits are
        // structurally nonzero.
        assert!(json.contains("[\"cache_hits\","));
        assert!(!json.contains("[\"cache_hits\",0]"));
    }

    /// Top-K serving stays bit-identical to the sequential path when BOTH run the same
    /// `Cnt2CrdConfig`: the parity tripwire holds at k > 0, not just on the full-pool
    /// path.  (`--top-k 0` bit-parity with the pre-pool-tier semantics is pinned by
    /// every other test in this module — the default config leaves `top_k` at 0.)
    #[test]
    fn serve_demo_parity_holds_with_top_k_selection() {
        let (mut config, dir) = tiny_config("top_k");
        config.shards = 3;
        config.top_k = 4;
        let report = run_serve_demo(&config).expect("top-K parity holds");
        assert!(report.contains("parity check passed"));
        assert!(bench_json(&config, &dir).contains("\"top_k\":4"));
    }

    /// The pool-scale sweep on the tiny preset: synthesized pools at two sizes, both
    /// arms measured, the q-error budget and the sublinear/top-K-wins work gates
    /// enforced, and one record per arm (pool_entries, top_k, median_q_error).
    #[test]
    fn pool_scale_sweep_gates_hold_and_emit_bench_json() {
        let (mut config, dir) = tiny_config("pool_scale");
        config.top_k = 8;
        config.pool_scale = Some(vec![300, 1500]);
        config.q_error_budget = 1.25;
        let report = run_serve_demo(&config).expect("sweep gates hold");
        assert!(report.contains("pool-scale sweep: sizes [300, 1500]"));
        assert!(report.contains("pool-scale gates hold"));
        let json = bench_json(&config, &dir);
        assert_eq!(json.matches("\"mode\":\"pool-scale-full\"").count(), 2);
        assert_eq!(json.matches("\"mode\":\"pool-scale-topk\"").count(), 2);
        assert_eq!(json.matches("\"top_k\":8").count(), 2);
        assert_eq!(json.matches("\"pool_entries\":300,").count(), 2);
        assert_eq!(json.matches("\"pool_entries\":1500,").count(), 2);
        assert!(!json.contains("\"median_q_error\":null"));
    }

    #[test]
    fn async_serve_demo_runs_and_emits_bench_json() {
        let (mut config, dir) = tiny_config("async");
        config.async_mode = true;
        config.batch_window_us = 100;
        config.queue_depth = 16;
        config.callers = 3;
        let report = run_serve_demo(&config).expect("parity holds");
        assert!(report.contains("async runtime up"));
        assert!(report.contains("parity check passed (async)"));
        assert!(report.contains("maintenance applied 8 refreshes, 0 failed"));
        let json = bench_json(&config, &dir);
        assert!(json.contains("\"mode\":\"async\""));
        assert!(json.contains("\"queries\":24,\"samples\":24,"));
        assert!(json.contains("[\"maintenance_applied\",8]"));
        assert!(json.contains("\"median_q_error\":null"));
    }
}
