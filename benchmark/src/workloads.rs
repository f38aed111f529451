//! The six workloads.  Each run: set-up (timed, repeated) → correctness pass → warm-up →
//! measured phase → post-checks.  A traced run measures an untraced reference phase and
//! a traced phase in the same process and adds the layer walk.

use crate::fixture::{
    check_bit_parity, Fixture, CORPUS_QUERIES, HELD_OUT_PAIRS, SERVING_SHARDS, SERVING_THREADS,
};
use crate::gen::{poisson_arrivals_ns, synthesize_pool, visiting_order};
use crate::layers::{self, TRAIN_PAIRS_PER_STEP};
use crate::load::{self, FeedbackLog, OpenLog, Rec, Status, Window, BURST};
use crate::report::{Metrics, Outcome};
use crate::stats::{self, PhaseSummary, RoundSample};
use crate::trace::{self, BackendSpan, Span, TracedBackend};
use crate::Args;
use crn_cluster::{spawn_worker, ClusterClient, ClusterOptions};
use crn_core::{CrnModel, EstimatorService, QueriesPool, RATE_FLOOR};
use crn_estimators::PostgresEstimator;
use crn_exec::Executor;
use crn_nn::{q_error, Adam, WorkerPool};
use crn_obs::{Obs, ObsConfig};
use crn_query::ast::Query;
use crn_serve::{ComputeBackend, RuntimeConfig, RuntimeStats, ServeRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.  `--seconds` is shared equally by
/// the instances measured on them, and the latency, rate and CPU figures are taken over
/// all of them pooled.
const ROUNDS: usize = 3;
/// Service + runtime instances measured per set-up on the in-process tier (the cluster
/// measures one: connecting and shipping the shards takes 1.6 s).  How fast an instance
/// runs moves between two modes on a shared host (± 15 % on `point_closed`, lasting
/// seconds), so a run measures nine of them and not one.
const LOCAL_INSTANCES_PER_SETUP: usize = 3;
/// Untimed lead-in of every measured window (after the warm pass filled the caches).
const WARM_UP: Duration = Duration::from_millis(300);
/// `train_step`: untimed steps before measuring.  A clone of the trained model steps in
/// ≈ 6 ms at first and slows to ≈ 11 ms over its first ≈ 250 steps, then stays there.
const TRAIN_WARM_STEPS: usize = 300;
/// Closed-loop callers / sessions (= the box's cores).
const CALLERS: usize = 2;
/// `open_sessions`: planner sessions per second.
const SESSION_RATE: f64 = 600.0;
/// `open_sessions`: queue depth (and the one sender's quota).  An open loop never waits, so
/// the default depth of 64 refuses requests whenever the host stalls the scheduler thread
/// for 13 ms (64 ÷ 4,800/s), which a shared 2-core box does now and then; 512 rides out
/// 100 ms.  Refusals still count as failures.
const OPEN_QUEUE_DEPTH: usize = 512;
/// `planner_feedback`: hot queries, their skew, the estimate cache and the write ratio
/// (one feedback record per 8 bursts of 8 = 1 write : 64 reads).
const HOT_QUERIES: usize = 512;
const ZIPF_EXPONENT: f64 = 1.1;
const CACHE_ENTRIES: usize = 1_024;
const WRITE_EVERY_BURSTS: usize = 8;
/// `bulk_sync`: queries per `serve` call and entries of the synthesised pool.
const BULK_BATCH: usize = 32;
/// `bulk_sync`: batches of the warm pass.  512 queries beside the probe's 256 touch every
/// FROM clause the pool has anchors for; the whole corpus would take 1.5 s per round.
const BULK_WARM_BATCHES: usize = 16;
const LARGE_POOL_ENTRIES: usize = 5_000;
/// `train_step`: steps before the held-out accuracy check.
const ACCURACY_STEPS: usize = 50;
/// Rungs of the rate ladder, sessions per second.
const LADDER: [(f64, &str, &str); 3] = [
    (
        300.0,
        "loadgen.ladder_p99_us.r300",
        "loadgen.ladder_backlog_growth.r300",
    ),
    (
        600.0,
        "loadgen.ladder_p99_us.r600",
        "loadgen.ladder_backlog_growth.r600",
    ),
    (
        1_200.0,
        "loadgen.ladder_p99_us.r1200",
        "loadgen.ladder_backlog_growth.r1200",
    ),
];
/// Traced batches kept for the cluster's local replay and wire metrics.
const KEPT_BATCHES: usize = 2_000;
/// Where the span files go (relative to the repository root the command runs from).
const OUT_DIR: &str = "benchmark/out";
/// A generator this late at its p99 makes an open-loop run suspect.
const LAG_FLAG_US: f64 = 1_000.0;

/// How a runtime workload loads its runtime.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// `CALLERS` closed-loop callers, one request in flight each.
    Closed,
    /// Poisson session arrivals, bursts of [`BURST`], never waiting.
    Open,
    /// `CALLERS` closed-loop sessions of Zipf bursts with feedback writes.
    Feedback,
}

/// One of the four workloads that go through `ServeRuntime`.
#[derive(Clone, Copy)]
struct RuntimeSpec {
    shape: Shape,
    cluster: bool,
    /// Latency limit, µs.
    slo_us: f64,
}

/// Runs `args.workload`.
pub fn execute(args: &Args) -> Result<Outcome, String> {
    let spec = |shape, cluster, slo_ms: f64| RuntimeSpec {
        shape,
        cluster,
        slo_us: slo_ms * 1e3,
    };
    match args.workload.as_str() {
        "point_closed" => runtime_workload(args, spec(Shape::Closed, false, 5.0)),
        "cluster_point" => runtime_workload(args, spec(Shape::Closed, true, 10.0)),
        "open_sessions" => runtime_workload(args, spec(Shape::Open, false, 10.0)),
        "planner_feedback" => runtime_workload(args, spec(Shape::Feedback, false, 20.0)),
        "bulk_sync" => bulk_sync(args),
        "train_step" => train_step(args),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            crate::report::WORKLOADS.join(", ")
        )),
    }
}

/// Builds the fixture and the workload's own state; returns them with the set-up time in
/// seconds.
fn timed_setup<S>(
    args: &Args,
    workload_setup: impl FnOnce(&Fixture) -> Result<S, String>,
) -> Result<(Fixture, S, f64), String> {
    let start = Instant::now();
    let fixture = Fixture::build(args.fixture_seed);
    let state = workload_setup(&fixture)?;
    let seconds = start.elapsed().as_secs_f64();
    Ok((fixture, state, seconds))
}

/// One measured round: the requests logged around it, its interval on their clock, and
/// the process CPU seconds spent inside the interval.
struct Round {
    recs: Vec<Rec>,
    start_ns: u64,
    end_ns: u64,
    cpu_s: f64,
}

impl Round {
    /// The whole measured interval of `window` as one round.
    fn whole(window: &Window, recs: Vec<Rec>, cpu_s: &[f64]) -> Round {
        Round {
            recs,
            start_ns: window.warm_end_ns,
            end_ns: window.end_ns,
            cpu_s: cpu_s.iter().sum(),
        }
    }
}

/// The end-to-end view of a run.
struct EndToEnd {
    summary: PhaseSummary,
    attempted: u64,
    failed: u64,
    throughput_ops: f64,
    cpu_us_per_op: f64,
    succeeded_frac: f64,
    slo_met_frac: f64,
}

/// Reduces the records due inside each round; a record stands for `ops` operations.
fn end_to_end(rounds: &[Round], ops: u64, slo_us: f64) -> EndToEnd {
    let mut attempted = 0u64;
    let mut succeeded = 0u64;
    let mut within_slo = 0u64;
    let mut samples = Vec::with_capacity(rounds.len());
    for round in rounds {
        let measured = |rec: &&Rec| rec.due_ns >= round.start_ns && rec.due_ns < round.end_ns;
        attempted += round.recs.iter().filter(measured).count() as u64;
        let answered: Vec<f64> = round
            .recs
            .iter()
            .filter(measured)
            .filter(|rec| rec.status.ok())
            .map(Rec::latency_us)
            .collect();
        succeeded += answered.len() as u64;
        within_slo += answered.iter().filter(|&&us| us <= slo_us).count() as u64;
        samples.push(RoundSample {
            latencies_us: answered,
            length_ns: round.end_ns - round.start_ns,
        });
    }
    let summary = stats::summarize_rounds(&samples);
    EndToEnd {
        throughput_ops: summary.records_per_s * ops as f64,
        cpu_us_per_op: rounds.iter().map(|round| round.cpu_s).sum::<f64>() * 1e6
            / (succeeded * ops).max(1) as f64,
        succeeded_frac: succeeded as f64 / attempted.max(1) as f64,
        slo_met_frac: within_slo as f64 / attempted.max(1) as f64,
        attempted: attempted * ops,
        failed: (attempted - succeeded) * ops,
        summary,
    }
}

/// Files the end-to-end metrics and their provenance notes.
fn report_end_to_end(
    outcome: &mut Outcome,
    e2e: &EndToEnd,
    setup_seconds: &mut [f64],
    median_q_error: f64,
) {
    outcome.attempted = e2e.attempted;
    outcome.failed = e2e.failed;
    let m = &mut outcome.metrics;
    m.insert("setup_s", stats::median(setup_seconds));
    m.insert("latency_p50_us", e2e.summary.latency_p50_us);
    m.insert("latency_p95_us", e2e.summary.latency_p95_us);
    m.insert("throughput_ops", e2e.throughput_ops);
    m.insert("cpu_us_per_op", e2e.cpu_us_per_op);
    m.insert("peak_rss_mb", stats::peak_rss_mb());
    m.insert("succeeded_frac", e2e.succeeded_frac);
    m.insert("slo_met_frac", e2e.slo_met_frac);
    m.insert("median_q_error", median_q_error);
    outcome.notes.push(format!(
        "percentiles are of {} latency samples pooled (the p95 sets aside the {} of {} measured windows with the worst p95); the p99 of all samples is {:.1} us (not gated)",
        e2e.summary.samples,
        e2e.summary.rounds_left_out,
        e2e.summary.round_p50_us.len(),
        e2e.summary.latency_p99_us
    ));
    outcome.notes.push(format!(
        "round medians, us: {}",
        e2e.summary
            .round_p50_us
            .iter()
            .map(|us| format!("{us:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

fn setup_metrics(fixture: &Fixture, metrics: &mut Metrics) {
    metrics.insert("setup.db_ms", fixture.timings.db_ms);
    metrics.insert("setup.label_ms", fixture.timings.label_ms);
    metrics.insert("setup.train_ms", fixture.timings.train_ms);
    metrics.insert("setup.pool_ms", fixture.timings.pool_ms);
}

/// The oracle's probe estimates, with one bit of one estimate flipped when the run was
/// asked to prove the parity tripwire fires.
fn oracle_for(args: &Args, fixture: &Fixture, pool: &QueriesPool) -> Vec<f64> {
    let mut oracle = fixture.oracle_estimates(pool, &fixture.probe);
    if args.flip_oracle_bit {
        oracle[0] = f64::from_bits(oracle[0].to_bits() ^ 1);
    }
    oracle
}

// ---------------------------------------------------------------------------------
// The four runtime workloads.
// ---------------------------------------------------------------------------------

/// Two in-process cluster workers on loopback TCP and the coordinator connected to them.
struct Cluster {
    client: Arc<ClusterClient>,
    workers: Vec<std::thread::JoinHandle<()>>,
    connect_ship_ms: f64,
}

impl Cluster {
    fn connect(fixture: &Fixture, obs: &Obs) -> Result<Cluster, String> {
        let mut addrs = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..SERVING_SHARDS {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| format!("cluster: bind a loopback port: {e}"))?;
            addrs.push(listener.local_addr().map_err(|e| format!("cluster: {e}"))?);
            // One compute thread per worker: two workers fill the two cores.
            workers.push(spawn_worker(listener, 1));
        }
        let options = ClusterOptions {
            // Shipping the shards takes longer than the default 2 s allows.
            worker_timeout: Duration::from_secs(60),
            ..ClusterOptions::default()
        };
        let start = Instant::now();
        let client = ClusterClient::connect(
            &addrs,
            fixture.model.clone(),
            &fixture.base_pool,
            SERVING_SHARDS,
            options,
        )
        .map_err(|e| format!("cluster: connect failed: {e}"))?
        .with_fallback(Box::new(PostgresEstimator::analyze(&fixture.db)));
        let connect_ship_ms = start.elapsed().as_secs_f64() * 1e3;
        let client = if obs.enabled() {
            client.with_obs(obs)
        } else {
            client
        };
        Ok(Cluster {
            client: Arc::new(client),
            workers,
            connect_ship_ms,
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.client.shutdown_workers();
        for worker in self.workers.drain(..) {
            // A worker that panicked already failed the run through a lost-worker check.
            let _ = worker.join();
        }
    }
}

/// The compute tier a runtime workload schedules onto.
enum Tier {
    Local(Arc<EstimatorService<CrnModel>>),
    Cluster(Cluster),
}

/// A runtime workload's state: its compute tier and, for `planner_feedback`, the hot
/// queries with their true cardinalities.
struct Serving {
    tier: Tier,
    hot: Vec<Query>,
    hot_truth: Vec<u64>,
    /// See [`layout_pad`]; held while the tier lives.
    _layout_pad: Vec<Vec<u8>>,
}

/// Untouched heap blocks of seeded random sizes, allocated just before an instance's
/// compute tier is built.  How fast an `EstimatorService` computes depends on where its
/// matrices and prepared anchors land in memory (`point_closed`: ≈ 360 µs per request in
/// one layout, ≈ 455 µs in another, the same for an instance's whole life), and a tier
/// built where the previous one was just freed gets the previous one's addresses.  The pad
/// moves every instance somewhere else, so a run samples nine layouts and not three.
fn layout_pad(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c61796f7574);
    (0..rng.gen_range(1..32))
        .map(|_| Vec::with_capacity(rng.gen_range(64..512 * 1024usize)))
        .collect()
}

fn tier_setup(fixture: &Fixture, spec: RuntimeSpec, obs: &Obs) -> Result<Tier, String> {
    Ok(if spec.cluster {
        Tier::Cluster(Cluster::connect(fixture, obs)?)
    } else {
        Tier::Local(Arc::new(fixture.service(
            &fixture.base_pool,
            SERVING_SHARDS,
            WorkerPool::new(SERVING_THREADS),
            obs,
        )))
    })
}

impl Serving {
    /// The same hot set over a newly built compute tier (the old one is torn down first).
    fn on_fresh_tier(
        self,
        fixture: &Fixture,
        spec: RuntimeSpec,
        pad_seed: u64,
        obs: &Obs,
    ) -> Result<Serving, String> {
        let Serving {
            tier,
            hot,
            hot_truth,
            _layout_pad,
        } = self;
        drop((tier, _layout_pad));
        let pad = layout_pad(pad_seed);
        Ok(Serving {
            tier: tier_setup(fixture, spec, obs)?,
            hot,
            hot_truth,
            _layout_pad: pad,
        })
    }
}

fn serving_setup(
    fixture: &Fixture,
    spec: RuntimeSpec,
    fixture_seed: u64,
    pad_seed: u64,
    obs: &Obs,
) -> Result<Serving, String> {
    let pad = layout_pad(pad_seed);
    let tier = tier_setup(fixture, spec, obs)?;
    let (hot, hot_truth) = if spec.shape == Shape::Feedback {
        // Which corpus queries are hot, and how hot, is part of the state: Zipf(1.1) gives
        // the ten hottest half of the draws, so a hot set per `--seed` made the run's cost
        // a property of which ten queries the seed put on top (± 10 % between seeds).
        let order = visiting_order(CORPUS_QUERIES, fixture_seed ^ 0x686f74);
        let executor = Executor::new(&fixture.db);
        let hot: Vec<Query> = order[..HOT_QUERIES]
            .iter()
            .map(|&index| fixture.corpus[index as usize].clone())
            .collect();
        let truth = hot.iter().map(|q| executor.cardinality(q)).collect();
        (hot, truth)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Serving {
        tier,
        hot,
        hot_truth,
        _layout_pad: pad,
    })
}

fn runtime_config(spec: RuntimeSpec, obs: &Obs) -> RuntimeConfig {
    let config = RuntimeConfig::default();
    let config = match spec.shape {
        Shape::Closed => config,
        Shape::Open => open_loop_config(),
        Shape::Feedback => config.with_cache_entries(CACHE_ENTRIES),
    };
    if obs.enabled() {
        config.with_obs(obs.clone())
    } else {
        config
    }
}

/// The default configuration with room for [`OPEN_QUEUE_DEPTH`] queued requests.
fn open_loop_config() -> RuntimeConfig {
    RuntimeConfig::default()
        .with_queue_depth(OPEN_QUEUE_DEPTH)
        .with_per_caller_depth(OPEN_QUEUE_DEPTH)
}

/// What one pass over a runtime produced.
struct RuntimePhase {
    window: Window,
    /// The requests of the warm-up and the measured interval, by send time.
    round: Round,
    stats: RuntimeStats,
    probe_estimates: Vec<f64>,
    /// The correctness pass's requests (cold caches; not part of the window).
    probe_recs: Vec<Rec>,
    /// Open loop only.
    lag_us: Vec<f64>,
    checks: Vec<(String, Result<(), String>)>,
}

/// Sessions' first corpus indices, seeded.
fn session_starts(count: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| rng.gen_range(0..CORPUS_QUERIES as u32))
        .collect()
}

fn open_loop<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    window: &Window,
    fixture: &Fixture,
    rate: f64,
    seed: u64,
) -> OpenLog {
    let horizon_s = window.end_ns as f64 / 1e9;
    let arrivals = poisson_arrivals_ns(rate, horizon_s, seed ^ 0x6f70656e);
    let starts = session_starts(arrivals.len(), seed ^ 0x73657373);
    load::open_sessions(runtime, window, &fixture.corpus, &arrivals, &starts)
}

/// The seed of one traffic stream: every measured instance of a run, and every caller on
/// it, draws its own.  (One stream replayed on all nine instances made the run a sample of
/// one 1 s arrival pattern: `open_sessions` runs then differed by which pattern their seed
/// drew — ± 5 % in arrivals inside the windows — more than by anything the system did.)
fn traffic_seed(seed: u64, instance: u64, caller: u64) -> u64 {
    seed ^ (instance << 40) ^ (caller << 32)
}

/// What a phase runs on and for how long.
#[derive(Clone, Copy)]
struct PhaseInput<'a> {
    args: &'a Args,
    /// Which of the run's measured instances this is (selects its traffic streams).
    instance: u64,
    fixture: &'a Fixture,
    serving: &'a Serving,
    spec: RuntimeSpec,
    obs: &'a Obs,
    measure: Duration,
}

/// Correctness pass, warm pass, then warm-up + measured phase on a fresh runtime over
/// `backend`, and the post-checks at shutdown.
fn runtime_phase<B: ComputeBackend>(
    input: PhaseInput<'_>,
    backend: Arc<B>,
) -> Result<RuntimePhase, String> {
    let PhaseInput {
        args,
        instance,
        fixture,
        serving,
        spec,
        obs,
        measure,
    } = input;
    let runtime = ServeRuntime::new(Arc::clone(&backend), runtime_config(spec, obs));
    let mut checks = Vec::new();

    // Correctness pass: the probe through the workload's own path.
    let pre = Window::starting_now(Duration::ZERO, Duration::ZERO);
    let (probe_estimates, probe_recs) = load::serve_all(&runtime, &pre, &fixture.probe)?;
    // Warm pass: the hot set, or every fourth corpus query (1,024 of them, drawn like the
    // rest, reach every FROM clause the traffic has), so the prepared-anchor caches are
    // filled before timing.
    let warm: Vec<Query> = if spec.shape == Shape::Feedback {
        serving.hot.clone()
    } else {
        fixture.corpus.iter().step_by(4).cloned().collect()
    };
    for chunk in warm.chunks(64) {
        backend.serve(chunk);
    }

    let window = Window::starting_now(WARM_UP, measure);
    let mut lag_us = Vec::new();
    let mut written = Vec::new();
    let mut write_refused = 0;
    let (mut recs, cpu_s) = match spec.shape {
        Shape::Closed => {
            let orders: Vec<Vec<u32>> = (0..CALLERS as u64)
                .map(|caller| {
                    visiting_order(CORPUS_QUERIES, traffic_seed(args.seed, instance, caller))
                })
                .collect();
            window.run(1, || {
                load::closed_loop(&runtime, &window, &fixture.corpus, &orders)
            })
        }
        Shape::Open => {
            let (log, cpu_s) = window.run(1, || {
                let seed = traffic_seed(args.seed, instance, 0);
                open_loop(&runtime, &window, fixture, SESSION_RATE, seed)
            });
            lag_us = log.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            (log.recs, cpu_s)
        }
        Shape::Feedback => {
            let seeds: Vec<u64> = (0..CALLERS as u64)
                .map(|caller| traffic_seed(args.seed, instance, caller))
                .collect();
            let (log, cpu_s): (FeedbackLog, Vec<f64>) = window.run(1, || {
                load::feedback_sessions(
                    &runtime,
                    &window,
                    &serving.hot,
                    &serving.hot_truth,
                    ZIPF_EXPONENT,
                    WRITE_EVERY_BURSTS,
                    &seeds,
                )
            });
            written = log.written;
            write_refused = log.write_refused;
            (log.recs, cpu_s)
        }
    };

    // Post-checks.
    runtime.flush();
    if let (Shape::Feedback, Tier::Local(service)) = (spec.shape, &serving.tier) {
        let snapshot = service.pool().snapshot();
        let missing = written
            .iter()
            .rev()
            .take(64)
            .filter(|&&pick| {
                !snapshot.matching(&serving.hot[pick]).any(|entry| {
                    entry.query == serving.hot[pick] && entry.cardinality == serving.hot_truth[pick]
                })
            })
            .count();
        checks.push((
            "written truths are resident in the pool".to_string(),
            if missing == 0 && !written.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{missing} of the last {} written truths are not in the pool",
                    written.len().min(64)
                ))
            },
        ));
    }
    let stats = runtime.shutdown();
    let admitted = recs
        .iter()
        .chain(&probe_recs)
        .filter(|rec| rec.status != Status::Refused)
        .count() as u64;
    let refused = recs.len() as u64 + probe_recs.len() as u64 - admitted;
    let rejected =
        stats.rejected_queue_full + stats.rejected_caller_quota + stats.rejected_class_share;
    checks.push((
        "every admitted ticket resolved (RuntimeStats::fully_resolved)".to_string(),
        if stats.fully_resolved() {
            Ok(())
        } else {
            Err(format!(
                "submitted {} != completed {} + degraded {} + expired {} + failed {}",
                stats.submitted, stats.completed, stats.degraded, stats.expired, stats.failed
            ))
        },
    ));
    checks.push((
        "the load generator's counts match the runtime's".to_string(),
        if stats.submitted == admitted && rejected == refused {
            Ok(())
        } else {
            Err(format!(
                "generator admitted {admitted} / refused {refused}, runtime submitted {} / rejected {rejected}",
                stats.submitted
            ))
        },
    ));
    if spec.shape == Shape::Feedback {
        checks.push((
            "every accepted feedback record was applied".to_string(),
            if stats.maintenance_applied == written.len() as u64
                && stats.maintenance_rejected == write_refused
            {
                Ok(())
            } else {
                Err(format!(
                    "accepted {} / refused {write_refused}, runtime applied {} / rejected {}",
                    written.len(),
                    stats.maintenance_applied,
                    stats.maintenance_rejected
                ))
            },
        ));
    }
    if let Tier::Cluster(cluster) = &serving.tier {
        let cluster_stats = cluster.client.stats();
        checks.push((
            "no cluster worker was lost".to_string(),
            if cluster_stats.worker_losses == 0 && cluster_stats.degraded_queries == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{} worker losses, {} degraded queries",
                    cluster_stats.worker_losses, cluster_stats.degraded_queries
                ))
            },
        ));
    }
    recs.sort_by_key(|rec| rec.sent_ns);
    Ok(RuntimePhase {
        round: Round::whole(&window, recs, &cpu_s),
        window,
        stats,
        probe_estimates,
        probe_recs,
        lag_us,
        checks,
    })
}

/// [`runtime_phase`] on the tier's own backend.
fn untraced_phase(input: PhaseInput<'_>) -> Result<RuntimePhase, String> {
    match &input.serving.tier {
        Tier::Local(service) => runtime_phase(input, Arc::clone(service)),
        Tier::Cluster(cluster) => runtime_phase(input, Arc::clone(&cluster.client)),
    }
}

/// What the [`TracedBackend`] recorded during a phase's window (times on the window's
/// clock).
struct Recording {
    spans: Vec<BackendSpan>,
    batches: Vec<Vec<Query>>,
}

/// [`runtime_phase`] on the tier's backend wrapped for tracing.
fn traced_phase(input: PhaseInput<'_>) -> Result<(RuntimePhase, Recording), String> {
    fn on<B: ComputeBackend>(
        input: PhaseInput<'_>,
        backend: &Arc<B>,
    ) -> Result<(RuntimePhase, Recording), String> {
        // The wrapper's clock starts before the window's.
        let wrapper = Arc::new(TracedBackend::new(
            Arc::clone(backend),
            Instant::now(),
            KEPT_BATCHES,
        ));
        let phase = runtime_phase(input, Arc::clone(&wrapper))?;
        let (spans, batches) = wrapper.take_since(phase.window.epoch);
        Ok((phase, Recording { spans, batches }))
    }
    match &input.serving.tier {
        Tier::Local(service) => on(input, service),
        Tier::Cluster(cluster) => on(input, &cluster.client),
    }
}

fn runtime_workload(args: &Args, spec: RuntimeSpec) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let disabled = Obs::disabled();
    let measure = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        let instances = if spec.cluster {
            1
        } else {
            LOCAL_INSTANCES_PER_SETUP
        };
        let mut setup_seconds = Vec::with_capacity(ROUNDS);
        let mut rounds = Vec::with_capacity(ROUNDS * instances);
        let mut lag_us = Vec::new();
        let mut q_error = 0.0;
        let mut oracle = None;
        for setup in 1..=ROUNDS {
            let pad_seed = |instance: usize| traffic_seed(args.seed, instance as u64, 0);
            let (fixture, mut serving, seconds) = timed_setup(args, |fixture| {
                let pad_seed = pad_seed(rounds.len());
                serving_setup(fixture, spec, args.fixture_seed, pad_seed, &disabled)
            })?;
            setup_seconds.push(seconds);
            // Every set-up rebuilds the same state, so the first one's oracle serves all.
            let oracle =
                oracle.get_or_insert_with(|| oracle_for(args, &fixture, &fixture.base_pool));
            for instance in 1..=instances {
                if instance > 1 {
                    serving =
                        serving.on_fresh_tier(&fixture, spec, pad_seed(rounds.len()), &disabled)?;
                }
                let phase = untraced_phase(PhaseInput {
                    args,
                    instance: rounds.len() as u64,
                    fixture: &fixture,
                    serving: &serving,
                    spec,
                    obs: &disabled,
                    measure: measure / (ROUNDS * instances) as u32,
                })?;
                let round = format!("set-up {setup} instance {instance}");
                outcome.check(
                    &format!("{round}: the probe served through the workload's path is bit-identical to the oracle"),
                    check_bit_parity(&phase.probe_estimates, oracle),
                );
                for (name, result) in phase.checks {
                    outcome.check(&format!("{round}: {name}"), result);
                }
                q_error = fixture.probe_median_q_error(&phase.probe_estimates);
                lag_us.extend(phase.lag_us);
                rounds.push(phase.round);
            }
        }
        let e2e = end_to_end(&rounds, 1, spec.slo_us);
        report_end_to_end(&mut outcome, &e2e, &mut setup_seconds, q_error);
        lag_p99_and_max(&mut outcome, &lag_us);
        return Ok(outcome);
    }

    // Traced run: an untraced reference phase, then the traced phase, half the time each.
    let half = measure / 2;
    let (fixture, serving, _) = timed_setup(args, |fixture| {
        serving_setup(fixture, spec, args.fixture_seed, args.seed, &disabled)
    })?;
    let oracle = oracle_for(args, &fixture, &fixture.base_pool);
    // Both phases replay the same traffic, so their difference is the tracing.
    let reference = untraced_phase(PhaseInput {
        args,
        instance: 0,
        fixture: &fixture,
        serving: &serving,
        spec,
        obs: &disabled,
        measure: half,
    })?;
    outcome.check(
        "reference phase: the probe is bit-identical to the oracle",
        check_bit_parity(&reference.probe_estimates, &oracle),
    );
    outcome.checks.extend(reference.checks);
    let reference_e2e = end_to_end(std::slice::from_ref(&reference.round), 1, spec.slo_us);
    if spec.shape == Shape::Open {
        rate_ladder(args, &fixture, &serving, spec, half, &mut outcome)?;
    }
    let connect_ship_ms = match &serving.tier {
        Tier::Cluster(cluster) => cluster.connect_ship_ms,
        Tier::Local(_) => 0.0,
    };
    drop(serving);

    let obs = Obs::new(ObsConfig::enabled());
    let serving = serving_setup(&fixture, spec, args.fixture_seed, args.seed, &obs)?;
    let (phase, Recording { spans, batches }) = traced_phase(PhaseInput {
        args,
        instance: 0,
        fixture: &fixture,
        serving: &serving,
        spec,
        obs: &obs,
        measure: half,
    })?;
    outcome.check(
        "traced phase: the probe is bit-identical to the oracle",
        check_bit_parity(&phase.probe_estimates, &oracle),
    );
    outcome.checks.extend(phase.checks);
    let traced_e2e = end_to_end(std::slice::from_ref(&phase.round), 1, spec.slo_us);

    let m = &mut outcome.metrics;
    setup_metrics(&fixture, m);
    let measured: Vec<&Rec> = phase
        .round
        .recs
        .iter()
        .filter(|rec| rec.due_ns >= phase.window.warm_end_ns && rec.due_ns < phase.window.end_ns)
        .collect();
    m.insert("loadgen.sent", measured.len() as f64);
    m.insert(
        "loadgen.completed",
        measured.iter().filter(|rec| rec.status.ok()).count() as f64,
    );
    let written_spans = request_metrics(&phase.round.recs, &spans, m);
    let stats = &phase.stats;
    let batches_closed = stats.batches.max(1) as f64;
    m.insert("serve.mean_batch", stats.mean_batch());
    m.insert(
        "serve.size_close_frac",
        stats.size_closes as f64 / batches_closed,
    );
    m.insert(
        "serve.window_close_frac",
        stats.window_closes as f64 / batches_closed,
    );
    m.insert(
        "serve.coalesced_frac",
        stats.coalesced as f64 / stats.submitted.max(1) as f64,
    );
    m.insert("serve.cache_hit_rate", stats.cache_hit_rate());
    m.insert("serve.cache_purged", stats.cache_purged as f64);
    m.insert(
        "serve.maintenance_applied",
        stats.maintenance_applied as f64,
    );
    m.insert(
        "serve.maintenance_rejected",
        stats.maintenance_rejected as f64,
    );
    m.insert(
        "serve.rejected",
        (stats.rejected_queue_full + stats.rejected_caller_quota + stats.rejected_class_share)
            as f64,
    );
    m.insert("serve.expired", stats.expired as f64);
    m.insert("serve.degraded", stats.degraded as f64);
    layers::backend_metrics(&spans, phase.window.warm_end_ns, phase.window.end_ns, m);
    m.insert(
        "obs.overhead_frac",
        (traced_e2e.summary.latency_p50_us - reference_e2e.summary.latency_p50_us)
            / reference_e2e.summary.latency_p50_us,
    );
    m.insert(
        "obs.traced_latency_p50_us",
        traced_e2e.summary.latency_p50_us,
    );
    m.insert("loadgen.latency_p99_us", traced_e2e.summary.latency_p99_us);
    // The runtime's exported histogram against the sorted truth, over every request the
    // traced runtime saw (submit → wake, the interval the histogram records).
    let mut submit_to_wake: Vec<f64> = phase
        .round
        .recs
        .iter()
        .chain(&phase.probe_recs)
        .filter(|rec| rec.status.ok())
        .map(|rec| (rec.done_ns - rec.sent_ns) as f64 / 1e3)
        .collect();
    stats::sort(&mut submit_to_wake);
    let sorted_p99 = stats::percentile(&submit_to_wake, 0.99);
    let hist_p99 = obs.hist("serve.latency_us.interactive").quantile(0.99) as f64;
    m.insert("obs.hist_p99_ratio", hist_p99 / sorted_p99.max(1e-9));
    if let Tier::Cluster(cluster) = &serving.tier {
        let cluster_stats = cluster.client.stats();
        m.insert("cluster.connect_ship_ms", connect_ship_ms);
        m.insert(
            "cluster.degraded_queries",
            cluster_stats.degraded_queries as f64,
        );
        m.insert("cluster.worker_losses", cluster_stats.worker_losses as f64);
        let cluster_call_us = stats::mean(
            &spans
                .iter()
                .take(batches.len())
                .map(BackendSpan::duration_us)
                .collect::<Vec<_>>(),
        );
        let wire = layers::cluster_wire(&fixture, &batches, cluster_call_us, m);
        outcome.check("cluster wire metrics", wire);
    }
    layers::walk(&fixture, &fixture.base_pool, &mut outcome.metrics);
    write_trace(args, &written_spans, &mut outcome);
    outcome.attempted = traced_e2e.attempted;
    outcome.failed = traced_e2e.failed;
    outcome.notes.push(format!(
        "latency_p50_us untraced {:.1} vs traced {:.1} (both {}s phases of this process)",
        reference_e2e.summary.latency_p50_us,
        traced_e2e.summary.latency_p50_us,
        half.as_secs_f64()
    ));
    if let Some((p99, max)) = lag_p99_and_max(&mut outcome, &phase.lag_us) {
        outcome.metrics.insert("loadgen.lag_p99_us", p99);
        outcome.metrics.insert("loadgen.lag_max_us", max);
    }
    Ok(outcome)
}

/// p99 and maximum of how late the open-loop sender was; flags a late generator in the
/// notes.  `None` for the closed loops.
fn lag_p99_and_max(outcome: &mut Outcome, lag_us: &[f64]) -> Option<(f64, f64)> {
    if lag_us.is_empty() {
        return None;
    }
    let mut lag = lag_us.to_vec();
    stats::sort(&mut lag);
    let p99 = stats::percentile(&lag, 0.99);
    if p99 > LAG_FLAG_US {
        outcome.notes.push(format!(
            "FLAG: the open-loop generator ran late (lag p99 {p99:.0} us > {LAG_FLAG_US} us)"
        ));
    }
    Some((p99, stats::percentile(&lag, 1.0)))
}

/// crn-serve request metrics and the request span tree of the traced phase: a `request`
/// span per ticket (send → wake) with children `serve.queue_wait` (from the ticket's
/// outcome) and `backend.serve` (the wrapper's span that answered it).  Self time of a
/// request = span − children.
fn request_metrics(recs: &[Rec], spans: &[BackendSpan], metrics: &mut Metrics) -> Vec<Span> {
    let mut out = Vec::with_capacity(recs.len() * 3 + spans.len());
    let mut submit_us = Vec::new();
    let mut queue_wait_us = Vec::new();
    let mut resolve_us = Vec::new();
    let mut self_us = Vec::new();
    let mut accounted = Vec::new();
    let mut id = 0u64;
    let mut next_id = || {
        id += 1;
        id
    };
    for span in spans {
        out.push(Span {
            name: "backend.batch",
            id: next_id(),
            parent: None,
            request: 0,
            start_ns: span.start_ns,
            end_ns: span.end_ns,
            batch: span.batch,
        });
    }
    for rec in recs.iter().filter(|rec| rec.status != Status::Refused) {
        let request = next_id();
        let backend = if rec.status == Status::Computed {
            trace::span_of(spans, rec.sent_ns, rec.done_ns)
        } else {
            None
        };
        out.push(Span {
            name: "request",
            id: request,
            parent: None,
            request,
            start_ns: rec.sent_ns,
            end_ns: rec.done_ns,
            batch: backend.map_or(0, |span| span.batch),
        });
        out.push(Span {
            name: "serve.queue_wait",
            id: next_id(),
            parent: Some(request),
            request,
            start_ns: rec.submitted_ns,
            end_ns: rec.submitted_ns + rec.queue_wait_ns,
            batch: 0,
        });
        let total_us = (rec.done_ns - rec.sent_ns) as f64 / 1e3;
        submit_us.push((rec.submitted_ns - rec.sent_ns) as f64 / 1e3);
        queue_wait_us.push(rec.queue_wait_ns as f64 / 1e3);
        if rec.accounted_us > 0 && total_us > 0.0 {
            accounted.push(rec.accounted_us as f64 / total_us);
        }
        if let Some(span) = backend {
            out.push(Span {
                name: "backend.serve",
                id: next_id(),
                parent: Some(request),
                request,
                start_ns: span.start_ns,
                end_ns: span.end_ns,
                batch: span.batch,
            });
            resolve_us.push((rec.done_ns - span.end_ns) as f64 / 1e3);
            self_us.push(total_us - rec.queue_wait_ns as f64 / 1e3 - span.duration_us());
        }
    }
    metrics.insert("serve.submit_us", stats::mean(&submit_us));
    metrics.insert("serve.queue_wait_us", stats::mean(&queue_wait_us));
    metrics.insert("serve.resolve_us", stats::mean(&resolve_us));
    metrics.insert("serve.self_us", stats::mean(&self_us));
    metrics.insert("obs.accounted_frac", stats::mean(&accounted));
    out
}

fn write_trace(args: &Args, spans: &[Span], outcome: &mut Outcome) {
    let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", args.workload));
    let written = trace::write_jsonl(&path, spans)
        .map(|()| {
            outcome.notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            ));
        })
        .map_err(|e| format!("{}: {e}", path.display()));
    outcome.check("the span file was written", written);
}

/// The rate ladder: the open loop at each rung's rate on a fresh untraced runtime,
/// reporting p99 from the due time, how fast the backlog grew, and the highest rung
/// that met the latency limit with nothing refused and no growing backlog.
fn rate_ladder(
    args: &Args,
    fixture: &Fixture,
    serving: &Serving,
    spec: RuntimeSpec,
    rung: Duration,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let Tier::Local(service) = &serving.tier else {
        return Err("the rate ladder runs on the in-process tier".to_string());
    };
    let mut max_rate_ok = 0.0;
    for (rate, p99_name, growth_name) in LADDER {
        let runtime = ServeRuntime::new(Arc::clone(service), open_loop_config());
        let window = Window::starting_now(Duration::ZERO, rung);
        let (log, _) = window.run(1, || open_loop(&runtime, &window, fixture, rate, args.seed));
        runtime.shutdown();
        let mut latencies: Vec<f64> = log
            .recs
            .iter()
            .filter(|rec| rec.status.ok())
            .map(Rec::latency_us)
            .collect();
        stats::sort(&mut latencies);
        let p99 = stats::percentile(&latencies, 0.99);
        let unanswered = log.recs.len() - latencies.len();
        // Backlog growth: outstanding requests over the rung's last three quarters,
        // least-squares slope per second.
        let tail: Vec<(f64, f64)> = log
            .outstanding
            .iter()
            .filter(|&&(due_ns, _)| due_ns >= window.end_ns / 4)
            .map(|&(due_ns, backlog)| (due_ns as f64 / 1e9, backlog as f64))
            .collect();
        let growth = slope(&tail);
        outcome.metrics.insert(p99_name, p99);
        outcome.metrics.insert(growth_name, growth);
        // A backlog growing by more than 1 % of the offered rate does not drain.
        let ok = p99 <= spec.slo_us && unanswered == 0 && growth <= 0.01 * rate * BURST as f64;
        if ok {
            max_rate_ok = rate;
        }
        outcome.notes.push(format!(
            "ladder {rate} sessions/s: p99 {p99:.0} us over {} answers, {unanswered} unanswered, backlog growth {growth:.2}/s → {}",
            latencies.len(),
            if ok { "ok" } else { "not ok" }
        ));
    }
    outcome.metrics.insert("loadgen.max_rate_ok", max_rate_ok);
    Ok(())
}

/// Least-squares slope of `points` (0 with fewer than two).
fn slope(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let covariance: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let variance: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    if variance == 0.0 {
        0.0
    } else {
        covariance / variance
    }
}

// ---------------------------------------------------------------------------------
// bulk_sync: direct `serve` of 32-query batches over the 5,000-entry pool.
// ---------------------------------------------------------------------------------

/// One caller issuing back-to-back calls until the window ends; one record per call.
fn call_loop(window: &Window, mut call: impl FnMut(usize)) -> Vec<Rec> {
    let mut recs = Vec::new();
    let mut index = 0;
    while window.now_ns() < window.end_ns {
        let sent_ns = window.now_ns();
        call(index);
        index += 1;
        recs.push(Rec {
            due_ns: sent_ns,
            sent_ns,
            submitted_ns: sent_ns,
            done_ns: window.now_ns(),
            queue_wait_ns: 0,
            accounted_us: 0,
            status: Status::Computed,
        });
    }
    recs
}

/// `bulk_sync`'s own state: the synthesised pool and the service over it.
struct Bulk {
    pool: QueriesPool,
    service: Arc<EstimatorService<CrnModel>>,
}

fn bulk_setup(fixture: &Fixture) -> Result<Bulk, String> {
    let pool = synthesize_pool(&fixture.base_pool, LARGE_POOL_ENTRIES)?;
    let service = Arc::new(fixture.service(
        &pool,
        SERVING_SHARDS,
        WorkerPool::new(SERVING_THREADS),
        &Obs::disabled(),
    ));
    Ok(Bulk { pool, service })
}

/// Correctness pass (the probe in 32-query batches), warm pass (the first batches), then
/// warm-up + measured window of back-to-back calls through `backend`.
fn bulk_phase(
    fixture: &Fixture,
    batches: &[Vec<Query>],
    backend: &(dyn Fn(&[Query]) -> Vec<f64> + Sync),
    measure: Duration,
) -> (Round, Window, Vec<f64>) {
    let probe_estimates: Vec<f64> = fixture.probe.chunks(BULK_BATCH).flat_map(backend).collect();
    for batch in &batches[..BULK_WARM_BATCHES] {
        backend(batch);
    }
    let window = Window::starting_now(WARM_UP, measure);
    let (recs, cpu_s) = window.run(1, || {
        call_loop(&window, |index| {
            std::hint::black_box(backend(&batches[index % batches.len()]));
        })
    });
    (Round::whole(&window, recs, &cpu_s), window, probe_estimates)
}

fn bulk_sync(args: &Args) -> Result<Outcome, String> {
    const SLO_US: f64 = 100_000.0;
    let mut outcome = Outcome::default();
    let measure = Duration::from_secs_f64(args.seconds);
    let batches_of = |fixture: &Fixture| -> Vec<Vec<Query>> {
        visiting_order(CORPUS_QUERIES, args.seed)
            .chunks(BULK_BATCH)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&index| fixture.corpus[index as usize].clone())
                    .collect()
            })
            .collect()
    };

    if !args.trace {
        let mut setup_seconds = Vec::with_capacity(ROUNDS);
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut q_error = 0.0;
        let mut oracle = None;
        for round in 1..=ROUNDS {
            let (fixture, bulk, seconds) = timed_setup(args, bulk_setup)?;
            setup_seconds.push(seconds);
            let oracle = oracle.get_or_insert_with(|| oracle_for(args, &fixture, &bulk.pool));
            let plain = |queries: &[Query]| bulk.service.serve(queries).estimates;
            let (measured, _, probe_estimates) = bulk_phase(
                &fixture,
                &batches_of(&fixture),
                &plain,
                measure / ROUNDS as u32,
            );
            outcome.check(
                &format!("round {round}: the probe served in 32-query batches is bit-identical to the oracle"),
                check_bit_parity(&probe_estimates, oracle),
            );
            q_error = fixture.probe_median_q_error(&probe_estimates);
            rounds.push(measured);
        }
        let e2e = end_to_end(&rounds, BULK_BATCH as u64, SLO_US);
        report_end_to_end(&mut outcome, &e2e, &mut setup_seconds, q_error);
        return Ok(outcome);
    }

    let half = measure / 2;
    let (fixture, bulk, _) = timed_setup(args, bulk_setup)?;
    let Bulk { pool, service } = bulk;
    let oracle = oracle_for(args, &fixture, &pool);
    let batches = batches_of(&fixture);
    let plain = |queries: &[Query]| service.serve(queries).estimates;
    let (reference_round, _, _) = bulk_phase(&fixture, &batches, &plain, half);
    let reference = end_to_end(&[reference_round], BULK_BATCH as u64, SLO_US);
    let wrapper = TracedBackend::new(Arc::clone(&service), Instant::now(), 0);
    let traced = |queries: &[Query]| ComputeBackend::serve(&wrapper, queries).estimates;
    let (traced_round, window, probe_estimates) = bulk_phase(&fixture, &batches, &traced, half);
    outcome.check(
        "traced phase: the probe is bit-identical to the oracle",
        check_bit_parity(&probe_estimates, &oracle),
    );
    let traced_e2e = end_to_end(
        std::slice::from_ref(&traced_round),
        BULK_BATCH as u64,
        SLO_US,
    );
    let recs = &traced_round.recs;
    let (spans, _) = wrapper.take_since(window.epoch);
    let m = &mut outcome.metrics;
    setup_metrics(&fixture, m);
    layers::backend_metrics(&spans, window.warm_end_ns, window.end_ns, m);
    m.insert(
        "obs.overhead_frac",
        (traced_e2e.summary.latency_p50_us - reference.summary.latency_p50_us)
            / reference.summary.latency_p50_us,
    );
    m.insert(
        "obs.traced_latency_p50_us",
        traced_e2e.summary.latency_p50_us,
    );
    m.insert("loadgen.latency_p99_us", traced_e2e.summary.latency_p99_us);
    layers::walk(&fixture, &pool, m);
    let mut written = Vec::with_capacity(recs.len() * 2);
    for (index, rec) in recs.iter().enumerate() {
        let request = 2 * index as u64 + 1;
        written.push(Span {
            name: "request",
            id: request,
            parent: None,
            request,
            start_ns: rec.sent_ns,
            end_ns: rec.done_ns,
            batch: BULK_BATCH,
        });
        if let Some(span) = trace::span_of(&spans, rec.sent_ns, rec.done_ns) {
            written.push(Span {
                name: "backend.serve",
                id: request + 1,
                parent: Some(request),
                request,
                start_ns: span.start_ns,
                end_ns: span.end_ns,
                batch: span.batch,
            });
        }
    }
    write_trace(args, &written, &mut outcome);
    outcome.attempted = traced_e2e.attempted;
    outcome.failed = traced_e2e.failed;
    Ok(outcome)
}

// ---------------------------------------------------------------------------------
// train_step: repeated `fit_incremental` of 128 pairs on a clone of the fixture model.
// ---------------------------------------------------------------------------------

/// Median containment-rate q-error of `model` on the held-out pairs.
fn held_out_q_error(model: &CrnModel, fixture: &Fixture) -> f64 {
    let mut errors: Vec<f64> = fixture
        .held_out
        .iter()
        .take(HELD_OUT_PAIRS)
        .map(|sample| {
            q_error(
                model.predict(&sample.q1, &sample.q2),
                sample.rate,
                RATE_FLOOR as f64,
            )
        })
        .collect();
    stats::median(&mut errors)
}

/// Runs exactly [`ACCURACY_STEPS`] steps over the training pairs in their fixture order
/// on a fresh clone; returns the held-out median q-error and whether every loss was
/// finite.
fn accuracy_after_fixed_steps(fixture: &Fixture) -> (f64, bool) {
    let mut model = fixture.model.clone();
    let mut adam = Adam::new(model.config().learning_rate);
    let mut finite = true;
    for step in 0..ACCURACY_STEPS {
        let from = (step * TRAIN_PAIRS_PER_STEP) % (fixture.train.len() - TRAIN_PAIRS_PER_STEP);
        let history = model.fit_incremental(
            &fixture.train[from..from + TRAIN_PAIRS_PER_STEP],
            &mut adam,
            1,
        );
        finite &= history
            .epochs
            .iter()
            .all(|epoch| epoch.train_loss.is_finite());
    }
    (held_out_q_error(&model, fixture), finite)
}

fn train_step(args: &Args) -> Result<Outcome, String> {
    const SLO_US: f64 = 100_000.0;
    let mut outcome = Outcome::default();
    let measure = Duration::from_secs_f64(args.seconds);
    // The fixture is all the set-up there is.  The rounds below are thirds of one training
    // trajectory: a fresh clone per round would spend its round in the start-up transient
    // (see `TRAIN_WARM_STEPS`).
    let mut setup_seconds = Vec::with_capacity(ROUNDS);
    let mut fixture = None;
    for _ in 0..if args.trace { 1 } else { ROUNDS } {
        // Drop the previous fixture first: two alive at once would double peak RSS.
        drop(fixture.take());
        let (built, (), seconds) = timed_setup(args, |_| Ok(()))?;
        setup_seconds.push(seconds);
        fixture = Some(built);
    }
    let fixture = fixture.expect("at least one set-up");

    let (q_error_first, finite) = accuracy_after_fixed_steps(&fixture);
    let (q_error_again, _) = accuracy_after_fixed_steps(&fixture);
    outcome.check(
        "every training loss of the 50 fixed steps is finite",
        if finite {
            Ok(())
        } else {
            Err("a step reported a non-finite loss".to_string())
        },
    );
    let expected = if args.flip_oracle_bit {
        f64::from_bits(q_error_first.to_bits() ^ 1)
    } else {
        q_error_first
    };
    outcome.check(
        "the 50-step held-out median q-error repeats exactly",
        if q_error_again.to_bits() == expected.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "{expected:e} on the first run, {q_error_again:e} on the second"
            ))
        },
    );

    // The measured steps draw their 128 pairs from the seed.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let draws: Vec<Vec<crn_exec::ContainmentSample>> = (0..64)
        .map(|_| {
            (0..TRAIN_PAIRS_PER_STEP)
                .map(|_| fixture.train[rng.gen_range(0..fixture.train.len())].clone())
                .collect()
        })
        .collect();
    let mut model = fixture.model.clone();
    let mut adam = Adam::new(model.config().learning_rate);
    let mut losses_finite = true;
    let mut step = |index: usize| {
        let history = model.fit_incremental(&draws[index % draws.len()], &mut adam, 1);
        losses_finite &= history
            .epochs
            .iter()
            .all(|epoch| epoch.train_loss.is_finite());
    };
    (0..TRAIN_WARM_STEPS).for_each(&mut step);
    let window = Window::starting_now(Duration::ZERO, measure);
    let (recs, cpu_s) = window.run(ROUNDS, || call_loop(&window, step));
    let rounds: Vec<Round> = cpu_s
        .iter()
        .enumerate()
        .map(|(index, &cpu_s)| {
            let (start_ns, end_ns) = window.part(index, ROUNDS);
            Round {
                recs: recs
                    .iter()
                    .filter(|rec| rec.due_ns >= start_ns && rec.due_ns < end_ns)
                    .copied()
                    .collect(),
                start_ns,
                end_ns,
                cpu_s,
            }
        })
        .collect();
    outcome.check(
        "every training loss of the measured phase is finite",
        if losses_finite {
            Ok(())
        } else {
            Err("a measured step reported a non-finite loss".to_string())
        },
    );
    let e2e = end_to_end(&rounds, TRAIN_PAIRS_PER_STEP as u64, SLO_US);
    if !args.trace {
        report_end_to_end(&mut outcome, &e2e, &mut setup_seconds, q_error_first);
        return Ok(outcome);
    }
    let m = &mut outcome.metrics;
    setup_metrics(&fixture, m);
    layers::walk(&fixture, &fixture.base_pool, m);
    // The measured phase itself is the better estimate of the step cost.
    m.insert(
        "nn.train_us_per_pair",
        e2e.summary.latency_p50_us / TRAIN_PAIRS_PER_STEP as f64,
    );
    m.insert("obs.traced_latency_p50_us", e2e.summary.latency_p50_us);
    m.insert("loadgen.latency_p99_us", e2e.summary.latency_p99_us);
    let written: Vec<Span> = recs
        .iter()
        .enumerate()
        .map(|(index, rec)| Span {
            name: "train.fit_incremental",
            id: index as u64 + 1,
            parent: None,
            request: index as u64 + 1,
            start_ns: rec.sent_ns,
            end_ns: rec.done_ns,
            batch: TRAIN_PAIRS_PER_STEP,
        })
        .collect();
    write_trace(args, &written, &mut outcome);
    outcome.attempted = e2e.attempted;
    outcome.failed = e2e.failed;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::ServeStats;

    fn rec(sent_ns: u64, done_ns: u64, queue_wait_ns: u64, status: Status) -> Rec {
        Rec {
            due_ns: sent_ns,
            sent_ns,
            submitted_ns: sent_ns + 1_000,
            done_ns,
            queue_wait_ns,
            accounted_us: 0,
            status,
        }
    }

    #[test]
    fn request_self_time_is_the_span_minus_its_children() {
        let spans = [BackendSpan {
            seq: 0,
            start_ns: 150_000,
            end_ns: 350_000,
            batch: 2,
            stats: ServeStats::default(),
        }];
        let recs = [
            rec(0, 400_000, 100_000, Status::Computed),
            rec(50_000, 120_000, 60_000, Status::Cached),
            rec(60_000, 61_000, 0, Status::Refused),
        ];
        let mut metrics = Metrics::new();
        let written = request_metrics(&recs, &spans, &mut metrics);
        // 400 µs request − 100 µs queue wait − 200 µs backend span = 100 µs of its own;
        // the wake came 50 µs after the backend returned.
        assert_eq!(metrics["serve.self_us"], 100.0);
        assert_eq!(metrics["serve.resolve_us"], 50.0);
        assert_eq!(metrics["serve.queue_wait_us"], 80.0);
        assert_eq!(metrics["serve.submit_us"], 1.0);
        // One batch span, two request spans, two queue waits, one backend child; the
        // refusal has no span.
        let count = |name| written.iter().filter(|span| span.name == name).count();
        assert_eq!(count("backend.batch"), 1);
        assert_eq!(count("request"), 2);
        assert_eq!(count("serve.queue_wait"), 2);
        assert_eq!(count("backend.serve"), 1);
        let child = written
            .iter()
            .find(|s| s.name == "backend.serve")
            .expect("child");
        let parent = written
            .iter()
            .find(|s| Some(s.id) == child.parent)
            .expect("parent");
        assert_eq!((parent.name, parent.start_ns), ("request", 0));
    }

    #[test]
    fn end_to_end_counts_failures_and_the_latency_limit() {
        let recs = vec![
            rec(500, 600, 0, Status::Computed), // warm-up: not measured
            rec(2_000, 3_000, 0, Status::Computed),
            rec(3_000, 9_000, 0, Status::Cached), // 6 µs: over a 5 µs limit
            rec(4_000, 4_500, 0, Status::Refused),
            rec(5_000, 5_500, 0, Status::Degraded),
            rec(12_000, 12_500, 0, Status::Computed), // after the round
        ];
        let round = Round {
            recs,
            start_ns: 1_000,
            end_ns: 9_000,
            cpu_s: 1e-6,
        };
        let e2e = end_to_end(&[round], 8, 5.0);
        assert_eq!((e2e.attempted, e2e.failed), (32, 16));
        assert_eq!(e2e.succeeded_frac, 0.5);
        assert_eq!(e2e.slo_met_frac, 0.25);
        assert_eq!(e2e.cpu_us_per_op, 1.0 / 16.0);
        assert_eq!(e2e.summary.samples, 2);
        // 2 answered records × 8 ops in an 8 µs round.
        assert_eq!(e2e.throughput_ops, 2e6);
    }

    #[test]
    fn slope_is_least_squares() {
        assert_eq!(slope(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]), 2.0);
        assert_eq!(slope(&[(0.0, 4.0), (1.0, 4.0)]), 0.0);
        assert_eq!(slope(&[(1.0, 1.0)]), 0.0);
    }
}
