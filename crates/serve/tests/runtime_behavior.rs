//! Behavioural tests of the runtime machinery itself — admission control, graceful
//! drain, window semantics — over a trivial containment model (an empty pool resolves
//! every query to the configured default estimate, so serving is near-instant and the
//! tests exercise pure queue/scheduler behaviour).

use crn_core::{EstimatorService, ShardedPool, DEFAULT_RETENTION_WEIGHT};
use crn_estimators::ContainmentEstimator;
use crn_nn::parallel::WorkerPool;
use crn_query::Query;
use crn_serve::{ComputeBackend, RejectReason, RuntimeConfig, ServeRuntime, SubmitError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A trivial containment model: constant rate, no precomputation.
struct ConstModel;

impl ContainmentEstimator for ConstModel {
    fn name(&self) -> &str {
        "const"
    }

    fn estimate_containment(&self, _q1: &Query, _q2: &Query) -> f64 {
        0.5
    }
}

/// A model that sleeps on every pair — pins a batch in flight so the admission bounds
/// *behind* the executing batch are observable.
struct SlowModel(Duration);

impl ContainmentEstimator for SlowModel {
    fn name(&self) -> &str {
        "slow"
    }

    fn estimate_containment(&self, _q1: &Query, _q2: &Query) -> f64 {
        std::thread::sleep(self.0);
        0.5
    }
}

/// A model that panics on every pair — exercises the runtime's panic containment.
struct PanicModel;

impl ContainmentEstimator for PanicModel {
    fn name(&self) -> &str {
        "panicky"
    }

    fn estimate_containment(&self, _q1: &Query, _q2: &Query) -> f64 {
        panic!("injected model panic")
    }
}

fn runtime_over<M: ContainmentEstimator + Send + Sync + 'static>(
    model: M,
    pool: ShardedPool,
    config: RuntimeConfig,
) -> ServeRuntime<EstimatorService<M>> {
    let service = Arc::new(EstimatorService::new(model, pool, WorkerPool::shared(1)));
    ServeRuntime::new(service, config)
}

fn instant_runtime(config: RuntimeConfig) -> ServeRuntime<EstimatorService<ConstModel>> {
    runtime_over(ConstModel, ShardedPool::new(2), config)
}

/// Blocks until the scheduler has popped the first submitted ("plug") request into a
/// batch: one batch closed and nothing left queued.  With a slow model the plug is then
/// in flight, and later submissions queue behind it.  Polls rather than sleeping a
/// guessed interval, so a loaded machine makes the test slower, never wrong.
fn wait_until_plug_in_flight<B: ComputeBackend>(runtime: &ServeRuntime<B>) {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = runtime.stats();
        if stats.batches >= 1 && stats.queued == 0 {
            return;
        }
        assert!(
            Instant::now() < give_up,
            "the plug never left the queue: {stats:?}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn admission_sheds_load_and_drain_resolves_every_ticket() {
    // The pool covers only `title` scans, and the model sleeps per pair — so the first
    // (title-scan) request pins the scheduler in a slow batch while the queue fills with
    // instant (uncovered) requests behind it, making the admission bounds observable.
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let runtime = runtime_over(
        SlowModel(Duration::from_millis(100)),
        pool,
        RuntimeConfig::default()
            .with_queue_depth(4)
            .with_per_caller_depth(2)
            .with_batch_max(1)
            .with_window_us(0),
    );
    let covered = Query::scan("title");
    let uncovered = Query::scan("cast_info");

    // The plug: popped immediately (window 0, batch max 1), then ~200ms in flight.
    let plug = runtime.submit(9, covered.clone()).expect("admitted");
    wait_until_plug_in_flight(&runtime);
    assert!(plug.poll().is_none(), "the plug batch is still executing");

    let a1 = runtime.submit(1, uncovered.clone()).expect("admitted");
    let a2 = runtime.submit(1, uncovered.clone()).expect("admitted");
    // Caller 1 is at its quota; caller 2 still gets its share.
    match runtime.submit(1, uncovered.clone()) {
        Err(SubmitError::Overloaded {
            reason: RejectReason::CallerQuota,
            ..
        }) => {}
        other => panic!("expected a caller-quota rejection, got {other:?}"),
    }
    let b1 = runtime.submit(2, uncovered.clone()).expect("admitted");
    let b2 = runtime.submit(2, uncovered.clone()).expect("admitted");
    // The queue is at depth: even a fresh caller is shed.
    match runtime.submit(3, uncovered.clone()) {
        Err(SubmitError::Overloaded {
            reason: RejectReason::QueueFull,
            ..
        }) => {}
        other => panic!("expected a queue-full rejection, got {other:?}"),
    }

    // Initiating the drain stops admission but still serves everything queued.
    runtime.begin_shutdown();
    assert!(matches!(
        runtime.submit(2, uncovered.clone()),
        Err(SubmitError::ShuttingDown)
    ));
    assert!(matches!(
        runtime.record_feedback(uncovered, 9),
        Err(SubmitError::ShuttingDown)
    ));
    for resolution in [plug.wait(), a1.wait(), a2.wait(), b1.wait(), b2.wait()] {
        let outcome = resolution.expect("served");
        assert_eq!(outcome.batch_size, 1, "batch max 1: served one by one");
        assert!(outcome.estimate > 0.0);
    }
    // The queued requests waited at least as long as the plug batch executed.
    assert!(a1.wait().expect("served").queue_wait > Duration::ZERO);

    let stats = runtime.shutdown();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.rejected_caller_quota, 1);
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!(stats.batches, 5);
    assert_eq!(stats.max_batch, 1);
}

#[test]
fn batch_max_is_clamped_to_queue_depth() {
    // A size threshold above the queue depth could never be met (admission caps pending
    // there) — the runtime normalizes it down so a full queue closes immediately instead
    // of waiting out the window.
    let runtime = instant_runtime(
        RuntimeConfig::default()
            .with_queue_depth(4)
            .with_batch_max(100)
            .with_window_us(10_000_000),
    );
    assert_eq!(runtime.config().batch_max, 4);
    let query = Query::scan("title");
    let tickets: Vec<_> = (0..4u64)
        .map(|caller| runtime.submit(caller, query.clone()).expect("admitted"))
        .collect();
    // The 4th submission fills the queue = meets the clamped threshold: the batch closes
    // by SIZE long before the 10s window.
    for ticket in &tickets {
        assert!(
            ticket.wait_timeout(Duration::from_secs(5)).is_some(),
            "a full queue must not wait out the window"
        );
    }
    let stats = runtime.shutdown();
    assert!(stats.size_closes >= 1, "{stats:?}");
}

#[test]
fn panicked_batches_resolve_degraded_and_the_runtime_survives() {
    // The pool covers `title` scans, so a title-scan query routes through the panicking
    // model; uncovered queries take the fallback path and never touch it.
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let runtime = runtime_over(PanicModel, pool, RuntimeConfig::default().with_window_us(0));
    let doomed = runtime.submit(0, Query::scan("title")).expect("admitted");
    // The waiter gets a *degraded* answer, not a hang and not a re-raised panic: the
    // batch's panic was contained and the ticket resolved through the fallback path,
    // tagged with its provenance.
    let outcome = doomed.wait().expect("resolved degraded, not failed");
    assert!(!outcome.is_computed());
    assert_eq!(outcome.source, crn_serve::EstimateSource::Degraded);
    assert!(outcome.estimate > 0.0, "the default estimate is usable");

    // The scheduler survived: the fallback path still serves (Computed — the panicking
    // model was never consulted), flush() does not hang on the panicked batch's
    // accounting, and shutdown is clean.
    let ok = runtime
        .submit(0, Query::scan("cast_info"))
        .expect("admitted")
        .wait()
        .expect("served");
    assert!(ok.is_computed());
    assert!(ok.estimate > 0.0);
    runtime.flush();
    let stats = runtime.shutdown();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.failed, 0, "the fallback path answered");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.batches, 2);
    assert!(stats.fully_resolved(), "{stats:?}");
    assert_eq!(
        stats.scheduler_restarts, 0,
        "a contained batch panic never escalates to the supervisor"
    );
}

#[test]
fn queued_requests_past_their_deadline_expire_instead_of_executing() {
    // The pool covers `title`, and the model sleeps 50ms per pair — so a first title
    // scan pins the scheduler while short-deadline requests go stale in the queue
    // behind it.
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let runtime = runtime_over(
        SlowModel(Duration::from_millis(50)),
        pool,
        RuntimeConfig::default().with_batch_max(1).with_window_us(0),
    );
    let plug = runtime.submit(0, Query::scan("title")).expect("admitted");
    wait_until_plug_in_flight(&runtime);
    // Admitted behind the plug with a 1ms deadline: stale long before the plug's ~100ms
    // batch finishes.
    let stale = runtime
        .submit_with_deadline(1, Query::scan("title"), Some(Duration::from_millis(1)))
        .expect("admitted");
    // And one without a deadline, which must still execute normally afterwards.
    let patient = runtime
        .submit(2, Query::scan("cast_info"))
        .expect("admitted");

    assert!(plug.wait().is_ok());
    assert_eq!(
        stale.wait(),
        Err(crn_serve::TicketError::Expired),
        "the stale request was shed unexecuted"
    );
    let outcome = patient.wait().expect("served");
    assert!(outcome.is_computed());
    let stats = runtime.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 2);
    assert!(stats.fully_resolved(), "{stats:?}");
}

#[test]
fn an_explicit_deadline_overrides_the_default_and_none_waits() {
    // A submission's deadline is its explicit one, else the configured default.  Behind
    // a ~100ms plug batch, a plain submission under the 1ms default goes stale, while an
    // explicit `None` or a generous explicit deadline still executes.
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let runtime = runtime_over(
        SlowModel(Duration::from_millis(100)),
        pool,
        RuntimeConfig::default()
            .with_batch_max(1)
            .with_window_us(0)
            .with_deadline_us(1_000),
    );
    let plug = runtime
        .submit_with_deadline(0, Query::scan("title"), None)
        .expect("admitted");
    wait_until_plug_in_flight(&runtime);
    let uncovered = Query::scan("cast_info");
    let defaulted = runtime.submit(1, uncovered.clone()).expect("admitted");
    let unbounded = runtime
        .submit_with_deadline(2, uncovered.clone(), None)
        .expect("admitted");
    let generous = runtime
        .submit_with_deadline(3, uncovered, Some(Duration::from_secs(60)))
        .expect("admitted");

    assert!(plug.wait().is_ok());
    assert_eq!(defaulted.wait(), Err(crn_serve::TicketError::Expired));
    assert!(unbounded.wait().expect("served").is_computed());
    assert!(generous.wait().expect("served").is_computed());
    let stats = runtime.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 3);
    assert!(stats.fully_resolved(), "{stats:?}");
}

#[test]
fn submit_retrying_for_gives_up_after_its_patience() {
    // Queue depth 1 and a slow plug batch: admission stays full well past the 20ms
    // patience, so the bounded backoff must give up with DeadlineExceeded instead of
    // parking forever.
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let runtime = runtime_over(
        SlowModel(Duration::from_millis(200)),
        pool,
        RuntimeConfig::default()
            .with_queue_depth(1)
            .with_batch_max(1)
            .with_window_us(0),
    );
    let plug = runtime.submit(0, Query::scan("title")).expect("admitted");
    wait_until_plug_in_flight(&runtime);
    // The scheduler popped the plug; fill the single queue slot so admission is full.
    let filler = runtime.submit(1, Query::scan("title")).expect("admitted");
    let started = std::time::Instant::now();
    match runtime.submit_retrying_for(2, &Query::scan("title"), Some(Duration::from_millis(20))) {
        Err(SubmitError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let gave_up_after = started.elapsed();
    assert!(
        gave_up_after < Duration::from_millis(150),
        "patience bounds the retry loop: {gave_up_after:?}"
    );
    assert!(plug.wait().is_ok());
    assert!(filler.wait().is_ok());
    runtime.shutdown();
}

#[test]
fn retrying_submission_deadline_anchors_at_the_first_attempt() {
    // Regression: `submit_retrying_for` used to recompute the request deadline on every
    // retry, so each shed attempt slid the expiry window forward and a request admitted
    // after a long backoff could execute arbitrarily later than its configured bound.
    // The deadline must anchor at the FIRST attempt: here admission stays full (queue
    // depth 1 behind a ~300ms plug batch) until long after the 40ms default deadline,
    // so once the retrying submission finally admits, it is already stale and must
    // resolve Expired — never execute.
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let runtime = runtime_over(
        SlowModel(Duration::from_millis(300)),
        pool,
        RuntimeConfig::default()
            .with_queue_depth(1)
            .with_batch_max(1)
            .with_window_us(0)
            .with_deadline_us(40_000),
    );
    let plug = runtime.submit(0, Query::scan("title")).expect("admitted");
    wait_until_plug_in_flight(&runtime);
    // The scheduler popped the plug; this filler occupies the single queue slot for the
    // whole plug batch (~300ms), keeping the retry loop shedding well past 40ms.
    let filler = runtime
        .submit(1, Query::scan("cast_info"))
        .expect("admitted");
    let target = runtime
        .submit_retrying_for(2, &Query::scan("cast_info"), Some(Duration::from_secs(5)))
        .expect("admitted once the plug batch retired");
    assert_eq!(
        target.wait(),
        Err(crn_serve::TicketError::Expired),
        "a deadline anchored at the first attempt has long passed by admission time"
    );
    assert!(plug.wait().is_ok());
    // The filler went stale in the queue too (same 40ms bound) — the point is only that
    // the retrying submission did not get a fresh deadline per retry.
    assert_eq!(filler.wait(), Err(crn_serve::TicketError::Expired));
    let stats = runtime.shutdown();
    assert_eq!(stats.expired, 2);
    assert!(stats.fully_resolved(), "{stats:?}");
}

#[test]
fn zero_window_serves_a_closed_loop_caller_one_by_one() {
    let runtime = instant_runtime(RuntimeConfig::default().with_window_us(0));
    let query = Query::scan("title");
    let mut estimates = Vec::new();
    for _ in 0..10 {
        // Closed loop: at most one request is ever pending, so every batch is size 1.
        let outcome = runtime
            .submit(7, query.clone())
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(outcome.batch_size, 1);
        estimates.push(outcome.estimate);
    }
    assert!(estimates.windows(2).all(|w| w[0] == w[1]));
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.batches, 10);
    assert_eq!(stats.max_batch, 1);
    assert_eq!(
        stats.size_closes + stats.window_closes + stats.drain_closes,
        stats.batches
    );
}

#[test]
fn size_threshold_closes_batches_before_the_window() {
    let runtime = instant_runtime(
        RuntimeConfig::default()
            .with_batch_max(2)
            .with_window_us(10_000_000),
    );
    let query = Query::scan("title");
    // Two submissions hit the size threshold immediately — the 10s window never matters.
    let t1 = runtime.submit(0, query.clone()).expect("admitted");
    let t2 = runtime.submit(1, query.clone()).expect("admitted");
    let (o1, o2) = (t1.wait().expect("served"), t2.wait().expect("served"));
    assert_eq!(o1.batch_size, 2);
    assert_eq!(o1.batch_seq, o2.batch_seq);
    let stats = runtime.shutdown();
    assert!(stats.size_closes >= 1, "{stats:?}");
}

#[test]
fn dropping_the_runtime_drains_gracefully() {
    let runtime = instant_runtime(
        RuntimeConfig::default()
            .with_batch_max(100)
            .with_window_us(10_000_000),
    );
    let ticket = runtime.submit(0, Query::scan("title")).expect("admitted");
    runtime
        .record_feedback(Query::scan("cast_info"), 123)
        .expect("maintenance admits");
    let pool_len_handle = Arc::clone(runtime.service());
    drop(runtime);
    // The queued request resolved and the feedback record applied before the threads
    // were joined.
    assert!(ticket.poll().is_some());
    assert_eq!(pool_len_handle.pool().len(), 1);
}

#[test]
fn maintenance_lane_sheds_at_depth() {
    let config = RuntimeConfig {
        maintenance_depth: 2,
        ..RuntimeConfig::default()
    };
    // Stall the maintenance thread? Not needed: fill faster than it can drain is racy,
    // so instead verify the bound with the runtime quiesced via flush() in between.
    let runtime = instant_runtime(config);
    for i in 0..20u64 {
        // Either admitted or shed with QueueFull — never a panic, never blocking.
        match runtime.record_feedback(Query::scan("title"), i) {
            Ok(()) | Err(SubmitError::Overloaded { .. }) => {}
            other => panic!("unexpected feedback result {other:?}"),
        }
    }
    runtime.flush();
    let stats = runtime.stats();
    assert_eq!(
        stats.maintenance_applied + stats.maintenance_rejected,
        20,
        "every record either applied or was shed: {stats:?}"
    );
    // Upserting the same query repeatedly keeps exactly one entry.
    assert_eq!(runtime.service().pool().len(), 1);
    runtime.shutdown();
}

/// `record_observed` folds the served estimate's q-error into the upserted anchor's
/// retention weight (the signal the bounded pool's eviction ranks by) and counts it in
/// `retention_updates`; a plain `record_feedback` refreshes the pool but does neither.
#[test]
fn record_observed_folds_the_served_q_error_into_retention() {
    let runtime = instant_runtime(RuntimeConfig::default());
    let pool = runtime.service().pool();
    let weight =
        |query: &Query| pool.snapshot().shards()[pool.shard_of(query)].retention_weight(query);

    // Served 10, executed 100: q-error 10, so the weight moves 0.3 of the way to 1/10.
    let observed = Query::scan("title");
    runtime
        .record_observed(observed.clone(), 100, 10.0)
        .expect("maintenance admits");
    runtime.flush();
    let sunk = 0.7 * DEFAULT_RETENTION_WEIGHT + (1.0 - 0.7) * 0.1;
    assert_eq!(weight(&observed), sunk);
    assert_eq!(runtime.stats().retention_updates, 1);

    // Without an estimate: a new anchor joins at the default weight, and a refreshed
    // resident anchor keeps the weight it had.
    let plain = Query::scan("movie_info");
    for (query, cardinality) in [(&plain, 7), (&observed, 90)] {
        runtime
            .record_feedback(query.clone(), cardinality)
            .expect("maintenance admits");
    }
    runtime.flush();
    let stats = runtime.stats();
    assert_eq!(stats.maintenance_applied, 3);
    assert_eq!(stats.retention_updates, 1, "plain feedback folds nothing");
    assert_eq!(weight(&plain), DEFAULT_RETENTION_WEIGHT);
    assert_eq!(weight(&observed), sunk);
    assert_eq!(runtime.service().pool().len(), 2);
    runtime.shutdown();
}

#[test]
fn periodic_compaction_runs_on_the_maintenance_lane() {
    // Five inserts of structurally-identical scans (same shape, different literals would
    // share a structure key; identical queries upsert in place, so use distinct tables
    // to grow then duplicates to compact).  The cadence is in *applied records*.
    let pool = ShardedPool::new(2);
    let runtime = runtime_over(
        ConstModel,
        pool,
        RuntimeConfig::default().with_compact_every(3),
    );
    for table in ["title", "cast_info", "movie_keyword", "movie_info", "name"] {
        runtime
            .record_feedback(Query::scan(table), 11)
            .expect("maintenance admits");
    }
    runtime.flush();
    let stats = runtime.stats();
    assert_eq!(stats.maintenance_applied, 5);
    assert_eq!(
        stats.compactions, 1,
        "one cadence hit at the 3rd applied record (the 6th has not arrived)"
    );
    // Disabled cadence never compacts.
    let quiet = instant_runtime(RuntimeConfig::default());
    quiet
        .record_feedback(Query::scan("title"), 3)
        .expect("maintenance admits");
    quiet.flush();
    assert_eq!(quiet.stats().compactions, 0);
    quiet.shutdown();
    runtime.shutdown();
}
