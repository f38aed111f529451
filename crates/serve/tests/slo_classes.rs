//! Behavioural tests of the latency SLO classes: per-class batching windows (the
//! scheduler closes the most urgent class first), weighted admission shares (batch
//! traffic can never occupy interactive slots), and the config math both are built on.
//! Like `runtime_behavior.rs`, these run over trivial models so they exercise pure
//! scheduler/admission behaviour.

use crn_core::{EstimatorService, ShardedPool};
use crn_estimators::ContainmentEstimator;
use crn_nn::parallel::WorkerPool;
use crn_query::Query;
use crn_serve::{RejectReason, RuntimeConfig, ServeRuntime, SloClass, SubmitError};
use std::sync::Arc;
use std::time::Duration;

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

/// A model that sleeps on every pair — pins the scheduler in a slow batch so pending
/// requests accumulate and the admission bounds become observable.
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

fn runtime_over<M: ContainmentEstimator + Send + Sync + 'static>(
    model: M,
    pool: ShardedPool,
    config: RuntimeConfig,
) -> ServeRuntime<EstimatorService<M>> {
    let service = Arc::new(EstimatorService::new(model, pool, WorkerPool::shared(1)));
    ServeRuntime::new(service, config)
}

#[test]
fn class_share_math_and_window_inheritance() {
    let config = RuntimeConfig::default()
        .with_queue_depth(8)
        .with_class_weights([3, 1]);
    // ceil(8·3/4) = 6 and ceil(8·1/4) = 2: the weighted split of the depth.
    assert_eq!(config.class_share(SloClass::Interactive), 6);
    assert_eq!(config.class_share(SloClass::Batch), 2);
    // All-zero weights (the default) disable shares: every class may use the full depth.
    let unweighted = RuntimeConfig::default().with_queue_depth(8);
    assert_eq!(unweighted.class_share(SloClass::Interactive), 8);
    assert_eq!(unweighted.class_share(SloClass::Batch), 8);
    // A zero-weight class among non-zero weights still gets the floor of 1 — weighted
    // admission throttles, it never bricks a class outright.
    let lopsided = RuntimeConfig::default()
        .with_queue_depth(8)
        .with_class_weights([1, 0]);
    assert_eq!(lopsided.class_share(SloClass::Batch), 1);

    // Windows: interactive inherits the base window by default, batch defaults to 2ms,
    // and setting a class window to 0µs restores inheritance.
    let windows = RuntimeConfig::default().with_window_us(100);
    assert_eq!(
        windows.class_window(SloClass::Interactive),
        Duration::from_micros(100)
    );
    assert_eq!(
        windows.class_window(SloClass::Batch),
        Duration::from_millis(2)
    );
    let inherited = windows.with_class_window_us(SloClass::Batch, 0);
    assert_eq!(
        inherited.class_window(SloClass::Batch),
        Duration::from_micros(100)
    );
    let explicit = RuntimeConfig::default().with_class_window_us(SloClass::Batch, 7_000);
    assert_eq!(
        explicit.class_window(SloClass::Batch),
        Duration::from_micros(7_000)
    );
}

#[test]
fn interactive_requests_close_before_an_open_batch_window() {
    // Batch-class traffic batches under a long 300ms window; interactive traffic gets a
    // 100µs base window (the default is zero, which would only make it close sooner).
    // An interactive request arriving while a batch request is
    // still accumulating must close (and resolve) first — the most-urgent-class-first
    // close decision.
    let runtime = runtime_over(
        ConstModel,
        ShardedPool::new(2),
        RuntimeConfig::default()
            .with_window_us(100)
            .with_class_window_us(SloClass::Batch, 300_000),
    );
    runtime.register_caller(8, SloClass::Batch);
    assert_eq!(runtime.caller_class(8), SloClass::Batch);
    assert_eq!(runtime.caller_class(1), SloClass::Interactive);

    let background = runtime.submit(8, Query::scan("title")).expect("admitted");
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        background.poll().is_none(),
        "the batch-class window holds its batch open"
    );
    let foreground = runtime
        .submit(1, Query::scan("cast_info"))
        .expect("admitted");
    let fg = foreground.wait().expect("served");
    assert!(
        background.poll().is_none(),
        "the interactive batch closed and served while the batch window was still open"
    );
    let bg = background.wait().expect("served");
    assert!(
        fg.batch_seq < bg.batch_seq,
        "the later-submitted interactive request must close first: \
         interactive seq {} vs batch seq {}",
        fg.batch_seq,
        bg.batch_seq
    );
    assert!(
        bg.queue_wait >= Duration::from_millis(100),
        "the batch request waited out (most of) its class window: {:?}",
        bg.queue_wait
    );
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.batches, 2, "single-class batches: one per class");
    assert!(stats.fully_resolved(), "{stats:?}");
}

#[test]
fn weighted_admission_caps_batch_traffic_but_not_interactive() {
    // Queue depth 8 split [3, 1]: the batch class may hold at most ceil(8/4) = 2
    // pending requests, interactive up to 6.  A slow plug batch pins the scheduler so
    // the queue actually accumulates.
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let runtime = runtime_over(
        SlowModel(Duration::from_millis(300)),
        pool,
        RuntimeConfig::default()
            .with_queue_depth(8)
            .with_batch_max(1)
            .with_window_us(0)
            .with_class_weights([3, 1]),
    );
    runtime.register_caller(50, SloClass::Batch);
    runtime.register_caller(51, SloClass::Batch);

    // The plug: popped immediately (window 0, batch max 1), then ~300ms in flight.
    let plug = runtime.submit(0, Query::scan("title")).expect("admitted");
    std::thread::sleep(Duration::from_millis(20));

    // The batch class fills its share of 2 and is then shed with ClassShare — even
    // though the queue itself has plenty of room.
    let b1 = runtime
        .submit(50, Query::scan("cast_info"))
        .expect("admitted");
    let b2 = runtime
        .submit(51, Query::scan("cast_info"))
        .expect("admitted");
    match runtime.submit(50, Query::scan("cast_info")) {
        Err(SubmitError::Overloaded {
            reason: RejectReason::ClassShare,
            ..
        }) => {}
        other => panic!("expected a class-share rejection, got {other:?}"),
    }

    // Interactive callers still find their whole share admissible: the starvation
    // guarantee weighted admission exists for.
    let interactive: Vec<_> = (1..=6u64)
        .map(|caller| {
            runtime
                .submit(caller, Query::scan("cast_info"))
                .expect("interactive slots stay open despite the batch flood")
        })
        .collect();
    // Now the queue really is at depth: a further interactive submission sheds with
    // QueueFull, not ClassShare.
    match runtime.submit(7, Query::scan("cast_info")) {
        Err(SubmitError::Overloaded {
            reason: RejectReason::QueueFull,
            ..
        }) => {}
        other => panic!("expected a queue-full rejection, got {other:?}"),
    }

    assert!(plug.wait().is_ok());
    assert!(b1.wait().is_ok());
    assert!(b2.wait().is_ok());
    for ticket in &interactive {
        assert!(ticket.wait().is_ok());
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 9);
    assert_eq!(stats.rejected_class_share, 1);
    assert_eq!(stats.rejected_queue_full, 1);
    assert!(stats.fully_resolved(), "{stats:?}");
}

#[test]
fn unregistered_runtime_behaves_like_the_single_window_runtime() {
    // No registered callers, default all-zero weights: every request is interactive,
    // no class share ever rejects, and the batch-class default window is irrelevant.
    let runtime = runtime_over(
        ConstModel,
        ShardedPool::new(2),
        RuntimeConfig::default()
            .with_queue_depth(4)
            .with_window_us(0),
    );
    for caller in 0..12u64 {
        let outcome = runtime
            .submit_retrying(caller, &Query::scan("title"))
            .expect("admitted")
            .wait()
            .expect("served");
        assert!(outcome.is_computed());
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.rejected_class_share, 0);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        0,
        "cache off by default"
    );
    assert!(stats.fully_resolved(), "{stats:?}");
}
