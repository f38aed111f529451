//! The chaos suite: deterministic fault plans against a live runtime.
//!
//! Every test scripts a [`FaultPlan`] (occurrence-counted, no wall clock, no
//! randomness — the same plan kills the same thread at the same point on every run)
//! and pins the resilience layer's headline invariant: **every admitted ticket
//! resolves** — completed, degraded, expired or failed — under every plan, plus the
//! plan-specific behaviour (restart with queues intact, budget breach degrades to
//! sync serving, maintenance failures counted while the lane keeps draining).

use crn_core::{EstimatorService, ServeResponse, ServeStats, ShardedPool};
use crn_estimators::ContainmentEstimator;
use crn_nn::parallel::WorkerPool;
use crn_query::Query;
use crn_serve::{
    ComputeBackend, EstimateSource, FaultInjector, FaultPlan, FaultSite, FaultTrigger,
    RuntimeConfig, ServeRuntime, SupervisorPolicy, TicketError, LANE_MAINTENANCE, LANE_SCHEDULER,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A trivial containment model — all chaos here comes from the injector, not the model.
struct ConstModel;

impl ContainmentEstimator for ConstModel {
    fn name(&self) -> &str {
        "const"
    }

    fn estimate_containment(&self, _q1: &Query, _q2: &Query) -> f64 {
        0.5
    }
}

fn chaos_runtime(
    plan: FaultPlan,
    config: RuntimeConfig,
) -> ServeRuntime<EstimatorService<ConstModel>> {
    // The pool covers `title`, so title scans route through the full model path (the
    // path BatchExecute interrupts); everything still resolves through fallbacks when
    // a batch degrades.
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let service = Arc::new(EstimatorService::new(
        ConstModel,
        pool,
        WorkerPool::shared(1),
    ));
    ServeRuntime::with_faults(service, config, FaultInjector::new(plan))
}

#[test]
fn batch_panic_resolves_the_batch_degraded_and_later_batches_compute() {
    let plan = FaultPlan::none().with(FaultSite::BatchExecute, FaultTrigger::Once(2));
    let runtime = chaos_runtime(
        plan,
        RuntimeConfig::default().with_batch_max(1).with_window_us(0),
    );
    let query = Query::scan("title");
    let mut sources = Vec::new();
    for _ in 0..4 {
        // Closed loop: each submission is its own batch, so the injected fault hits
        // exactly the 2nd one.
        let outcome = runtime
            .submit(0, query.clone())
            .expect("admitted")
            .wait()
            .expect("resolved with an estimate");
        assert!(outcome.estimate > 0.0);
        sources.push(outcome.source);
    }
    assert_eq!(
        sources,
        vec![
            EstimateSource::Computed,
            EstimateSource::Degraded,
            EstimateSource::Computed,
            EstimateSource::Computed,
        ],
        "exactly the scripted batch degraded"
    );
    let stats = runtime.shutdown();
    assert!(stats.fully_resolved(), "{stats:?}");
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.faults_injected, 1);
    assert_eq!(
        stats.scheduler_restarts, 0,
        "a contained batch panic never reaches the supervisor"
    );
}

#[test]
fn model_panicking_every_kth_batch_still_resolves_every_ticket() {
    // Satellite: the repeated-panic shape — every 3rd batch execution panics, for the
    // whole run.  The runtime must keep alternating computed/degraded forever without
    // thread restarts or hangs.
    let plan = FaultPlan::none().with(FaultSite::BatchExecute, FaultTrigger::Every(3));
    let runtime = chaos_runtime(
        plan,
        RuntimeConfig::default().with_batch_max(1).with_window_us(0),
    );
    let query = Query::scan("title");
    let mut degraded = 0u64;
    for index in 0..12u64 {
        let outcome = runtime
            .submit(0, query.clone())
            .expect("admitted")
            .wait()
            .expect("resolved");
        if outcome.source == EstimateSource::Degraded {
            degraded += 1;
            assert_eq!((index + 1) % 3, 0, "only every 3rd batch degrades");
        }
    }
    assert_eq!(degraded, 4);
    let stats = runtime.shutdown();
    assert!(stats.fully_resolved(), "{stats:?}");
    assert_eq!(stats.degraded, 4);
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.scheduler_restarts, 0);
}

#[test]
fn scheduler_kill_restarts_the_lane_with_the_queue_intact() {
    let plan = FaultPlan::none().with(FaultSite::SchedulerLoop, FaultTrigger::Once(1));
    let obs = crn_obs::Obs::new(crn_obs::ObsConfig::enabled());
    let runtime = chaos_runtime(
        plan,
        RuntimeConfig::default()
            .with_batch_max(1)
            .with_window_us(0)
            .with_obs(obs.clone()),
    );
    let query = Query::scan("title");
    // Queue several requests up front: the kill orphans the first popped batch
    // mid-flight, and the *queued* remainder must survive the restart untouched.
    let tickets: Vec<_> = (0..4u64)
        .map(|caller| runtime.submit(caller, query.clone()).expect("admitted"))
        .collect();
    let mut degraded = 0u64;
    let mut computed = 0u64;
    let mut batch_seqs = std::collections::BTreeSet::new();
    for ticket in &tickets {
        match ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("no admitted ticket may hang across a scheduler kill")
        {
            Ok(outcome) => {
                if outcome.source == EstimateSource::Degraded {
                    degraded += 1;
                } else {
                    computed += 1;
                }
                batch_seqs.insert(outcome.batch_seq);
            }
            Err(error) => panic!("unexpected ticket error {error:?}"),
        }
    }
    // Exactly the orphaned batch resolved degraded (via the recovery hook); everything
    // that was still queued when the thread died was served normally after the restart.
    assert_eq!(degraded, 1);
    assert_eq!(computed, 3);
    // One request per batch, and the orphan keeps its own sequence number.
    assert_eq!(batch_seqs.len(), 4, "batch_seq reused: {batch_seqs:?}");
    // The restarted lane is fully live: a fresh submission computes.
    let fresh = runtime
        .submit(9, query.clone())
        .expect("admitted")
        .wait()
        .expect("served");
    assert!(fresh.is_computed());
    let stats = runtime.shutdown();
    assert!(stats.fully_resolved(), "{stats:?}");
    assert_eq!(stats.scheduler_restarts, 1);
    assert!(!stats.degraded_sync_mode);
    assert_eq!(runtime_supervisor_panics(&stats), 1);
    // The restart is on the operator's record, not only in a counter.
    assert_eq!(journaled_restarts(&obs, LANE_SCHEDULER), [1]);
    assert!(journaled_restarts(&obs, LANE_MAINTENANCE).is_empty());
}

/// The restart count each `supervisor_restart` journal event of `lane` carried, in order.
fn journaled_restarts(obs: &crn_obs::Obs, lane: &str) -> Vec<u64> {
    obs.events_since(0)
        .iter()
        .filter_map(|entry| match entry.event {
            crn_obs::Event::SupervisorRestart {
                lane: event_lane,
                restarts,
            } if event_lane == lane => Some(restarts),
            _ => None,
        })
        .collect()
}

fn runtime_supervisor_panics(stats: &crn_serve::RuntimeStats) -> u64 {
    // Restarts == panics while within budget (each escaped panic was granted).
    stats.scheduler_restarts + stats.maintenance_restarts
}

#[test]
fn scheduler_budget_breach_degrades_to_sync_serving_and_nothing_hangs() {
    // Every batch pop kills the scheduler; with a budget of 2 restarts the 3rd kill
    // breaches it and the runtime must flip to degraded-sync serving — still answering,
    // on the submitting thread, and saying so in the stats.
    let plan = FaultPlan::none().with(FaultSite::SchedulerLoop, FaultTrigger::Every(1));
    let runtime = chaos_runtime(
        plan,
        RuntimeConfig::default()
            .with_batch_max(1)
            .with_window_us(0)
            .with_restart_policy(SupervisorPolicy::default().with_max_restarts(2)),
    );
    let query = Query::scan("title");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut resolved = 0u64;
    // Closed loop until the runtime reports the breach: every ticket must resolve
    // (degraded via the recovery hook while the lane crash-loops, computed-sync after).
    while !runtime.stats().degraded_sync_mode {
        assert!(
            Instant::now() < deadline,
            "budget breach must be reached deterministically"
        );
        let ticket = runtime.submit(0, query.clone()).expect("admitted");
        assert!(
            ticket.wait_timeout(Duration::from_secs(10)).is_some(),
            "no ticket may hang across the crash loop"
        );
        resolved += 1;
    }
    assert!(resolved >= 3, "three kills before the breach");
    // Degraded-sync mode: submissions serve synchronously, full fidelity (the service
    // itself is healthy — only the scheduler lane is gone).
    let outcome = runtime
        .submit(1, query.clone())
        .expect("degraded-sync still admits")
        .wait()
        .expect("served synchronously");
    assert!(outcome.is_computed());
    assert_eq!(outcome.batch_size, 1);
    let stats = runtime.shutdown();
    assert!(stats.fully_resolved(), "{stats:?}");
    assert!(stats.degraded_sync_mode);
    assert_eq!(stats.scheduler_restarts, 2, "budget of 2 was spent");
    assert!(stats.sync_served >= 1);
    assert!(stats.degraded >= 3, "each kill degraded its orphaned batch");
}

/// A backend answering every batch one row short — a malformed response, which the
/// runtime must treat like a panicked batch — whose fallback answers `fallback`, or
/// panics too when that is `None`.
struct ShortBackend {
    fallback: Option<f64>,
}

impl ComputeBackend for ShortBackend {
    fn serve(&self, queries: &[Query]) -> ServeResponse {
        ServeResponse {
            estimates: vec![1.0; queries.len().saturating_sub(1)],
            stats: ServeStats::default(),
            snapshot: ShardedPool::new(1).snapshot(),
            pool_version: 0,
            degraded: Vec::new(),
        }
    }

    fn fallback_estimate(&self, _query: &Query) -> f64 {
        self.fallback.expect("the fallback fails too")
    }

    fn serving_versions(&self) -> (u64, u64) {
        (0, 0)
    }

    fn apply_feedback(&self, _query: &Query, _cardinality: u64) {}

    fn record_retention(&self, _query: &Query, _q_error: f64) -> bool {
        false
    }

    fn pool_evictions(&self) -> u64 {
        0
    }

    fn compact(&self) -> usize {
        0
    }

    fn name(&self) -> &str {
        "short"
    }
}

#[test]
fn a_short_backend_response_resolves_every_ticket_exactly_once() {
    for fallback in [Some(7.0), None] {
        // Batch max 3 and a window far longer than the test: the three distinct queries
        // close as one size-closed batch, whose response has two rows for three queries.
        let runtime = ServeRuntime::new(
            Arc::new(ShortBackend { fallback }),
            RuntimeConfig::default()
                .with_batch_max(3)
                .with_window_us(10_000_000),
        );
        let tickets: Vec<_> = ["title", "cast_info", "movie_companies"]
            .into_iter()
            .zip(0u64..)
            .map(|(table, caller)| {
                runtime
                    .submit(caller, Query::scan(table))
                    .expect("admitted")
            })
            .collect();
        for ticket in &tickets {
            match (ticket.wait(), fallback) {
                (Ok(outcome), Some(estimate)) => {
                    assert_eq!(outcome.source, EstimateSource::Degraded);
                    assert_eq!((outcome.estimate, outcome.batch_size), (estimate, 3));
                }
                (Err(TicketError::BatchFailed), None) => {}
                (resolution, _) => panic!("{fallback:?} fallback resolved {resolution:?}"),
            }
        }
        let stats = runtime.shutdown();
        let (degraded, failed) = if fallback.is_some() { (3, 0) } else { (0, 3) };
        assert_eq!(
            (
                stats.submitted,
                stats.completed,
                stats.degraded,
                stats.failed
            ),
            (3, 0, degraded, failed),
            "each ticket resolves once: {stats:?}"
        );
        assert!(stats.fully_resolved(), "{stats:?}");
        assert_eq!(stats.scheduler_restarts, 0, "contained, not a thread death");
    }
}

#[test]
fn maintenance_kill_restarts_the_lane_and_the_backlog_applies() {
    let plan = FaultPlan::none().with(FaultSite::MaintenanceLoop, FaultTrigger::Once(1));
    let obs = crn_obs::Obs::new(crn_obs::ObsConfig::enabled());
    let runtime = chaos_runtime(plan, RuntimeConfig::default().with_obs(obs.clone()));
    // Three distinct records: the first is lost mid-record to the kill, the other two
    // must survive the restart (the queue lives in shared state, not the dead thread).
    for table in ["cast_info", "movie_companies", "movie_keyword"] {
        runtime
            .record_feedback(Query::scan(table), 42)
            .expect("maintenance admits");
    }
    runtime.flush();
    let stats = runtime.stats();
    assert_eq!(stats.maintenance_restarts, 1);
    assert_eq!(
        stats.maintenance_failed, 1,
        "exactly the killed record lost"
    );
    assert_eq!(stats.maintenance_applied, 2);
    assert!(!stats.maintenance_down);
    // 1 seeded `title` entry + the records that applied.  Which record the kill eats
    // depends on pop order (deterministic: arrival order), but the count is pinned.
    assert_eq!(runtime.service().pool().len(), 3);
    assert_eq!(journaled_restarts(&obs, LANE_MAINTENANCE), [1]);
    assert!(journaled_restarts(&obs, LANE_SCHEDULER).is_empty());
    runtime.shutdown();
}

#[test]
fn maintenance_panicking_every_upsert_is_contained_without_restarts() {
    // Satellite: the repeated-panic shape on the maintenance lane — every single upsert
    // panics *inside* containment.  The lane must count every failure and keep
    // draining; the supervisor is never involved.
    let plan = FaultPlan::none().with(FaultSite::MaintenanceUpsert, FaultTrigger::Every(1));
    let runtime = chaos_runtime(plan, RuntimeConfig::default());
    for index in 0..8u64 {
        runtime
            .record_feedback(Query::scan("cast_info"), index)
            .expect("maintenance admits");
    }
    runtime.flush();
    let stats = runtime.stats();
    assert_eq!(stats.maintenance_failed, 8, "every upsert failed");
    assert_eq!(stats.maintenance_applied, 0);
    assert_eq!(
        stats.maintenance_restarts, 0,
        "contained panics never escalate"
    );
    assert!(!stats.maintenance_down);
    assert_eq!(runtime.service().pool().len(), 1, "only the seeded entry");
    // Serving was never disturbed.
    let outcome = runtime
        .submit(0, Query::scan("title"))
        .expect("admitted")
        .wait()
        .expect("served");
    assert!(outcome.is_computed());
    runtime.shutdown();
}

#[test]
fn maintenance_budget_breach_takes_the_lane_down_and_sheds_loudly() {
    // A kill on every record with a zero restart budget: the first escaped panic
    // breaches, the lane stays down, and both the backlog and later submissions are
    // shed as explicit counts — serving itself is untouched.
    let plan = FaultPlan::none().with(FaultSite::MaintenanceLoop, FaultTrigger::Every(1));
    let runtime = chaos_runtime(
        plan,
        RuntimeConfig::default()
            .with_restart_policy(SupervisorPolicy::default().with_max_restarts(0)),
    );
    // The first record always admits (the lane can only die after popping one); later
    // ones race the breach — either queued (then dropped by the breach drain) or
    // already shed against the dead lane.  Both resolve to explicit counts.
    let mut admitted = 0u64;
    for table in ["cast_info", "movie_companies"] {
        if runtime.record_feedback(Query::scan(table), 7).is_ok() {
            admitted += 1;
        }
    }
    assert!(admitted >= 1, "the first record precedes any kill");
    // The lane dies on the first record; wait until the breach is visible.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !runtime.stats().maintenance_down {
        assert!(Instant::now() < deadline, "breach must surface");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = runtime.stats();
    assert_eq!(stats.maintenance_restarts, 0);
    assert_eq!(
        stats.maintenance_failed, admitted,
        "every admitted record ends up counted failed: killed in-flight or dropped backlog"
    );
    // New feedback sheds instead of queueing into a dead lane.
    assert!(runtime
        .record_feedback(Query::scan("movie_keyword"), 9)
        .is_err());
    assert!(runtime.stats().maintenance_rejected >= 1);
    // flush() must not wedge on a dead lane, and serving still works.
    runtime.flush();
    let outcome = runtime
        .submit(0, Query::scan("title"))
        .expect("admitted")
        .wait()
        .expect("served");
    assert!(outcome.is_computed());
    runtime.shutdown();
}

#[test]
fn a_combined_plan_upholds_the_headline_invariant() {
    // Everything at once: a batch panic, a scheduler kill and a maintenance kill in one
    // run.  The single invariant that must survive arbitrary composition: every
    // admitted ticket resolves, and the runtime shuts down cleanly.
    let plan = FaultPlan::none()
        .with(FaultSite::BatchExecute, FaultTrigger::Once(3))
        .with(FaultSite::SchedulerLoop, FaultTrigger::Once(5))
        .with(FaultSite::MaintenanceLoop, FaultTrigger::Once(2));
    let runtime = chaos_runtime(
        plan,
        RuntimeConfig::default().with_batch_max(1).with_window_us(0),
    );
    let query = Query::scan("title");
    for index in 0..10u64 {
        let ticket = runtime.submit(index, query.clone()).expect("admitted");
        assert!(
            ticket.wait_timeout(Duration::from_secs(10)).is_some(),
            "ticket {index} must resolve under the combined plan"
        );
        runtime
            .record_feedback(Query::scan("cast_info"), index)
            .expect("maintenance admits");
    }
    runtime.flush();
    let supervisor = Arc::clone(runtime.supervisor());
    let stats = runtime.shutdown();
    assert!(stats.fully_resolved(), "{stats:?}");
    assert!(stats.faults_injected >= 3, "{stats:?}");
    assert_eq!(stats.scheduler_restarts, 1);
    assert_eq!(stats.maintenance_restarts, 1);
    assert!(!stats.degraded_sync_mode);
    // The supervisor's lane view matches the stats snapshot.
    assert_eq!(supervisor.restarts(LANE_SCHEDULER), 1);
    assert_eq!(supervisor.restarts(LANE_MAINTENANCE), 1);
    assert_eq!(supervisor.total_restarts(), 2);
}
