//! Fault-tolerance tests of the online subsystem: the relative validation-gate margin,
//! crash-safe checkpoint round-trips (bit-identical restore, corruption detection,
//! sequence/cleanup discipline) and supervised refresh-worker recovery.

use crn_core::{Cnt2Crd, CrnModel, EstimatorService, QueriesPool, ShardedPool};
use crn_db::imdb::{generate_imdb, ImdbConfig};
use crn_db::Database;
use crn_exec::{label_containment_pairs, Executor};
use crn_nn::parallel::{ThreadPoolConfig, WorkerPool};
use crn_nn::TrainConfig;
use crn_online::{
    Checkpoint, CheckpointError, ExecLabeler, OnlineConfig, RefreshController, RefreshDecision,
    RefreshWorker,
};
use crn_query::generator::{GeneratorConfig, QueryGenerator, ScaleGenerator, ScaleGeneratorConfig};
use crn_query::Query;
use crn_serve::{
    FaultInjector, FaultPlan, FeedbackObserver, Supervisor, SupervisorPolicy, LANE_REFRESH,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic training config: canonical shards + canonical reduction order, so two
/// identically-seeded fixtures are bit-identical whatever `THREADS` the CI matrix sets.
fn train_config() -> TrainConfig {
    let mut config = TrainConfig::fast_test();
    config.parallel = ThreadPoolConfig::deterministic(config.parallel.threads.max(1));
    config
}

fn trained_crn(db: &Database, seed: u64) -> CrnModel {
    let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
    let pairs = gen.generate_pairs(40, 160);
    let samples = label_containment_pairs(db, &pairs, 4);
    let mut crn = CrnModel::new(db, train_config());
    crn.fit(&samples);
    crn
}

struct Fixture {
    db: Database,
    pool: QueriesPool,
    service: Arc<EstimatorService<CrnModel>>,
}

fn fixture(seed: u64) -> Fixture {
    let db = generate_imdb(&ImdbConfig::tiny(seed));
    let pool = QueriesPool::generate(&db, 60, 2, seed);
    let crn = trained_crn(&db, seed);
    let service = Arc::new(EstimatorService::new(
        crn,
        ShardedPool::from_pool(&pool, 4),
        WorkerPool::shared(2),
    ));
    Fixture { db, pool, service }
}

/// Shifted (drift-inducing) traffic, filtered to pool-covered FROM clauses.
fn shifted_workload(db: &Database, pool: &QueriesPool, seed: u64, count: usize) -> Vec<Query> {
    let mut gen = ScaleGenerator::new(
        db,
        ScaleGeneratorConfig {
            seed,
            max_joins: 2,
            eq_bias: 0.7,
        },
    );
    gen.generate(count * 4)
        .into_iter()
        .filter(|q| pool.matching(q).next().is_some())
        .take(count)
        .collect()
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crn_ft_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn margin_config(gate_margin: f64) -> OnlineConfig {
    OnlineConfig {
        drift_window: 32,
        drift_threshold: 1.5,
        min_observations: 12,
        min_fresh: 12,
        probe_fraction: 0.25,
        min_probe: 3,
        fine_tune_epochs: 6,
        gate_margin,
        ..OnlineConfig::default()
    }
}

/// Serves `queries` and feeds each observed truth back: upserted into the pool and handed
/// to the controller (what the maintenance lane's observer channel would deliver).
fn feed(fx: &Fixture, controller: &RefreshController, queries: &[Query]) {
    let truth = Executor::new(&fx.db);
    for query in queries {
        let estimate = fx.service.estimate_one(query);
        let cardinality = truth.cardinality(query);
        fx.service.pool().upsert(query.clone(), cardinality);
        controller.observe(query, cardinality, estimate);
    }
}

/// Feeds the deterministic drift stream into a controller until the drift window trips
/// the threshold.  Fully deterministic: the same starting seed always produces the same
/// feed sequence.
fn feed_drift(fx: &Fixture, controller: &RefreshController, start_seed: u64) {
    for seed in start_seed..start_seed + 5 {
        let queries = shifted_workload(&fx.db, &fx.pool, seed, 40);
        assert!(queries.len() >= 20, "fixture needs pool-covered queries");
        feed(fx, controller, &queries);
        if controller.stats().window_median > 1.5 {
            return;
        }
    }
    panic!(
        "shifted traffic never inflated the drift window: median {}",
        controller.stats().window_median
    );
}

/// The noisy-probe regression of the relative gate margin: a candidate that beats the
/// live model — but not by the configured margin — is rejected, where the identical
/// candidate under margin 0 was applied.  Run 1 (margin 0) measures the deterministic
/// candidate/live probe medians; run 2 reruns the bit-identical cycle with a margin
/// chosen to put exactly that improvement inside the noise band.
#[test]
fn gate_margin_rejects_candidates_inside_the_noise_band() {
    // Run 1 — margin 0: the strict-improvement gate applies the candidate.
    let fx = fixture(130);
    let controller = RefreshController::new(
        Arc::clone(&fx.service),
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        margin_config(0.0),
    );
    feed_drift(&fx, &controller, 131);
    let outcome = controller.refresh_if_needed().expect("drift must trigger");
    assert_eq!(outcome.decision, RefreshDecision::Applied);
    assert_eq!(outcome.gate_margin, 0.0);
    assert!(outcome.gate_respected());
    assert!(outcome.candidate_probe_median < outcome.live_probe_median);

    // Run 2 — an identically-seeded fixture produces the identical cycle (deterministic
    // training + labeling + probe routing), but the margin demands the candidate beat
    // the live model by twice its actual improvement: same candidate, now "noise".
    let margin = 1.0 - (outcome.candidate_probe_median / outcome.live_probe_median) / 2.0;
    let fx2 = fixture(130);
    let strict = RefreshController::new(
        Arc::clone(&fx2.service),
        Box::new(ExecLabeler::new(Arc::new(fx2.db.clone()), 2)),
        margin_config(margin),
    );
    feed_drift(&fx2, &strict, 131);
    let rejected = strict.refresh_if_needed().expect("drift must trigger");
    assert_eq!(
        rejected.decision,
        RefreshDecision::RejectedByGate,
        "candidate {} vs live {} must fall inside the {margin:.3} margin",
        rejected.candidate_probe_median,
        rejected.live_probe_median
    );
    assert_eq!(rejected.gate_margin, margin);
    assert!(rejected.gate_respected());
    // The rejected cycle's medians are the applied cycle's medians — only the bar moved.
    assert_eq!(
        rejected.candidate_probe_median,
        outcome.candidate_probe_median
    );
    assert_eq!(rejected.live_probe_median, outcome.live_probe_median);
    assert_eq!(fx2.service.model_version(), 1, "no swap under the margin");
    let stats = strict.stats();
    assert_eq!(stats.refreshes_rejected, 1);
    assert_eq!(stats.refreshes_applied, 0);
}

/// The checkpoint round-trip: pool + model + controller state through JSON and back is
/// **bit-identical** — restored estimates match the source service exactly, and the
/// controller's durable state (counters, optimizer step, probe-routing position)
/// survives unchanged.
#[test]
fn checkpoint_round_trip_is_bit_identical() {
    let dir = test_dir("roundtrip");
    let fx = fixture(170);
    let controller = RefreshController::new(
        Arc::clone(&fx.service),
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        margin_config(0.0),
    );
    // Move every piece of durable state off its defaults before capturing.
    feed_drift(&fx, &controller, 171);

    let checkpoint = Checkpoint::capture(&fx.service, Some(&controller));
    let manifest = checkpoint.write_atomic(&dir).expect("checkpoint commits");
    assert_eq!(manifest.sequence, 1);
    assert_eq!(manifest.model_version, fx.service.model_version());

    let (restored, loaded_manifest) = Checkpoint::load(&dir).expect("checkpoint loads");
    assert_eq!(loaded_manifest, manifest);
    assert_eq!(restored.pool.len(), fx.service.pool().len());

    // Serving over the restored state is bit-identical to the live service.
    let restored_estimator = Cnt2Crd::new(restored.model, restored.pool);
    let reference = Cnt2Crd::new((*fx.service.model()).clone(), fx.service.pool().to_pool());
    let mut gen = QueryGenerator::new(&fx.db, GeneratorConfig::paper(172));
    for query in gen.generate_queries(20) {
        use crn_estimators::CardinalityEstimator;
        let a = restored_estimator.estimate(&query);
        let b = reference.estimate(&query);
        assert!(a == b, "restored {a} vs live {b} must be bit-identical");
    }

    // The controller's durable state round-trips exactly — into a service rebuilt from the
    // checkpoint alone, the way a restarted process comes back.
    let online_state = restored.online.expect("controller state captured");
    let restored_fx = Fixture {
        db: fx.db.clone(),
        pool: fx.pool.clone(),
        service: Arc::new(EstimatorService::new(
            restored_estimator.model().clone(),
            ShardedPool::from_pool(restored_estimator.pool(), 4),
            WorkerPool::shared(2),
        )),
    };
    let restored_controller = RefreshController::new(
        Arc::clone(&restored_fx.service),
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        margin_config(0.0),
    );
    restored_controller.restore_state(online_state.clone());
    assert_eq!(restored_controller.checkpoint_state(), online_state);
    assert_eq!(
        restored_controller.stats().feedback_seen,
        controller.stats().feedback_seen
    );

    // Both lineages — the process that never stopped and the one restored from disk — now
    // live through the same further feedback.  The restore is exact only if they stay
    // bit-identical: the same final estimates over the grown pools, and the same durable
    // controller position (the transient drift window is deliberately not checkpointed).
    let further = shifted_workload(&fx.db, &fx.pool, 176, 24);
    feed(&fx, &controller, &further);
    feed(&restored_fx, &restored_controller, &further);
    assert!(fx.service.pool().len() > restored_estimator.pool().len());
    for query in gen.generate_queries(20).iter().chain(&further) {
        let a = restored_fx.service.estimate_one(query);
        let b = fx.service.estimate_one(query);
        assert!(
            a == b,
            "restored lineage {a} vs uninterrupted {b} must stay bit-identical"
        );
    }
    let (live, resumed) = (
        controller.checkpoint_state(),
        restored_controller.checkpoint_state(),
    );
    assert_eq!(resumed.stats.feedback_seen, live.stats.feedback_seen);
    assert_eq!(resumed.stats.probe_routed, live.stats.probe_routed);
    assert_eq!(resumed.route_count, live.route_count);
    assert_eq!(resumed.probe_routed_acc, live.probe_routed_acc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The corruption tripwires: an empty directory reports `Missing`, a flipped payload
/// byte reports `Corrupt` (never deserializes garbage into a live pool), and a
/// recommitted checkpoint bumps the sequence and cleans the stale payload up.
#[test]
fn checkpoint_detects_corruption_and_advances_sequences() {
    let dir = test_dir("corrupt");
    assert!(matches!(
        Checkpoint::load(&dir),
        Err(CheckpointError::Missing)
    ));

    let fx = fixture(180);
    let checkpoint = Checkpoint::capture(&fx.service, None);
    let manifest = checkpoint.write_atomic(&dir).expect("commit 1");
    assert_eq!(manifest.sequence, 1);

    // Flip one payload byte: the checksum must catch it at load time.
    let payload_path = dir.join(&manifest.payload);
    let mut bytes = std::fs::read(&payload_path).expect("payload on disk");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x20;
    std::fs::write(&payload_path, &bytes).expect("corrupt payload");
    match Checkpoint::load(&dir) {
        Err(CheckpointError::Corrupt { expected, actual }) => assert_ne!(expected, actual),
        other => panic!("corrupted payload must fail the checksum, got {other:?}"),
    }

    // A fresh commit supersedes the corrupt one: sequence advances, the stale payload
    // is cleaned up, and loads work again.
    let manifest2 = checkpoint.write_atomic(&dir).expect("commit 2");
    assert_eq!(manifest2.sequence, 2);
    assert_ne!(manifest2.payload, manifest.payload);
    assert!(
        !payload_path.exists(),
        "stale payload cleaned up post-commit"
    );
    let (_, loaded) = Checkpoint::load(&dir).expect("recommitted checkpoint loads");
    assert_eq!(loaded, manifest2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory written in format version 1 (whose models carried their Adam moments inside
/// every parameter) is refused with `FormatVersion`, not resumed from zero moments.
#[test]
fn checkpoint_of_format_version_1_is_refused() {
    let dir = test_dir("v1");
    let fx = fixture(185);
    let mut checkpoint = Checkpoint::capture(&fx.service, None);
    checkpoint.format_version = 1;
    let mut manifest = checkpoint.write_atomic(&dir).expect("commit");
    manifest.format_version = 1;
    let text = serde_json::to_string(&manifest).expect("manifest serializes");
    std::fs::write(dir.join(crn_online::checkpoint::MANIFEST_NAME), text)
        .expect("rewrite manifest");
    match Checkpoint::load(&dir) {
        Err(CheckpointError::FormatVersion(1)) => {}
        other => panic!("a version-1 checkpoint must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The controller's optimizer moments must be shaped like the checkpointed model's
/// weights (or absent, before the first fine-tune): anything else is refused at load with
/// `OptimizerShape`, so the next fine-tune cannot panic on the refresh worker.
#[test]
fn checkpoint_refuses_optimizer_moments_of_another_shape() {
    use crn_nn::{Matrix, Trainable};
    let dir = test_dir("moments");
    let fx = fixture(190);
    let controller = RefreshController::new(
        Arc::clone(&fx.service),
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        margin_config(0.0),
    );
    let fresh = Checkpoint::capture(&fx.service, Some(&controller));
    let zeros = |shapes: &[(usize, usize)]| -> Vec<Matrix> {
        shapes
            .iter()
            .map(|&(rows, cols)| Matrix::zeros(rows, cols))
            .collect()
    };
    let weights = fresh.model.gradient_shapes();
    let mut short = weights.clone();
    short[0].0 -= 1;
    for (m, v, loads) in [
        (Vec::new(), Vec::new(), true),
        (zeros(&weights), zeros(&weights), true),
        (zeros(&short), zeros(&short), false),
        (zeros(&weights), Vec::new(), false),
        (zeros(&weights[1..]), zeros(&weights[1..]), false),
    ] {
        let mut checkpoint = fresh.clone();
        let adam = &mut checkpoint.online.as_mut().expect("controller state").adam;
        (adam.m, adam.v) = (m, v);
        checkpoint.write_atomic(&dir).expect("commit");
        match Checkpoint::load(&dir) {
            Ok(_) if loads => {}
            Err(CheckpointError::OptimizerShape) if !loads => {}
            other => panic!("expected the moments to load: {loads}, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Supervised refresh-worker recovery: a worker whose every cycle panics (injected
/// `refresh-panic:every1`) is restarted by the supervisor up to its budget, then the
/// lane degrades — the thread exits cleanly, the controller is left unpoisoned, and no
/// half-finished refresh ever reached serving.
#[test]
fn supervised_refresh_worker_restarts_then_degrades() {
    let fx = fixture(130);
    let controller = Arc::new(RefreshController::new(
        Arc::clone(&fx.service),
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        margin_config(0.0),
    ));
    // Drift + fresh data: the trigger condition holds permanently, so every restarted
    // incarnation immediately re-enters the panicking cycle.
    feed_drift(&fx, &controller, 131);

    let supervisor = Arc::new(Supervisor::new(
        SupervisorPolicy::default().with_max_restarts(1),
    ));
    let injector = FaultInjector::new(FaultPlan::parse("refresh-panic:every1").expect("plan"));
    let worker = RefreshWorker::spawn_supervised(
        Arc::clone(&controller),
        Duration::from_millis(5),
        Arc::clone(&supervisor),
        Arc::clone(&injector),
    );

    // Budget 1: panic #1 restarts the lane, panic #2 degrades it and the thread exits.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !supervisor.degraded(LANE_REFRESH) {
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor never degraded the refresh lane: {} panics",
            supervisor.panics(LANE_REFRESH)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    worker.stop();

    assert_eq!(supervisor.restarts(LANE_REFRESH), 1, "budget of 1 restart");
    assert!(supervisor.panics(LANE_REFRESH) >= 2);
    assert_eq!(injector.arrivals(crn_serve::FaultSite::RefreshCycle), 2);
    assert_eq!(
        fx.service.model_version(),
        1,
        "no half-finished refresh reached serving"
    );
    // The controller survived the panics unpoisoned: a driver-paced cycle still runs.
    let outcome = controller.refresh_if_needed();
    assert!(
        outcome.is_some(),
        "controller still serviceable after chaos"
    );
}
