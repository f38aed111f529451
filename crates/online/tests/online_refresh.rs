//! Integration tests of the continual-learning refresh loop: healthy traffic never
//! refreshes, data drift triggers a gated refresh and hot swap through the full
//! runtime → maintenance lane → controller channel, harmful candidates are discarded by
//! the validation gate, and the background worker drives cycles on its own.

use crn_core::{CrnModel, EstimatorService, QueriesPool, ShardedPool};
use crn_db::imdb::{generate_imdb, ImdbConfig};
use crn_db::Database;
use crn_exec::{label_containment_pairs, ContainmentSample, Executor};
use crn_nn::parallel::{ThreadPoolConfig, WorkerPool};
use crn_nn::TrainConfig;
use crn_online::{
    probe_median, ExecLabeler, FeedbackLabeler, FeedbackRecord, OnlineConfig, RefreshController,
    RefreshDecision, RefreshWorker,
};
use crn_query::generator::{GeneratorConfig, QueryGenerator, ScaleGenerator, ScaleGeneratorConfig};
use crn_query::Query;
use crn_serve::{FeedbackObserver, RuntimeConfig, ServeRuntime};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic training config: canonical shards + canonical reduction order, so the
/// tests' numerics are bit-identical whatever `THREADS` the CI matrix sets.
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

fn workload(db: &Database, seed: u64, count: usize) -> Vec<Query> {
    let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
    let mut queries = gen.generate_queries(count);
    queries.truncate(count);
    queries
}

/// The shared fixture: a service whose model trained on the paper-generator workload
/// (perturbation-cluster queries with range-leaning predicates, the distribution both
/// the training pairs and the pool come from).
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

/// The *shifted* traffic: MSCN-style scale-generator queries — equality-biased
/// predicates with literals drawn from actual rows, no perturbation clusters — a query
/// distribution the fixture model never trained on (the covariate shift the online
/// refresh is for).  Filtered to pool-covered FROM clauses: only pool-served queries
/// exercise the model's containment rates.
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

/// The gates use the serving path: the shared probe median over a pool under model X is,
/// bit-for-bit, the median q-error of what `EstimatorService::serve` answers under X over
/// that pool — for the live model and for a fine-tuned candidate, at any shard layout and
/// in the top-K plan.
#[test]
fn gates_measure_the_serving_path_bit_for_bit() {
    let fx = fixture(160);
    let truth = Executor::new(&fx.db);
    let queries = workload(&fx.db, 161, 24);
    let truths: Vec<u64> = queries.iter().map(|q| truth.cardinality(q)).collect();

    let live = fx.service.model();
    let mut candidate = (*live).clone();
    let mut gen = QueryGenerator::new(&fx.db, GeneratorConfig::paper(162));
    let corpus = label_containment_pairs(&fx.db, &gen.generate_pairs(20, 60), 4);
    candidate.fit_incremental(&corpus, &mut crn_nn::Adam::new(0.01), 2);
    assert_ne!(*live, candidate, "fine-tuning moved the weights");

    for (shards, top_k) in [(1usize, 0usize), (4, 0), (4, 3)] {
        let config = crn_core::Cnt2CrdConfig {
            top_k,
            ..crn_core::Cnt2CrdConfig::default()
        };
        let sharded = ShardedPool::from_pool(&fx.pool, shards);
        let snapshot = sharded.snapshot();
        for model in [&*live, &candidate] {
            let service =
                EstimatorService::new(model.clone(), sharded.clone(), WorkerPool::shared(2))
                    .with_config(config);
            let errors: Vec<f64> = service
                .serve(&queries)
                .estimates
                .iter()
                .zip(&truths)
                .map(|(&estimate, &truth)| {
                    FeedbackRecord {
                        query: queries[0].clone(),
                        true_cardinality: truth,
                        estimate,
                    }
                    .q_error()
                })
                .collect();
            let served_median = crn_core::FinalFunction::Median
                .apply(&errors)
                .expect("non-empty probe set");
            let gate = probe_median(&config, model, snapshot.shards(), &queries, &truths);
            assert_eq!(
                gate.to_bits(),
                served_median.to_bits(),
                "shards={shards} top_k={top_k}: gate {gate} vs served {served_median}"
            );
        }
    }
}

/// Healthy traffic (the live estimates themselves fed back as "truth") keeps the drift
/// window quiet: no refresh ever triggers, the model version never moves.
#[test]
fn healthy_feedback_never_triggers_a_refresh() {
    let fx = fixture(120);
    let controller = RefreshController::new(
        Arc::clone(&fx.service),
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        OnlineConfig {
            drift_threshold: 2.0,
            min_observations: 8,
            min_fresh: 8,
            ..OnlineConfig::default()
        },
    );
    for query in workload(&fx.db, 121, 40) {
        let estimate = fx.service.estimate_one(&query);
        // Feedback where the observation matches the estimate: q-error 1.0.
        controller.record(FeedbackRecord {
            query,
            true_cardinality: estimate.max(1.0).round() as u64,
            estimate,
        });
    }
    assert!(
        controller.refresh_if_needed().is_none(),
        "no drift, no cycle"
    );
    let stats = controller.stats();
    assert_eq!(stats.refreshes_attempted, 0);
    assert_eq!(stats.live_model_version, 1);
    assert!(stats.feedback_seen >= 40);
    assert!(stats.probe_routed > 0, "probe routing is always on");
    assert!(
        stats.window_median < 1.5,
        "healthy traffic keeps the window median near 1: {}",
        stats.window_median
    );
    assert_eq!(fx.service.model_version(), 1);
}

/// The full loop end to end: serving runtime → maintenance lane (pool upserts + the
/// observer channel) → drift detection → gated fine-tune → hot swap.  After the swap,
/// the served model version moved and the gate invariant held (candidate strictly
/// better on the held-out probe set).
#[test]
fn workload_shift_triggers_a_gated_refresh_through_the_runtime() {
    let fx = fixture(130);
    let controller = Arc::new(RefreshController::new(
        Arc::clone(&fx.service),
        // Labels by execution on the live database — the same ground-truth source the
        // feedback itself came from.
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        OnlineConfig {
            drift_window: 32,
            drift_threshold: 1.5,
            min_observations: 12,
            min_fresh: 12,
            probe_fraction: 0.25,
            min_probe: 3,
            fine_tune_epochs: 6,
            ..OnlineConfig::default()
        },
    ));
    let runtime = ServeRuntime::new(
        Arc::clone(&fx.service),
        RuntimeConfig::default().with_window_us(100),
    );
    runtime.set_feedback_observer(Arc::clone(&controller) as Arc<dyn crn_serve::FeedbackObserver>);

    // The traffic shifts to a distribution the model never trained on.
    let truth = Executor::new(&fx.db);
    // Only the head of the stream is served and fed back; the tail is held out of all
    // feedback for the verdict on the swap.
    let stream = shifted_workload(&fx.db, &fx.pool, 131, 440);
    let (queries, tail) = stream.split_at(40);
    let frozen = fx.service.model();
    for query in queries {
        let estimate = runtime
            .submit_retrying(0, query)
            .expect("runtime alive")
            .wait()
            .expect("served")
            .estimate;
        runtime
            .record_observed(query.clone(), truth.cardinality(query), estimate)
            .expect("maintenance admits");
    }
    runtime.flush();
    let pre_stats = controller.stats();
    assert!(pre_stats.feedback_seen >= queries.len() as u64);
    assert!(
        pre_stats.window_median > 1.5,
        "the shifted workload must inflate the window median: {}",
        pre_stats.window_median
    );

    let outcome = controller
        .refresh_if_needed()
        .expect("drift + fresh data must trigger a cycle");
    assert!(outcome.gate_respected(), "the gate invariant is absolute");
    assert!(outcome.labeled_pairs > 0);
    assert!(outcome.probe_records >= 3);
    assert_eq!(
        outcome.decision,
        RefreshDecision::Applied,
        "fine-tuning on the shifted workload's labels must beat the stale model on the \
         probe set (live {} vs candidate {})",
        outcome.live_probe_median,
        outcome.candidate_probe_median
    );
    assert!(outcome.candidate_probe_median < outcome.live_probe_median);
    assert_eq!(fx.service.model_version(), outcome.model_version);
    assert!(outcome.model_version > 1, "the swap bumped the version");
    let stats = controller.stats();
    assert_eq!(stats.refreshes_applied, 1);
    assert_eq!(stats.refreshes_rejected, 0);

    // Held out: never fed back (or the pool would answer it from memory under either
    // model), and with a non-trivial result — equality-biased predicates often select ~0
    // rows, where the q-error floor makes every estimator look perfect.
    let (held_out, held_out_truths): (Vec<Query>, Vec<u64>) = tail
        .iter()
        .filter(|query| !queries.contains(query))
        .map(|query| (query.clone(), truth.cardinality(query)))
        .filter(|(_, cardinality)| *cardinality >= 4)
        .unzip();
    assert!(held_out.len() >= 50, "fixture needs a held-out slice");
    // The swap pays off beyond the probe set it was gated on: over the same final
    // (feedback-refreshed) pool, the swapped model's median q-error on the held-out slice is
    // strictly below the frozen model's — the model refresh's own contribution, with what
    // pool maintenance alone bought taken out.
    let final_pool = fx.service.pool().snapshot();
    let held_out_median = |model: &CrnModel| {
        probe_median(
            fx.service.config(),
            model,
            final_pool.shards(),
            &held_out,
            &held_out_truths,
        )
    };
    let (frozen_median, swapped_median) = (
        held_out_median(&frozen),
        held_out_median(&fx.service.model()),
    );
    assert!(
        swapped_median < frozen_median,
        "swapped model {swapped_median} vs frozen {frozen_median} on the held-out slice"
    );

    // Serving continues seamlessly on the new snapshot (and the next cycle needs fresh
    // drift evidence — the window was reset).
    for query in queries.iter().take(4) {
        let outcome = runtime
            .submit_retrying(1, query)
            .expect("runtime alive")
            .wait()
            .expect("served");
        assert!(outcome.estimate >= 0.0);
    }
    assert!(controller.refresh_if_needed().is_none());
    runtime.shutdown();
}

/// The validation gate: a sabotaged fine-tune (labels inverted, so the candidate gets
/// *worse*) is discarded and counted — the live model and its estimates stay exactly as
/// they were.  No silent regressions reach serving.
#[test]
fn gate_discards_harmful_candidates() {
    /// A labeler that inverts every true containment rate — actively harmful training.
    struct SabotageLabeler(ExecLabeler);
    impl FeedbackLabeler for SabotageLabeler {
        fn label(
            &self,
            fresh: &[FeedbackRecord],
            anchors: &QueriesPool,
            budget: usize,
        ) -> Vec<ContainmentSample> {
            self.0
                .label(fresh, anchors, budget)
                .into_iter()
                .map(|mut sample| {
                    sample.rate = 1.0 - sample.rate;
                    sample
                })
                .collect()
        }
    }

    let fx = fixture(140);
    let controller = RefreshController::new(
        Arc::clone(&fx.service),
        Box::new(SabotageLabeler(ExecLabeler::new(
            Arc::new(fx.db.clone()),
            2,
        ))),
        OnlineConfig {
            drift_threshold: 1.2,
            min_observations: 8,
            min_fresh: 8,
            min_probe: 3,
            // Full-rate, long fine-tune: the inverted labels must genuinely damage the
            // candidate so the test exercises the gate's reject path, not noise.
            fine_tune_epochs: 12,
            learning_rate_scale: 1.0,
            ..OnlineConfig::default()
        },
    );
    let truth = Executor::new(&fx.db);
    let queries = shifted_workload(&fx.db, &fx.pool, 141, 32);
    assert!(queries.len() >= 16, "fixture needs pool-covered queries");
    for query in &queries {
        // What the maintenance lane would do: the pool learns the observed truths.
        let estimate = fx.service.estimate_one(query);
        let cardinality = truth.cardinality(query);
        fx.service.pool().upsert(query.clone(), cardinality);
        controller.observe(query, cardinality, estimate);
    }
    let before: Vec<f64> = queries.iter().map(|q| fx.service.estimate_one(q)).collect();
    let outcome = controller.refresh_if_needed().expect("drift must trigger");
    assert_eq!(
        outcome.decision,
        RefreshDecision::RejectedByGate,
        "inverted labels must lose to the live model (live {} vs candidate {})",
        outcome.live_probe_median,
        outcome.candidate_probe_median
    );
    assert!(outcome.gate_respected());
    assert_eq!(fx.service.model_version(), 1, "no swap happened");
    let after: Vec<f64> = queries.iter().map(|q| fx.service.estimate_one(q)).collect();
    assert_eq!(
        before, after,
        "serving is bit-identical to before the attempt"
    );
    let stats = controller.stats();
    assert_eq!(stats.refreshes_rejected, 1);
    assert_eq!(stats.refreshes_applied, 0);
}

/// The background trainer: the [`RefreshWorker`] thread picks up the trigger on its own
/// and hot-swaps without any driver pacing.
#[test]
fn refresh_worker_applies_refreshes_in_the_background() {
    let fx = fixture(150);
    let controller = Arc::new(RefreshController::new(
        Arc::clone(&fx.service),
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        OnlineConfig {
            drift_threshold: 1.5,
            min_observations: 12,
            min_fresh: 12,
            min_probe: 3,
            fine_tune_epochs: 6,
            ..OnlineConfig::default()
        },
    ));
    let worker = RefreshWorker::spawn(Arc::clone(&controller), Duration::from_millis(20));
    let truth = Executor::new(&fx.db);
    // The worker claims cycles on its own schedule: it may grab a thin early cycle
    // (gate-rejected) or a well-fed one (applied) depending on interleaving.  What this
    // test pins is the *autonomy* and the gate bookkeeping — cycles run with no driver
    // pacing, and whatever they decide is accounted coherently.  (The driver-paced test
    // above pins the Applied outcome deterministically.)  Keep streaming fresh shifted
    // traffic until the worker has completed cycles.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut seed = 151u64;
    loop {
        let stats = controller.stats();
        if stats.refreshes_applied >= 1 || stats.refreshes_attempted >= 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker never completed a cycle: {stats:?}"
        );
        for query in shifted_workload(&fx.db, &fx.pool, seed, 40) {
            let estimate = fx.service.estimate_one(&query);
            let cardinality = truth.cardinality(&query);
            // What the maintenance lane would do: the pool learns the observed truths.
            fx.service.pool().upsert(query.clone(), cardinality);
            controller.record(FeedbackRecord {
                true_cardinality: cardinality,
                estimate,
                query,
            });
        }
        seed += 1;
        std::thread::sleep(Duration::from_millis(30));
    }
    worker.stop();
    let stats = controller.stats();
    assert!(
        stats.refreshes_attempted >= 1,
        "the worker ran cycles: {stats:?}"
    );
    assert_eq!(
        stats.refreshes_applied + stats.refreshes_rejected + stats.refreshes_without_pairs,
        stats.refreshes_attempted,
        "every cycle is accounted: {stats:?}"
    );
    assert_eq!(stats.live_model_version, fx.service.model_version());
    if stats.refreshes_applied > 0 {
        assert!(fx.service.model_version() > 1, "applied cycles hot-swapped");
    } else {
        assert_eq!(fx.service.model_version(), 1, "rejected cycles never swap");
    }
}

/// Replay seeding (`OnlineConfig::seed_replay` + `seed_replay_from`): with the reservoir
/// seeded from the original training corpus at startup, the very FIRST fine-tune cycle
/// already mixes seeded history into its corpus — unseeded controllers provably replay
/// nothing on their first cycle (the reservoir banks labels only *after* sampling).
#[test]
fn first_fine_tune_mixes_replay_seeded_from_the_training_corpus() {
    let config = OnlineConfig {
        drift_window: 32,
        drift_threshold: 1.5,
        min_observations: 12,
        min_fresh: 12,
        probe_fraction: 0.25,
        min_probe: 3,
        fine_tune_epochs: 2,
        replay_fraction: 0.5,
        seed_replay: 64,
        ..OnlineConfig::default()
    };

    // The original training corpus — exactly what `trained_crn` fits on.
    let fx = fixture(150);
    let corpus = {
        let mut gen = QueryGenerator::new(&fx.db, GeneratorConfig::paper(150));
        let pairs = gen.generate_pairs(40, 160);
        label_containment_pairs(&fx.db, &pairs, 4)
    };
    assert!(corpus.len() > 8, "fixture needs a real corpus");

    let drive_first_cycle = |controller: &RefreshController| {
        let truth = Executor::new(&fx.db);
        for query in shifted_workload(&fx.db, &fx.pool, 151, 40) {
            let estimate = fx.service.estimate_one(&query);
            controller.record(FeedbackRecord {
                query: query.clone(),
                true_cardinality: truth.cardinality(&query),
                estimate,
            });
        }
        controller
            .refresh_if_needed()
            .expect("drift + fresh data must trigger a cycle")
    };

    // Unseeded control: the first cycle has no history to draw.
    let unseeded = RefreshController::new(
        Arc::clone(&fx.service),
        Box::new(ExecLabeler::new(Arc::new(fx.db.clone()), 2)),
        OnlineConfig {
            seed_replay: 0,
            ..config.clone()
        },
    );
    let outcome = drive_first_cycle(&unseeded);
    assert!(outcome.labeled_pairs > 0);
    assert_eq!(
        outcome.replayed, 0,
        "an unseeded reservoir is empty at the first cycle"
    );

    // Seeded: same traffic, same knobs — but the reservoir starts with original-corpus
    // history, so the first fine-tune's mix already replays.
    let fx2 = fixture(150);
    let seeded = RefreshController::new(
        Arc::clone(&fx2.service),
        Box::new(ExecLabeler::new(Arc::new(fx2.db.clone()), 2)),
        config.clone(),
    );
    let pushed = seeded.seed_replay_from(&corpus);
    assert_eq!(pushed, corpus.len().min(config.seed_replay));
    let outcome = drive_first_cycle(&seeded);
    assert!(outcome.labeled_pairs > 0);
    assert!(
        outcome.replayed > 0,
        "the seeded reservoir must contribute history to the first fine-tune \
         (labeled {} pairs, replayed {})",
        outcome.labeled_pairs,
        outcome.replayed
    );
}
