//! The state every workload runs against — database, labelled pairs, trained model,
//! queries pool, accuracy probe, the corpus the traffic draws its queries from — and the
//! sequential oracle the correctness checks compare with.
//!
//! The *state* is built from the fixture seed and the *traffic* (orders, arrival times,
//! draws over the corpus) from `--seed`: the benchmark's numbers then move with the code
//! and the traffic, not with which database, which trained model and which queries a seed
//! happened to draw (anchors per FROM clause, the probe's q-error and the cost per query
//! are properties of that draw).

use crn_core::{Cnt2CrdConfig, CrnModel, EstimatorService, QueriesPool, ShardedPool};
use crn_db::imdb::{generate_imdb, ImdbConfig};
use crn_db::Database;
use crn_estimators::PostgresEstimator;
use crn_exec::{label_containment_pairs, ContainmentSample, Executor};
use crn_nn::{q_error, ThreadPoolConfig, TrainConfig, WorkerPool};
use crn_obs::Obs;
use crn_query::ast::Query;
use crn_query::generator::{GeneratorConfig, QueryGenerator};
use std::time::Instant;

/// Seed of the state when `--fixture-seed` is not given.
pub const DEFAULT_FIXTURE_SEED: u64 = 42;
/// Initial queries fed to the pair generator.
const TRAINING_INITIAL_QUERIES: usize = 600;
/// Labelled containment pairs the model trains on.
pub const TRAINING_PAIRS: usize = 4_000;
/// Labelled pairs held out of training (`train_step`'s accuracy check).
pub const HELD_OUT_PAIRS: usize = 512;
/// Hidden size of the CRN model.
const HIDDEN_SIZE: usize = 128;
/// Training epochs (no early stopping, so set-up does the same work every time).
const EPOCHS: usize = 15;
/// `QueriesPool::generate` size and join bound of the base pool.
const BASE_POOL_QUERIES: usize = 300;
const BASE_POOL_MAX_JOINS: usize = 5;
/// Traffic queries per run.
pub const CORPUS_QUERIES: usize = 4_096;
/// Queries of the accuracy probe.
pub const PROBE_QUERIES: usize = 256;
/// Threads and shards of every serving configuration (the oracle aside).
pub const SERVING_THREADS: usize = 2;
pub const SERVING_SHARDS: usize = 2;
/// Cardinalities are clamped to one row before a q-error is taken.
const CARDINALITY_FLOOR: f64 = 1.0;

/// Wall-clock of the set-up stages, ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub db_ms: f64,
    pub label_ms: f64,
    pub train_ms: f64,
    pub pool_ms: f64,
}

/// See the module docs.
pub struct Fixture {
    pub db: Database,
    pub train: Vec<ContainmentSample>,
    pub held_out: Vec<ContainmentSample>,
    pub model: CrnModel,
    pub base_pool: QueriesPool,
    /// The accuracy probe and its executor-true cardinalities (state: fixture seed).
    pub probe: Vec<Query>,
    pub probe_truth: Vec<u64>,
    /// The queries the traffic is drawn from (`--seed` decides order and timing).
    pub corpus: Vec<Query>,
    pub timings: SetupTimings,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// `count` paper-generator queries (initial queries plus perturbed variants, truncated).
fn paper_queries(db: &Database, seed: u64, count: usize) -> Vec<Query> {
    let mut queries = QueryGenerator::new(db, GeneratorConfig::paper(seed)).generate_queries(count);
    queries.truncate(count);
    queries
}

impl Fixture {
    /// Builds the state and the traffic corpus from `fixture_seed`.
    pub fn build(fixture_seed: u64) -> Fixture {
        let start = Instant::now();
        let db = generate_imdb(&ImdbConfig::small(fixture_seed));
        let db_ms = ms_since(start);

        let start = Instant::now();
        let pairs = QueryGenerator::new(&db, GeneratorConfig::paper(fixture_seed))
            .generate_pairs(TRAINING_INITIAL_QUERIES, TRAINING_PAIRS + HELD_OUT_PAIRS);
        let mut train = label_containment_pairs(&db, &pairs, SERVING_THREADS);
        assert!(
            train.len() > TRAINING_PAIRS,
            "the pair generator produced only {} labelled pairs",
            train.len()
        );
        let held_out = train.split_off(TRAINING_PAIRS);
        // Walk a fixture-seeded corpus with stride 16 — spread over the generator's
        // families rather than the variants of its first few initial queries — keeping
        // queries with a non-empty result: on this small synthetic database an empty
        // result is common, and clamping it to one row would make the q-error trivial.
        let executor = Executor::new(&db);
        let corpus = paper_queries(&db, fixture_seed ^ 91, CORPUS_QUERIES);
        let stride = CORPUS_QUERIES / PROBE_QUERIES;
        let (probe, probe_truth): (Vec<Query>, Vec<u64>) = (0..stride)
            .flat_map(|offset| corpus.iter().skip(offset).step_by(stride))
            .map(|query| (query, executor.cardinality(query)))
            .filter(|&(_, truth)| truth > 0)
            .take(PROBE_QUERIES)
            .map(|(query, truth)| (query.clone(), truth))
            .unzip();
        let label_ms = ms_since(start);

        let start = Instant::now();
        let mut model = CrnModel::new(
            &db,
            TrainConfig {
                hidden_size: HIDDEN_SIZE,
                epochs: EPOCHS,
                patience: None,
                seed: fixture_seed,
                parallel: ThreadPoolConfig::deterministic(SERVING_THREADS),
                ..TrainConfig::default()
            },
        );
        model.fit(&train);
        let train_ms = ms_since(start);

        let start = Instant::now();
        let base_pool = QueriesPool::generate(
            &db,
            BASE_POOL_QUERIES,
            BASE_POOL_MAX_JOINS,
            fixture_seed.wrapping_add(500),
        );
        let pool_ms = ms_since(start);

        assert_eq!(
            corpus.len(),
            CORPUS_QUERIES,
            "the generator fills the corpus"
        );
        assert_eq!(probe.len(), PROBE_QUERIES, "the generator fills the probe");
        Fixture {
            db,
            train,
            held_out,
            model,
            base_pool,
            probe,
            probe_truth,
            corpus,
            timings: SetupTimings {
                db_ms,
                label_ms,
                train_ms,
                pool_ms,
            },
        }
    }

    /// The in-process service a workload serves through: `SERVING_SHARDS` shards over
    /// `pool`, the given worker pool, the default technique configuration and the
    /// PostgreSQL-style fallback for queries no anchor matches (what `repro serve` runs).
    pub fn service(
        &self,
        pool: &QueriesPool,
        shards: usize,
        workers: WorkerPool,
        obs: &Obs,
    ) -> EstimatorService<CrnModel> {
        let service = EstimatorService::new(
            self.model.clone(),
            ShardedPool::from_pool(pool, shards),
            workers,
        )
        .with_config(Cnt2CrdConfig::default())
        .with_fallback(Box::new(PostgresEstimator::analyze(&self.db)));
        if obs.enabled() {
            service.with_obs(obs)
        } else {
            service
        }
    }

    /// The sequential oracle's estimates for `queries` over `pool`: one shard, one
    /// thread, one query per `serve` call.
    pub fn oracle_estimates(&self, pool: &QueriesPool, queries: &[Query]) -> Vec<f64> {
        let oracle = self.service(pool, 1, WorkerPool::new(1), &Obs::disabled());
        queries
            .iter()
            .map(|query| oracle.serve(std::slice::from_ref(query)).estimates[0])
            .collect()
    }

    /// Median q-error of `estimates` for the probe against executor truth.
    pub fn probe_median_q_error(&self, estimates: &[f64]) -> f64 {
        let mut errors: Vec<f64> = estimates
            .iter()
            .zip(&self.probe_truth)
            .map(|(&estimate, &truth)| q_error(estimate, truth as f64, CARDINALITY_FLOOR))
            .collect();
        crate::stats::median(&mut errors)
    }
}

/// Compares served estimates with the oracle's bit for bit; the error names the first
/// slot that differs.
pub fn check_bit_parity(served: &[f64], oracle: &[f64]) -> Result<(), String> {
    if served.len() != oracle.len() {
        return Err(format!(
            "served {} estimates for {} oracle estimates",
            served.len(),
            oracle.len()
        ));
    }
    match served
        .iter()
        .zip(oracle)
        .position(|(s, o)| s.to_bits() != o.to_bits())
    {
        None => Ok(()),
        Some(slot) => Err(format!(
            "parity violation at probe query {slot}: served {:e} ({:#018x}) vs oracle {:e} ({:#018x})",
            served[slot],
            served[slot].to_bits(),
            oracle[slot],
            oracle[slot].to_bits()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_estimate_bit_breaks_parity() {
        let oracle = vec![12.5, 1.0, 3e9, 0.0];
        assert_eq!(check_bit_parity(&oracle, &oracle), Ok(()));
        let mut served = oracle.clone();
        served[2] = f64::from_bits(served[2].to_bits() ^ 1);
        let error = check_bit_parity(&served, &oracle).expect_err("a flipped bit is caught");
        assert!(error.contains("probe query 2"), "{error}");
        assert!(check_bit_parity(&oracle[..3], &oracle).is_err());
        // -0.0 == 0.0 numerically, but it is not the same answer bit for bit.
        served = oracle.clone();
        served[3] = -0.0;
        assert!(check_bit_parity(&served, &oracle).is_err());
    }
}
