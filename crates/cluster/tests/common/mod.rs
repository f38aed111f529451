//! Shared loopback-cluster fixture: a tiny IMDB-shaped database, a trained CRN model,
//! a queries pool, and helpers to spawn an in-process worker fleet on ephemeral
//! loopback listeners.
//!
//! Each test binary compiles its own copy, so not every helper is used everywhere.
#![allow(dead_code)]

use crn_cluster::worker::spawn_worker;
use crn_core::{CrnModel, QueriesPool};
use crn_db::imdb::{generate_imdb, ImdbConfig};
use crn_db::Database;
use crn_exec::label_containment_pairs;
use crn_nn::parallel::ThreadPoolConfig;
use crn_nn::TrainConfig;
use crn_query::generator::{GeneratorConfig, QueryGenerator};
use crn_query::Query;
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;

/// Deterministic training config: canonical shards + canonical reduction order, so
/// parity assertions are bit-identical whatever `THREADS` the CI matrix sets.
pub fn train_config() -> TrainConfig {
    let mut config = TrainConfig::fast_test();
    config.parallel = ThreadPoolConfig::deterministic(config.parallel.threads.max(1));
    config
}

pub fn trained_crn(db: &Database, seed: u64) -> CrnModel {
    let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
    let pairs = gen.generate_pairs(40, 160);
    let samples = label_containment_pairs(db, &pairs, 4);
    let mut crn = CrnModel::new(db, train_config());
    crn.fit(&samples);
    crn
}

/// An *untrained* (random-init) model.
pub fn untrained_crn(db: &Database) -> CrnModel {
    CrnModel::new(db, train_config())
}

pub fn workload(db: &Database, seed: u64, count: usize) -> Vec<Query> {
    let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
    let mut queries = gen.generate_queries(count);
    queries.truncate(count);
    queries
}

pub struct Fixture {
    pub db: Database,
    pub pool: QueriesPool,
    pub model: CrnModel,
}

pub fn fixture(seed: u64) -> Fixture {
    let db = generate_imdb(&ImdbConfig::tiny(seed));
    let pool = QueriesPool::generate(&db, 60, 2, seed);
    let model = trained_crn(&db, seed);
    Fixture { db, pool, model }
}

/// Spawns `workers` in-process worker threads, each on its own ephemeral loopback
/// listener.  Returns their addresses (fleet order) and join handles.
pub fn spawn_fleet(workers: usize, threads: usize) -> (Vec<SocketAddr>, Vec<JoinHandle<()>>) {
    let mut addrs = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        addrs.push(listener.local_addr().expect("listener addr"));
        handles.push(spawn_worker(listener, threads));
    }
    (addrs, handles)
}

/// Bitwise equality over estimate slices with a context label.
pub fn assert_bit_identical(actual: &[f64], expected: &[f64], context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}: length mismatch");
    for (index, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(
            a.to_bits(),
            e.to_bits(),
            "{context}: estimate {index} diverged ({a} vs {e})"
        );
    }
}
