//! Integration tests of the versioned cross-window estimate cache: hits must be
//! **bit-identical** to recomputing the query right now — including across pool
//! maintenance churn and a live model hot-swap, the two events that change what
//! "recomputing right now" would return.  Each query's entry is tagged with its
//! `(FROM-bucket version, model version)`, so a write invalidates exactly its own FROM
//! clause and a hot-swap everything; these tests pin that contract end to end through
//! the runtime, alongside the hit/miss accounting identity.

use crn_core::{from_key, CrnModel, EstimatorService, QueriesPool, ShardedPool};
use crn_exec::label_containment_pairs;
use crn_nn::parallel::WorkerPool;
use crn_nn::TrainConfig;
use crn_query::generator::{GeneratorConfig, QueryGenerator};
use crn_query::Query;
use crn_serve::{EstimateSource, RuntimeConfig, ServeRuntime};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

fn trained_crn(db: &crn_db::Database, seed: u64) -> CrnModel {
    let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
    let pairs = gen.generate_pairs(30, 120);
    let samples = label_containment_pairs(db, &pairs, 4);
    let mut crn = CrnModel::new(db, TrainConfig::fast_test());
    crn.fit(&samples);
    crn
}

/// Generates `count` queries with pairwise-distinct canonical hashes — the per-round
/// source assertions rely on no query warming the cache for a later twin in the same
/// round.
fn workload(db: &crn_db::Database, seed: u64, count: usize) -> Vec<Query> {
    let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
    let mut seen = std::collections::HashSet::new();
    let mut queries: Vec<Query> = gen
        .generate_queries(count * 4)
        .into_iter()
        .filter(|query| seen.insert(crn_core::query_hash(query)))
        .collect();
    assert!(
        queries.len() >= count,
        "generator too repetitive for {count} distinct queries"
    );
    queries.truncate(count);
    queries
}

use crn_db::imdb::{generate_imdb, ImdbConfig};

/// Serves the workload through the runtime one closed-loop round (window 0: every
/// request is its own batch), asserting each outcome's provenance against `expect`
/// (one per query), and returns the estimates in workload order.
fn serve_round<M: crn_estimators::ContainmentEstimator + Send + Sync + 'static>(
    runtime: &ServeRuntime<EstimatorService<M>>,
    queries: &[Query],
    expect: &[EstimateSource],
) -> Vec<f64> {
    queries
        .iter()
        .zip(expect)
        .enumerate()
        .map(|(index, (query, &expect))| {
            let outcome = runtime
                .submit_retrying(0, query)
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(
                outcome.source, expect,
                "query {index}: expected {expect:?}, got {:?}",
                outcome.source
            );
            outcome.estimate
        })
        .collect()
}

/// The same provenance for every query of the workload.
fn every(source: EstimateSource, queries: &[Query]) -> Vec<EstimateSource> {
    vec![source; queries.len()]
}

fn count(sources: &[EstimateSource], source: EstimateSource) -> u64 {
    sources.iter().filter(|&&s| s == source).count() as u64
}

fn bit_equal(actual: &[f64], expected: &[f64], label: &str) {
    for (index, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert!(a == e, "{label}: query {index} diverged: {a} vs {e}");
    }
}

/// The acceptance criterion: repeat serves hit the cache with bit-identical estimates;
/// a burst of maintenance upserts forces recomputation of exactly the queries whose FROM
/// clauses it touched, and a model hot-swap of every query; the results then re-cache
/// bit-identically.
#[test]
fn cache_hits_stay_bit_identical_across_churn_and_a_hot_swap() {
    use EstimateSource::{Cached, Computed};
    let db = generate_imdb(&ImdbConfig::tiny(90));
    let pool = QueriesPool::generate(&db, 50, 2, 90);
    let crn = trained_crn(&db, 90);
    let queries = workload(&db, 91, 12);

    let service = Arc::new(EstimatorService::new(
        crn,
        ShardedPool::from_pool(&pool, 4),
        WorkerPool::shared(2),
    ));
    let runtime = ServeRuntime::new(
        Arc::clone(&service),
        RuntimeConfig::default()
            .with_window_us(0)
            .with_cache_entries(128),
    );

    // Round 1 computes and fills; the estimates must match the synchronous reference.
    let round1 = serve_round(&runtime, &queries, &every(Computed, &queries));
    bit_equal(
        &round1,
        &service.serve(&queries).estimates,
        "round 1 vs sync",
    );
    // Round 2 replays every query from the cache, bit-identically.
    let round2 = serve_round(&runtime, &queries, &every(Cached, &queries));
    bit_equal(&round2, &round1, "cached round vs computed round");

    // Maintenance churn: upsert fresh queries through the feedback lane.  Each apply
    // restamps its own FROM clause's bucket and nothing else.  The first request after
    // the churn misses outright — no response has shown the runtime the new snapshot
    // yet — and after it exactly the queries of a touched FROM clause recompute.
    let updates = workload(&db, 92, 6);
    let touched: HashSet<String> = updates.iter().map(from_key).collect();
    for (offset, update) in updates.into_iter().enumerate() {
        runtime
            .record_feedback(update, 50 + offset as u64)
            .expect("maintenance lane open");
    }
    runtime.flush();
    let expect3: Vec<EstimateSource> = queries
        .iter()
        .enumerate()
        .map(|(index, query)| {
            if index == 0 || touched.contains(&from_key(query)) {
                Computed
            } else {
                Cached
            }
        })
        .collect();
    let recomputed = count(&expect3, Computed);
    assert!(
        1 < recomputed && recomputed < queries.len() as u64,
        "the churn must touch some served FROM clauses and spare others: {recomputed}"
    );
    let round3 = serve_round(&runtime, &queries, &expect3);
    bit_equal(
        &round3,
        &service.serve(&queries).estimates,
        "post-churn round vs post-churn sync",
    );
    let round4 = serve_round(&runtime, &queries, &every(Cached, &queries));
    bit_equal(&round4, &round3, "post-churn cached round");

    // Model hot-swap: a differently-trained model takes over serving atomically; the
    // model version bump invalidates every cached entry, whatever its FROM clause.
    let replacement = trained_crn(&db, 93);
    let swapped_version = service.swap_model(replacement);
    assert!(swapped_version > 1, "hot-swap advances the model version");
    let round5 = serve_round(&runtime, &queries, &every(Computed, &queries));
    bit_equal(
        &round5,
        &service.serve(&queries).estimates,
        "post-swap round vs post-swap sync",
    );
    let round6 = serve_round(&runtime, &queries, &every(Cached, &queries));
    bit_equal(&round6, &round5, "post-swap cached round");

    // Accounting over 6 closed-loop rounds of 12: rounds 1 and 5 and the touched part of
    // round 3 miss, the rest hit, and the identity `serve.queries + coalesced +
    // cache_hits == completed` balances exactly.  Every probe after the first request
    // of rounds 3 and 5 found a recomputed query's entry stale and dropped it.
    let misses = 12 + recomputed + 12;
    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 72);
    assert_eq!(stats.cache_misses, misses);
    assert_eq!(stats.cache_hits, 72 - misses);
    assert_eq!(stats.cache_insertions, misses);
    assert_eq!(stats.cache_purged, (recomputed - 1) + 11);
    assert_eq!(
        stats.serve.queries as u64 + stats.coalesced + stats.cache_hits,
        stats.completed
    );
    assert!(stats.fully_resolved(), "{stats:?}");
}

/// A feedback write invalidates only the cached estimates of its own FROM clause (§5.3:
/// an estimate reads only same-FROM anchors).  After one record for clause A — and one
/// served batch that shows the runtime the new snapshot — clause A's queries recompute
/// while every other clause's keep hitting, and every answer is bit-identical to a fresh
/// synchronous serve.
#[test]
fn a_feedback_write_invalidates_only_its_own_from_clause() {
    use EstimateSource::{Cached, Computed};
    let db = generate_imdb(&ImdbConfig::tiny(98));
    let pool = QueriesPool::generate(&db, 50, 2, 98);
    let crn = trained_crn(&db, 98);
    let queries = workload(&db, 99, 16);
    // Clause A is the workload's most common FROM clause.
    let mut by_clause: BTreeMap<String, usize> = BTreeMap::new();
    for query in &queries {
        *by_clause.entry(from_key(query)).or_default() += 1;
    }
    assert!(
        by_clause.len() >= 2,
        "the workload spans several FROM clauses"
    );
    let (clause_a, _) = by_clause
        .iter()
        .max_by_key(|(_, &count)| count)
        .expect("non-empty");
    let clause_a = clause_a.clone();
    // The feedback record: a clause-A query the round itself never serves.
    let update = QueryGenerator::new(&db, GeneratorConfig::paper(100))
        .generate_queries(64)
        .into_iter()
        .find(|query| from_key(query) == clause_a && !queries.contains(query))
        .expect("the generator covers clause A");

    let service = Arc::new(EstimatorService::new(
        crn,
        ShardedPool::from_pool(&pool, 4),
        WorkerPool::shared(2),
    ));
    let runtime = ServeRuntime::new(
        Arc::clone(&service),
        RuntimeConfig::default()
            .with_window_us(0)
            .with_cache_entries(128),
    );
    serve_round(&runtime, &queries, &every(Computed, &queries));
    serve_round(&runtime, &queries, &every(Cached, &queries));

    runtime
        .record_feedback(update.clone(), 4_242)
        .expect("maintenance lane open");
    runtime.flush();
    // One batch after the write: it misses outright and shows the runtime the new snapshot.
    serve_round(&runtime, std::slice::from_ref(&update), &[Computed]);

    let expect: Vec<EstimateSource> = queries
        .iter()
        .map(|query| {
            if from_key(query) == clause_a {
                Computed
            } else {
                Cached
            }
        })
        .collect();
    let round = serve_round(&runtime, &queries, &expect);
    bit_equal(
        &round,
        &service.serve(&queries).estimates,
        "post-write round vs post-write sync",
    );
    let stats = runtime.shutdown();
    assert_eq!(stats.cache_purged, count(&expect, Computed));
    assert!(stats.fully_resolved(), "{stats:?}");
}

/// `cache_entries: 0` (the default) must restore the pre-cache runtime exactly: every
/// outcome is freshly computed, no cache counter ever moves, and the pre-cache
/// accounting identity holds without the cache term.
#[test]
fn a_disabled_cache_never_intercepts_or_counts() {
    let db = generate_imdb(&ImdbConfig::tiny(94));
    let pool = QueriesPool::generate(&db, 40, 2, 94);
    let crn = trained_crn(&db, 94);
    let queries = workload(&db, 95, 8);

    let service = Arc::new(EstimatorService::new(
        crn,
        ShardedPool::from_pool(&pool, 4),
        WorkerPool::shared(1),
    ));
    let runtime = ServeRuntime::new(
        Arc::clone(&service),
        RuntimeConfig::default().with_window_us(0),
    );

    let round1 = serve_round(
        &runtime,
        &queries,
        &every(EstimateSource::Computed, &queries),
    );
    // The repeat round recomputes too — identical answers, but via the full path.
    let round2 = serve_round(
        &runtime,
        &queries,
        &every(EstimateSource::Computed, &queries),
    );
    bit_equal(&round2, &round1, "repeat round without a cache");

    let stats = runtime.shutdown();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 0);
    assert_eq!(stats.cache_insertions, 0);
    assert_eq!(stats.cache_evictions, 0);
    assert_eq!(stats.cache_hit_rate(), 0.0);
    assert_eq!(
        stats.serve.queries as u64 + stats.coalesced,
        stats.completed
    );
    assert!(stats.fully_resolved(), "{stats:?}");
}

/// A capacity-starved cache evicts instead of growing: serving more distinct queries
/// than the cache holds keeps it bounded and surfaces evictions in the stats.
#[test]
fn a_tiny_cache_stays_bounded_under_a_wide_workload() {
    let db = generate_imdb(&ImdbConfig::tiny(96));
    let pool = QueriesPool::generate(&db, 40, 2, 96);
    let crn = trained_crn(&db, 96);
    let queries = workload(&db, 97, 10);

    let service = Arc::new(EstimatorService::new(
        crn,
        ShardedPool::from_pool(&pool, 4),
        WorkerPool::shared(1),
    ));
    let runtime = ServeRuntime::new(
        Arc::clone(&service),
        RuntimeConfig::default()
            .with_window_us(0)
            .with_cache_entries(2),
    );

    // Ten distinct queries through a 2-entry cache: everything computes, the overflow
    // evicts, and the cache never reports a hit it could not have stored.
    serve_round(
        &runtime,
        &queries,
        &every(EstimateSource::Computed, &queries),
    );
    let stats = runtime.shutdown();
    assert_eq!(stats.cache_misses, 10);
    assert_eq!(stats.cache_insertions, 10);
    assert_eq!(stats.cache_evictions, 8);
    assert_eq!(stats.cache_hits, 0);
    assert!(stats.fully_resolved(), "{stats:?}");
}
