//! Golden-estimate tripwire (ROADMAP 4f): a checked-in table of `(query, estimate)` rows on
//! a fixed-seed tiny database and a deterministic-mode, briefly trained CRN, so a refactor
//! of the serving paths that moves the anchor set, the ε rule or the final-function fold
//! fails loudly instead of drifting the reproduced numbers.
//!
//! `golden_estimates.tsv` holds one row per query: its index, the full-scan estimate
//! (`top_k = 0`), the `top_k = 4` estimate, and the query's SQL.  Both columns must be
//! reproduced by `Cnt2Crd::estimate` and by `EstimatorService::serve` at shards 1 and 4.
//! Values are compared to 1e-6 relative rather than bit-for-bit: the SIMD tiers differ in
//! FMA contraction, so the last bits depend on the host.
//!
//! To regenerate after an *intended* change of the estimates:
//! `cargo test -p crn-core --test golden_estimates -- --ignored --nocapture print_golden_table`
//! and replace the table with the printed rows.

use crn_core::{Cnt2Crd, Cnt2CrdConfig, CrnModel, EstimatorService, QueriesPool, ShardedPool};
use crn_db::imdb::{generate_imdb, ImdbConfig};
use crn_estimators::CardinalityEstimator;
use crn_exec::label_containment_pairs;
use crn_nn::parallel::{ThreadPoolConfig, WorkerPool};
use crn_nn::TrainConfig;
use crn_query::ast::Query;
use crn_query::generator::{GeneratorConfig, QueryGenerator};

const GOLDEN: &str = include_str!("golden_estimates.tsv");
const ROWS: usize = 40;
const TOP_K: usize = 4;

struct Fixture {
    model: CrnModel,
    pool: QueriesPool,
    queries: Vec<Query>,
}

fn fixture() -> Fixture {
    let db = generate_imdb(&ImdbConfig::tiny(120));
    // Anchors with empty results make the median collapse to 0 for most queries of the tiny
    // database; keep the non-empty ones so the table pins informative values.
    let mut pool = QueriesPool::new();
    for entry in QueriesPool::generate(&db, 400, 1, 120).entries() {
        if entry.cardinality > 0 {
            pool.insert(entry.query.clone(), entry.cardinality);
        }
    }
    let mut gen = QueryGenerator::new(&db, GeneratorConfig::paper(121));
    let samples = label_containment_pairs(&db, &gen.generate_pairs(60, 400), 4);
    // Deterministic mode: canonical shards and reduction order, so the trained weights do
    // not depend on the host's thread count.
    let mut config = TrainConfig::fast_test();
    config.parallel = ThreadPoolConfig::deterministic(2);
    let mut model = CrnModel::new(&db, config);
    model.fit(&samples);
    let mut queries =
        QueryGenerator::new(&db, GeneratorConfig::paper(122)).generate_queries(4 * ROWS);
    queries.retain(|query| pool.matching(query).count() > TOP_K);
    queries.truncate(ROWS);
    assert_eq!(queries.len(), ROWS, "the generator covers the table");
    Fixture {
        model,
        pool,
        queries,
    }
}

/// Every serving path's estimates under one configuration, labelled.
fn all_paths(fx: &Fixture, top_k: usize) -> Vec<(String, Vec<f64>)> {
    let config = Cnt2CrdConfig {
        top_k,
        ..Cnt2CrdConfig::default()
    };
    let sequential = Cnt2Crd::new(fx.model.clone(), fx.pool.clone()).with_config(config);
    let mut paths = vec![(
        format!("Cnt2Crd::estimate top_k={top_k}"),
        fx.queries.iter().map(|q| sequential.estimate(q)).collect(),
    )];
    for shards in [1usize, 4] {
        let service = EstimatorService::new(
            fx.model.clone(),
            ShardedPool::from_pool(&fx.pool, shards),
            WorkerPool::shared(2),
        )
        .with_config(config);
        paths.push((
            format!("EstimatorService::serve shards={shards} top_k={top_k}"),
            service.serve(&fx.queries).estimates,
        ));
    }
    paths
}

#[test]
fn every_serving_path_reproduces_the_golden_table() {
    let fx = fixture();
    let rows: Vec<Vec<&str>> = GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| line.splitn(4, '\t').collect())
        .collect();
    assert_eq!(rows.len(), ROWS, "one golden row per fixture query");
    assert!(rows.len() >= 32);
    for (index, (row, query)) in rows.iter().zip(&fx.queries).enumerate() {
        assert_eq!(row[0].parse::<usize>().unwrap(), index);
        assert_eq!(
            row[3],
            query.to_string(),
            "row {index}: the fixture's query generator moved, not the estimator"
        );
    }
    for (column, top_k) in [(1usize, 0usize), (2, TOP_K)] {
        for (path, estimates) in all_paths(&fx, top_k) {
            for (index, (row, actual)) in rows.iter().zip(&estimates).enumerate() {
                let expected: f64 = row[column].parse().unwrap();
                assert!(
                    (actual - expected).abs() <= 1e-6 * expected.abs(),
                    "{path}, query {index} ({}): {actual} vs golden {expected}",
                    row[3]
                );
            }
        }
    }
}

/// Prints the table in the checked-in format (see the module docs).
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_golden_table() {
    let fx = fixture();
    let full = all_paths(&fx, 0);
    let top = all_paths(&fx, TOP_K);
    for paths in [&full, &top] {
        for (path, estimates) in &paths[1..] {
            assert_eq!(
                estimates, &paths[0].1,
                "{path} disagrees with {}",
                paths[0].0
            );
        }
    }
    println!("# index\tfull_scan\ttop_k_{TOP_K}\tquery");
    for (index, query) in fx.queries.iter().enumerate() {
        println!(
            "{index}\t{:?}\t{:?}\t{query}",
            full[0].1[index], top[0].1[index]
        );
    }
}
