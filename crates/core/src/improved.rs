//! "Improved" existing estimators: `Improved(M) = Cnt2Crd(Crd2Cnt(M))` (paper §7).
//!
//! The paper's final observation is that the queries-pool technique improves *any* existing
//! cardinality estimator without modifying it: first convert it to a containment-rate
//! estimator with `Crd2Cnt`, then feed that through `Cnt2Crd` with a queries pool.  The
//! resulting `Improved PostgreSQL` and `Improved MSCN` models are what Tables 11–13 evaluate.

use crate::cnt2crd::{Cnt2Crd, Cnt2CrdConfig};
use crate::crd2cnt::Crd2Cnt;
use crate::pool::QueriesPool;
use crn_estimators::CardinalityEstimator;
use crn_query::ast::Query;

/// An existing cardinality estimator improved by the containment/queries-pool technique.
pub struct ImprovedEstimator<M> {
    inner: Cnt2Crd<Crd2Cnt<M>>,
    name: String,
}

impl<M: CardinalityEstimator + Sync> ImprovedEstimator<M> {
    /// Wraps an existing estimator with the three-step improvement technique.
    pub fn new(estimator: M, pool: QueriesPool) -> Self {
        let name = format!("Improved {}", estimator.name());
        ImprovedEstimator {
            inner: Cnt2Crd::new(Crd2Cnt::new(estimator), pool),
            name,
        }
    }

    /// Overrides the technique's configuration (final function, ε, default).
    pub fn with_config(mut self, config: Cnt2CrdConfig) -> Self {
        self.inner = self.inner.with_config(config);
        self
    }

    /// Access to the wrapped original estimator.
    pub fn original(&self) -> &M {
        self.inner.model().inner()
    }

    /// Access to the underlying Cnt2Crd pipeline (pool, per-entry estimates, ...).
    pub fn pipeline(&self) -> &Cnt2Crd<Crd2Cnt<M>> {
        &self.inner
    }

    /// Replaces the queries pool.
    pub fn set_pool(&mut self, pool: QueriesPool) {
        self.inner.set_pool(pool);
    }
}

impl<M: CardinalityEstimator + Sync> CardinalityEstimator for ImprovedEstimator<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate(&self, query: &Query) -> f64 {
        // When the pool cannot help, fall back to the original estimator: the improvement
        // technique never does worse than "no matching old query" (§5.2).
        self.inner
            .config()
            .fold(&self.inner.per_entry_estimates(query))
            .unwrap_or_else(|| self.original().estimate(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_db::imdb::{generate_imdb, tables, ImdbConfig};
    use crn_estimators::{PostgresEstimator, TrueCardinality};
    use crn_exec::Executor;
    use crn_nn::q_error;
    use crn_query::generator::{GeneratorConfig, QueryGenerator};

    #[test]
    fn improved_oracle_remains_exact() {
        let db = generate_imdb(&ImdbConfig::tiny(60));
        let pool = QueriesPool::generate(&db, 60, 2, 60);
        let improved = ImprovedEstimator::new(TrueCardinality::new(&db), pool);
        assert_eq!(improved.name(), "Improved TrueCardinality");
        let exec = Executor::new(&db);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::paper(61));
        for query in gen.generate_queries(20) {
            let truth = exec.cardinality(&query) as f64;
            if truth == 0.0 {
                continue;
            }
            let estimate = improved.estimate(&query);
            assert!(q_error(estimate, truth, 1.0) < 1.0 + 1e-6, "query {query}");
        }
    }

    #[test]
    fn improved_postgres_beats_plain_postgres_on_multi_join_queries() {
        // The headline claim of §7.2: wrapping PostgreSQL in the technique reduces its error
        // on multi-join workloads.  We verify the *direction* on a small sample.
        let db = generate_imdb(&ImdbConfig::small(62));
        let pool = QueriesPool::generate(&db, 120, 4, 62);
        let plain = PostgresEstimator::analyze(&db);
        let improved = ImprovedEstimator::new(PostgresEstimator::analyze(&db), pool);
        let exec = Executor::new(&db);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::with_max_joins(63, 4));
        // Generate generously: only a fraction of random multi-join queries have non-empty
        // results, and the test needs at least 10 evaluable ones.
        let queries: Vec<Query> = gen
            .generate_queries(200)
            .into_iter()
            .filter(|q| q.num_joins() >= 2)
            .take(90)
            .collect();
        let mut plain_errors = Vec::new();
        let mut improved_errors = Vec::new();
        for query in &queries {
            let truth = exec.cardinality(query) as f64;
            if truth == 0.0 {
                continue;
            }
            plain_errors.push(q_error(plain.estimate(query), truth, 1.0));
            improved_errors.push(q_error(improved.estimate(query), truth, 1.0));
        }
        assert!(plain_errors.len() >= 10, "need enough evaluable queries");
        let median = |values: &mut Vec<f64>| {
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            values[values.len() / 2]
        };
        let plain_median = median(&mut plain_errors);
        let improved_median = median(&mut improved_errors);
        assert!(
            improved_median <= plain_median * 1.5,
            "improved PostgreSQL should not be dramatically worse (plain {plain_median:.2}, improved {improved_median:.2})"
        );
    }

    #[test]
    fn falls_back_to_original_estimator_without_pool_coverage() {
        let db = generate_imdb(&ImdbConfig::tiny(64));
        let improved = ImprovedEstimator::new(PostgresEstimator::analyze(&db), QueriesPool::new());
        let scan = Query::scan(tables::TITLE);
        let original = PostgresEstimator::analyze(&db).estimate(&scan);
        assert_eq!(improved.estimate(&scan), original);
        assert_eq!(improved.pipeline().pool().len(), 0);
        assert_eq!(improved.original().name(), "PostgreSQL");
    }
}
