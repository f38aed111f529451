//! The estimator interfaces shared by every model in the reproduction.
//!
//! The paper treats "model" loosely — "here 'model' may refer to an ML model or simply to a
//! method" (§4.1.1) — so the trait is deliberately minimal: anything that maps a query to a
//! cardinality estimate, or a query pair to a containment-rate estimate, qualifies.  The
//! `Crd2Cnt` / `Cnt2Crd` transformations in `crn-core` are generic over these traits.

use crn_query::ast::Query;
use std::any::Any;

/// Anything that can estimate the result cardinality of a query.
pub trait CardinalityEstimator {
    /// A short human-readable name used in evaluation reports ("PostgreSQL", "MSCN", ...).
    fn name(&self) -> &str;

    /// Estimates `|query|` over the database the estimator was built/trained on.
    ///
    /// Estimates are real-valued (fractional rows are routine for statistics-based
    /// estimators); they are never negative.
    fn estimate(&self, query: &Query) -> f64;
}

/// Figure 8's ε screen: whether a pair whose `query ⊂% anchor` rate is `y_rate` goes on to
/// contribute `x_rate / y_rate · |anchor|` — exactly when `y_rate <= epsilon` fails, so a NaN
/// rate passes (and its NaN estimate is dropped downstream as non-finite).
#[allow(clippy::neg_cmp_op_on_partial_ord)] // the complement of `<=` is what lets NaN pass
pub fn passes_epsilon(y_rate: f64, epsilon: f64) -> bool {
    !(y_rate <= epsilon)
}

/// Anything that can estimate the containment rate `Q1 ⊂% Q2` of two queries with identical
/// FROM clauses.
pub trait ContainmentEstimator {
    /// A short human-readable name used in evaluation reports ("CRN", "Crd2Cnt(MSCN)", ...).
    fn name(&self) -> &str;

    /// Estimates the containment rate `q1 ⊂% q2` in `[0, 1]`.
    ///
    /// Implementations may return any non-negative value; callers treat values above 1 as
    /// legitimate estimates (the Crd2Cnt transformation can produce them).
    fn estimate_containment(&self, q1: &Query, q2: &Query) -> f64;

    /// THE batched two-direction entry point: for every query of a *group* sharing one anchor
    /// list, the anchors `aᵢ` of that list whose `y = query ⊂% aᵢ` passes Figure 8's ε screen
    /// ([`passes_epsilon`]), each as `(i, x, y)` with `x = aᵢ ⊂% query` — one list per query,
    /// in query order, each in anchor order.
    ///
    /// This is the shape the Cnt2Crd cardinality technique consumes (paper §5.3, Figure 8):
    /// both containment directions of every matching pool anchor of an incoming query that
    /// can contribute an estimate.  `x` is only read when `y > ε`, so it is only computed
    /// for the pairs that survive; `epsilon = f64::NEG_INFINITY` keeps every pair whose `y`
    /// is not `−∞`.  A single query is a group of one; the concurrent serving front-end
    /// groups incoming queries by FROM clause and evaluates each group against a pool shard
    /// in one call.
    ///
    /// `prepared` is the state [`prepare_anchors`](ContainmentEstimator::prepare_anchors)
    /// built for the *same* anchor list, or `None`.  Implementations must ignore state that
    /// is not theirs (wrong type, wrong anchor count) and compute from the anchors instead;
    /// an empty anchor list yields one empty vector per query whatever state is passed.
    ///
    /// The default implementation loops over [`estimate_containment`], asking for `y` first
    /// and for `x` only when `y` survives; neural models override it to featurize each query
    /// once and pack the whole group into fused head batches, with per-row results
    /// bit-identical to a group of one.
    ///
    /// [`estimate_containment`]: ContainmentEstimator::estimate_containment
    fn predict_group(
        &self,
        anchors: &[&Query],
        queries: &[&Query],
        prepared: Option<&(dyn Any + Send + Sync)>,
        epsilon: f64,
    ) -> Vec<Vec<(usize, f64, f64)>> {
        let _ = prepared;
        queries
            .iter()
            .map(|query| {
                anchors
                    .iter()
                    .enumerate()
                    .filter_map(|(i, anchor)| {
                        let y_rate = self.estimate_containment(query, anchor);
                        passes_epsilon(y_rate, epsilon)
                            .then(|| (i, self.estimate_containment(anchor, query), y_rate))
                    })
                    .collect()
            })
            .collect()
    }

    /// Precomputes model-specific serving state for a *fixed* anchor set, reusable across
    /// queries (e.g. the CRN model returns the encoded form of all anchors, so a
    /// queries-pool serving path encodes each pool entry once per pool instead of once per
    /// incoming query).  Returns `None` when the model has nothing to precompute; the
    /// returned value is opaque and only meaningful to
    /// [`predict_group`](ContainmentEstimator::predict_group).
    fn prepare_anchors(&self, anchors: &[&Query]) -> Option<Box<dyn Any + Send + Sync>> {
        let _ = anchors;
        None
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn estimate(&self, query: &Query) -> f64 {
        (**self).estimate(query)
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn estimate(&self, query: &Query) -> f64 {
        (**self).estimate(query)
    }
}

impl<T: ContainmentEstimator + ?Sized> ContainmentEstimator for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn estimate_containment(&self, q1: &Query, q2: &Query) -> f64 {
        (**self).estimate_containment(q1, q2)
    }

    fn predict_group(
        &self,
        anchors: &[&Query],
        queries: &[&Query],
        prepared: Option<&(dyn Any + Send + Sync)>,
        epsilon: f64,
    ) -> Vec<Vec<(usize, f64, f64)>> {
        (**self).predict_group(anchors, queries, prepared, epsilon)
    }

    fn prepare_anchors(&self, anchors: &[&Query]) -> Option<Box<dyn Any + Send + Sync>> {
        (**self).prepare_anchors(anchors)
    }
}

impl<T: ContainmentEstimator + ?Sized> ContainmentEstimator for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn estimate_containment(&self, q1: &Query, q2: &Query) -> f64 {
        (**self).estimate_containment(q1, q2)
    }

    fn predict_group(
        &self,
        anchors: &[&Query],
        queries: &[&Query],
        prepared: Option<&(dyn Any + Send + Sync)>,
        epsilon: f64,
    ) -> Vec<Vec<(usize, f64, f64)>> {
        (**self).predict_group(anchors, queries, prepared, epsilon)
    }

    fn prepare_anchors(&self, anchors: &[&Query]) -> Option<Box<dyn Any + Send + Sync>> {
        (**self).prepare_anchors(anchors)
    }
}

/// An oracle estimator that returns exact cardinalities by executing queries.
///
/// Useful as an upper bound in ablations and for testing the transformations: feeding the
/// oracle through `Crd2Cnt`/`Cnt2Crd` must reproduce exact results.
pub struct TrueCardinality<'a> {
    executor: crn_exec::Executor<'a>,
}

impl<'a> TrueCardinality<'a> {
    /// Creates the oracle over a database snapshot.
    pub fn new(db: &'a crn_db::Database) -> Self {
        TrueCardinality {
            executor: crn_exec::Executor::new(db),
        }
    }
}

impl CardinalityEstimator for TrueCardinality<'_> {
    fn name(&self) -> &str {
        "TrueCardinality"
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.executor.cardinality(query) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_db::imdb::{generate_imdb, ImdbConfig};
    use crn_query::Query;

    #[test]
    fn oracle_returns_exact_counts() {
        let db = generate_imdb(&ImdbConfig::tiny(2));
        let oracle = TrueCardinality::new(&db);
        assert_eq!(oracle.name(), "TrueCardinality");
        let scan = Query::scan("title");
        assert_eq!(
            oracle.estimate(&scan),
            db.table("title").unwrap().row_count() as f64
        );
    }
}
