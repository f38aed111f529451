//! The `Cnt2Crd` transformation and the queries-pool cardinality estimation technique
//! (paper §5.1 and §5.3, Figure 8).
//!
//! Given a containment-rate estimation model `M`, a queries pool of previously executed
//! queries with known cardinalities, and a new query `Qnew`:
//!
//! ```text
//! for every (Qold, |Qold|) in the pool with Qold's FROM clause == Qnew's FROM clause:
//!     x_rate = M(Qold ⊂% Qnew)
//!     y_rate = M(Qnew ⊂% Qold)
//!     if y_rate > ε:  results.push(x_rate / y_rate * |Qold|)
//! return F(results)
//! ```
//!
//! where `F` is a *final function* (the paper examines Median, Mean and a trimmed mean and
//! settles on the Median, §5.3.1).  When no pool entry matches, the technique falls back to a
//! basic cardinality estimator, exactly as §5.2 prescribes.
//!
//! That loop exists here twice, and nowhere else: literally, one pair of model calls per
//! anchor ([`Cnt2Crd::per_entry_estimates_sequential`] — the oracle the parity tests compare
//! against), and batched ([`Cnt2CrdCore`]: a FROM group of queries × one pool shard's
//! anchors per fused model call, planned by [`plan_work_items`]).  Every serving tier — the
//! [`Cnt2Crd`] estimator below, the concurrent [`EstimatorService`], the online refresh
//! gate, the cluster workers — is a caller of the batched core over its own model and pool
//! shards.
//!
//! [`EstimatorService`]: crate::service::EstimatorService

use crate::pool::{PoolEntry, QueriesPool};
use crate::service::{plan_groups, ServeStats};
use crate::sharded::matching_top_k;
use crn_estimators::{passes_epsilon, CardinalityEstimator, ContainmentEstimator};
use crn_nn::parallel::WorkerPool;
use crn_query::ast::Query;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The final function `F` that folds the per-pool-entry estimates into a single cardinality.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum FinalFunction {
    /// The median of the estimates (the paper's choice — most robust to outliers).
    #[default]
    Median,
    /// The arithmetic mean.
    Mean,
    /// The trimmed mean: drop the given fraction of smallest and largest estimates
    /// (the paper trims 25% of the outliers) before averaging.
    TrimmedMean(f64),
}

impl FinalFunction {
    /// Applies the final function to the collected estimates.
    ///
    /// Returns `None` when the list is empty (no matching pool entries).
    ///
    /// # Panics
    ///
    /// If an estimate is NaN, which has no place in the sort.  Every per-entry estimate
    /// [`Cnt2CrdConfig::entry_estimate`] makes is finite, and the cluster coordinator
    /// refuses a worker reply that carries any other, so no serving tier passes one here.
    pub fn apply(&self, estimates: &[f64]) -> Option<f64> {
        if estimates.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = estimates.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
        match self {
            FinalFunction::Median => {
                let mid = sorted.len() / 2;
                if sorted.len() % 2 == 1 {
                    Some(sorted[mid])
                } else {
                    Some((sorted[mid - 1] + sorted[mid]) / 2.0)
                }
            }
            FinalFunction::Mean => Some(sorted.iter().sum::<f64>() / sorted.len() as f64),
            FinalFunction::TrimmedMean(fraction) => {
                let trim = ((sorted.len() as f64) * fraction / 2.0).floor() as usize;
                let kept = &sorted[trim..sorted.len() - trim.min(sorted.len() - trim)];
                if kept.is_empty() {
                    Some(sorted.iter().sum::<f64>() / sorted.len() as f64)
                } else {
                    Some(kept.iter().sum::<f64>() / kept.len() as f64)
                }
            }
        }
    }

    /// A short label used in reports.
    pub fn label(&self) -> String {
        match self {
            FinalFunction::Median => "median".to_string(),
            FinalFunction::Mean => "mean".to_string(),
            FinalFunction::TrimmedMean(f) => format!("trimmed_mean({f})"),
        }
    }
}

/// Configuration of the Cnt2Crd cardinality estimation technique.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cnt2CrdConfig {
    /// The final function `F`.
    pub final_function: FinalFunction,
    /// The ε threshold at or below which `y_rate` is treated as zero (Figure 8's `epsilon`).
    ///
    /// The estimate divides by `y_rate`, so anchors where the model believes the new query is
    /// barely contained in the old one amplify the containment model's error the most.  The
    /// paper does not report its ε; the default of 0.1 keeps only anchors the model
    /// considers more than 10%-containing.
    ///
    /// ε is also the serving screen: [`ContainmentEstimator::predict_group`] computes
    /// `y_rate` for every pair and `x_rate` only for the pairs that pass, so most of the
    /// second containment-head pass is never run.  Serving the benchmark fixture's
    /// 4,096-query corpus in 32-query batches at ε = 0.1, 5.1 % of the pairs pass over its
    /// 5,000-entry pool (25,623 of 506,793) and 14.8 % over its 328-entry base pool (4,950
    /// of 33,495).
    pub epsilon: f64,
    /// Estimate returned when no pool entry matches and no fallback estimator is configured.
    pub default_estimate: f64,
    /// Top-K anchor selection: `0` (the default) evaluates **all** matching anchors —
    /// bit-identical to the pre-tier serving paths — while `k > 0` ranks the matching
    /// anchors by featurization-space similarity ([`crate::pool::anchor_score`]) and
    /// evaluates only the best `k`, making per-query cost O(bucket + k) model heads
    /// instead of O(bucket).
    ///
    /// Top-K estimates are *not* bit-identical to the full scan; they are gated by the
    /// estimator-quality parity budget (top-K vs full-pool median q-error delta) the
    /// pool-scale sweep and its tests enforce.
    pub top_k: usize,
}

impl Cnt2CrdConfig {
    /// Folds one anchor/rate pairing into a per-entry estimate, applying the ε filter
    /// (Figure 8's inner loop body).
    ///
    /// This is THE definition of a per-entry estimate: the shared core
    /// ([`Cnt2CrdCore::entry_lists`]) and the sequential oracle
    /// ([`Cnt2Crd::per_entry_estimates_sequential`]) are its only callers, so the
    /// bit-parity contract between every serving tier cannot silently break.
    pub fn entry_estimate(&self, cardinality: u64, x_rate: f64, y_rate: f64) -> Option<f64> {
        if !passes_epsilon(y_rate, self.epsilon) {
            return None;
        }
        let estimate = x_rate / y_rate * cardinality as f64;
        estimate.is_finite().then_some(estimate)
    }

    /// Figure 8's last line, `F(results)` clamped at zero — `None` when no per-entry
    /// estimate survived, which every tier answers with its §5.2 fallback.
    pub fn fold(&self, entry_estimates: &[f64]) -> Option<f64> {
        self.final_function
            .apply(entry_estimates)
            .map(|value| value.max(0.0))
    }
}

impl Default for Cnt2CrdConfig {
    fn default() -> Self {
        Cnt2CrdConfig {
            final_function: FinalFunction::Median,
            epsilon: 0.1,
            default_estimate: 1.0,
            top_k: 0,
        }
    }
}

/// Per-`(shard, FROM clause)` anchor serving state built by the model
/// ([`ContainmentEstimator::prepare_anchors`] — for the CRN model the encoded form of the
/// anchors, so steady-state serving featurizes only the incoming queries), each slot valid
/// for one `(model version, bucket version)` pairing, the bucket version being that
/// shard's version of the FROM key (see [`PoolSnapshot::from_version`]): pool maintenance
/// invalidates exactly the buckets it changed, and a model hot-swap invalidates every slot
/// the old model encoded (a stale slot would serve old-model anchor encodings through the
/// new model's head: the stale-cache-after-swap regression test in [`crate::service`]
/// pins this).
///
/// [`PoolSnapshot::from_version`]: crate::sharded::PoolSnapshot::from_version
#[derive(Default)]
pub struct AnchorCache {
    /// One map per shard, keyed by FROM clause and looked up by `&str`: the steady-state
    /// hit — every work item of every batch — takes the read lock and allocates nothing.
    slots: RwLock<Vec<BTreeMap<String, CachedAnchors>>>,
}

struct CachedAnchors {
    /// `(model version, bucket version)` the state was built under.
    versions: (u64, u64),
    state: Option<Arc<dyn Any + Send + Sync>>,
}

impl AnchorCache {
    /// Returns (building on first use) `model`'s serving state for the anchors of one
    /// shard's FROM-clause bucket under the given `(model, bucket)` versions.
    fn get_or_prepare<M: ContainmentEstimator + ?Sized>(
        &self,
        model: &M,
        versions: (u64, u64),
        shard: usize,
        key: &str,
        anchors: &[&PoolEntry],
    ) -> Option<Arc<dyn Any + Send + Sync>> {
        let hit = self
            .slots
            .read()
            .expect("not poisoned")
            .get(shard)
            .and_then(|slots| slots.get(key))
            .filter(|cached| cached.versions == versions)
            .map(|cached| cached.state.clone());
        if let Some(state) = hit {
            return state;
        }
        // Build outside the lock: work items run on the worker pool, and holding the cache
        // lock across the (batched-GEMM) preparation would serialize them.  Two threads
        // racing on the same slot both build; the first insert wins and both states are
        // equivalent (the preparation is a pure function of model and anchor list).
        let anchor_queries: Vec<&Query> = anchors.iter().map(|entry| &entry.query).collect();
        let state: Option<Arc<dyn Any + Send + Sync>> =
            model.prepare_anchors(&anchor_queries).map(Arc::from);
        let mut slots = self.slots.write().expect("not poisoned");
        if slots.len() <= shard {
            slots.resize_with(shard + 1, BTreeMap::new);
        }
        let cached = slots[shard]
            .entry(key.to_string())
            .or_insert_with(|| CachedAnchors {
                versions,
                state: state.clone(),
            });
        // Replace only a *strictly older* slot: while an old-snapshot evaluation drains
        // concurrently with a new-snapshot one, the old reader must not downgrade the slot
        // the new readers key on (both versions are monotonic, so lexicographic
        // (model, bucket) order is "older").
        if cached.versions < versions {
            *cached = CachedAnchors {
                versions,
                state: state.clone(),
            };
        }
        if cached.versions == versions {
            cached.state.clone()
        } else {
            // Our state is valid for *our* versions even though the slot keeps a newer one.
            state
        }
    }
}

/// One `(FROM group, shard)` work item per shard holding anchors of the group's FROM clause,
/// sorted by `(group index, shard index)` — THE plan of the full-scan technique.  `groups`
/// is [`plan_groups`]' output; the in-process core evaluates these items, a distributed
/// coordinator scatters each to the worker owning its shard.
pub fn plan_work_items<S: Borrow<QueriesPool>>(
    shards: &[S],
    groups: &[(String, Vec<usize>)],
) -> Vec<(usize, usize)> {
    let mut items = Vec::new();
    for (group, (key, _)) in groups.iter().enumerate() {
        for (shard, storage) in shards.iter().enumerate() {
            if storage.borrow().matching_key(key).next().is_some() {
                items.push((group, shard));
            }
        }
    }
    items
}

/// The Cnt2Crd core: the frozen inputs of one evaluation — ONE model and ONE set of pool
/// shards for every estimate it produces — and the anchors → rates → per-entry-estimates
/// loop of Figure 8 over them.  [`Cnt2Crd`], [`EstimatorService`], the refresh gate and the
/// cluster workers are all thin callers: they differ only in where the model and the shards
/// come from.
///
/// [`EstimatorService`]: crate::service::EstimatorService
pub struct Cnt2CrdCore<'a, M: ?Sized, S> {
    /// The technique's configuration.
    pub config: &'a Cnt2CrdConfig,
    /// The containment model every rate of the evaluation comes from.
    pub model: &'a M,
    /// The pool's shards in canonical order (a single-owner pool is one shard).
    pub shards: &'a [S],
    /// Reuse of prepared anchor state across evaluations: the cache and the model's
    /// version keying it (with each shard's own bucket version of the FROM key).  `None`
    /// prepares nothing ahead.
    pub cache: Option<(&'a AnchorCache, u64)>,
}

impl<M: ContainmentEstimator + Sync + ?Sized, S: Borrow<QueriesPool> + Sync> Cnt2CrdCore<'_, M, S> {
    /// Figure 8's loop for one FROM group of queries over one anchor list: the rates of
    /// every `(anchor, query)` pairing that passes ε in one fused model call, each folded
    /// through [`Cnt2CrdConfig::entry_estimate`] — one per-entry list per query, in anchor
    /// order — and how many pairings passed.
    fn group_estimates(
        &self,
        anchors: &[&PoolEntry],
        prepared: Option<&(dyn Any + Send + Sync)>,
        queries: &[&Query],
    ) -> (usize, Vec<Vec<f64>>) {
        let anchor_queries: Vec<&Query> = anchors.iter().map(|entry| &entry.query).collect();
        let survivors =
            self.model
                .predict_group(&anchor_queries, queries, prepared, self.config.epsilon);
        let kept = survivors.iter().map(Vec::len).sum();
        let lists = survivors
            .into_iter()
            .map(|pairs| {
                pairs
                    .into_iter()
                    .filter_map(|(anchor, x_rate, y_rate)| {
                        self.config
                            .entry_estimate(anchors[anchor].cardinality, x_rate, y_rate)
                    })
                    .collect()
            })
            .collect();
        (kept, lists)
    }

    /// Per-query per-entry estimate lists for a slice of concurrent queries, plus how the
    /// plan was executed (`pool_hits`/`fallbacks` and the caller-side `snapshot_time`,
    /// `total_time` and `model_version` are left for the caller).
    ///
    /// * **Plan** — the queries are grouped by FROM clause (only same-FROM anchors can
    ///   participate, §5.3) and each `(group, shard with matching anchors)` becomes one work
    ///   item ([`plan_work_items`]).  With `config.top_k > 0` the unit of work is the query
    ///   itself instead: its anchor set — the `k` best-ranked matching anchors across all
    ///   shards ([`matching_top_k`], a deterministic total order, so identical at any shard
    ///   count) — is its own, so there is nothing to fuse across a group and no per-shard
    ///   prepared state to reuse.
    /// * **Compute** — work items are independent; `workers` hands them out dynamically and
    ///   returns them in item order.  Each is one fused, ε-screened model call over its
    ///   anchors, folded per surviving `(anchor, query)` pairing through
    ///   [`Cnt2CrdConfig::entry_estimate`].
    /// * **Concatenate** — a query's lists concatenate in canonical shard order (within a
    ///   shard: entry order; top-K: rank order).
    pub fn entry_lists(
        &self,
        workers: &WorkerPool,
        queries: &[Query],
    ) -> (Vec<Vec<f64>>, ServeStats) {
        let group_started = Instant::now();
        let groups = plan_groups(queries);
        // (FROM key, input indices of the item's queries, shard — `None` for a top-K item).
        let items: Vec<(&str, &[usize], Option<usize>)> = if self.config.top_k > 0 {
            groups
                .iter()
                .flat_map(|(key, indices)| {
                    indices.chunks(1).map(move |one| (key.as_str(), one, None))
                })
                .collect()
        } else {
            plan_work_items(self.shards, &groups)
                .into_iter()
                .map(|(group, shard)| (groups[group].0.as_str(), &groups[group].1[..], Some(shard)))
                .collect()
        };
        let mut stats = ServeStats {
            queries: queries.len(),
            groups: groups.len(),
            shards: self.shards.len(),
            pool_entries: self.shards.iter().map(|s| s.borrow().len()).sum(),
            work_items: items.len(),
            group_time: group_started.elapsed(),
            ..ServeStats::default()
        };

        let compute_started = Instant::now();
        // Per item: the `(anchor, query)` pairings it ran through the model, those that passed
        // ε, and its queries' lists.
        let per_item: Vec<(usize, usize, Vec<Vec<f64>>)> =
            workers.run_sharded(items.len(), |item| {
                let (key, indices, shard) = items[item];
                let group: Vec<&Query> = indices.iter().map(|&index| &queries[index]).collect();
                let Some(shard) = shard else {
                    let ranked = matching_top_k(self.shards, group[0], self.config.top_k);
                    let anchors: Vec<&PoolEntry> =
                        ranked.into_iter().map(|(_, entry)| entry).collect();
                    let (kept, lists) = self.group_estimates(&anchors, None, &group);
                    return (anchors.len(), kept, lists);
                };
                let storage = self.shards[shard].borrow();
                let anchors: Vec<&PoolEntry> = storage.matching_key(key).collect();
                let prepared = self.cache.and_then(|(cache, model_version)| {
                    let versions = (model_version, storage.bucket_version(key));
                    cache.get_or_prepare(self.model, versions, shard, key, &anchors)
                });
                let (kept, lists) = self.group_estimates(&anchors, prepared.as_deref(), &group);
                (anchors.len() * group.len(), kept, lists)
            });
        stats.compute_time = compute_started.elapsed();

        let merge_started = Instant::now();
        let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
        for ((_, indices, _), (scored, kept, lists)) in items.iter().zip(per_item) {
            stats.anchors_scored += scored;
            stats.anchors_kept += kept;
            for (&index, list) in indices.iter().zip(lists) {
                per_query[index].extend(list);
            }
        }
        stats.merge_time = merge_started.elapsed();
        (per_query, stats)
    }
}

/// A cardinality estimator built from a containment-rate model and a queries pool.
pub struct Cnt2Crd<M> {
    model: M,
    pool: QueriesPool,
    config: Cnt2CrdConfig,
    fallback: Option<Box<dyn CardinalityEstimator + Send + Sync>>,
    name: String,
    /// Per-FROM-clause prepared anchor state, lazily filled on first use and dropped when
    /// the pool is replaced.
    prepared: AnchorCache,
    /// A single query over a single shard is at most one work item, which any pool runs
    /// inline on the calling thread.
    workers: WorkerPool,
}

impl<M: ContainmentEstimator> Cnt2Crd<M> {
    /// Builds the estimator from a containment model and a queries pool, with defaults
    /// (median final function, ε = 0.1).
    pub fn new(model: M, pool: QueriesPool) -> Self {
        let name = format!("Cnt2Crd({})", model.name());
        Cnt2Crd {
            model,
            pool,
            config: Cnt2CrdConfig::default(),
            fallback: None,
            name,
            prepared: AnchorCache::default(),
            workers: WorkerPool::shared(1),
        }
    }

    /// Overrides the technique's configuration.
    pub fn with_config(mut self, config: Cnt2CrdConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets a fallback cardinality estimator used when no pool entry matches the query's FROM
    /// clause (§5.2: "we can always rely on the known basic cardinality estimation models").
    pub fn with_fallback(mut self, fallback: Box<dyn CardinalityEstimator + Send + Sync>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// The wrapped containment model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The queries pool.
    pub fn pool(&self) -> &QueriesPool {
        &self.pool
    }

    /// Replaces the queries pool (used by the pool-size sweep of Table 14).
    pub fn set_pool(&mut self, pool: QueriesPool) {
        self.pool = pool;
        self.prepared = AnchorCache::default();
    }

    /// The technique's configuration.
    pub fn config(&self) -> &Cnt2CrdConfig {
        &self.config
    }
}

impl<M: ContainmentEstimator + Sync> Cnt2Crd<M> {
    /// The per-pool-entry estimates for a query (exposed for diagnostics and tests): the
    /// shared core ([`Cnt2CrdCore::entry_lists`]) over this estimator's model and its pool
    /// as one shard, for a group of one.  All matching — or, with `config.top_k > 0`, the
    /// `k` best-ranked — anchors run through the model's fused
    /// [`predict_group`](ContainmentEstimator::predict_group): for neural models each
    /// anchor is encoded once per pool and a query costs two batched head passes, the
    /// second over the anchors that pass ε only, instead of the `2·N` single-pair forwards
    /// of the sequential path.
    pub fn per_entry_estimates(&self, query: &Query) -> Vec<f64> {
        let core = Cnt2CrdCore {
            config: &self.config,
            model: &self.model,
            shards: &[&self.pool],
            cache: Some((&self.prepared, 0)),
        };
        let (mut per_query, _) = core.entry_lists(&self.workers, std::slice::from_ref(query));
        per_query.pop().expect("one list per query")
    }

    /// The sequential reference implementation of [`Cnt2Crd::per_entry_estimates`]: one
    /// `estimate_containment` call per direction per anchor, exactly as Figure 8 writes the
    /// algorithm.  Kept public for the parity tests and the criterion baseline.
    pub fn per_entry_estimates_sequential(&self, query: &Query) -> Vec<f64> {
        self.pool
            .matching(query)
            .filter_map(|entry| {
                let x_rate = self.model.estimate_containment(&entry.query, query);
                let y_rate = self.model.estimate_containment(query, &entry.query);
                self.config
                    .entry_estimate(entry.cardinality, x_rate, y_rate)
            })
            .collect()
    }
}

impl<M: ContainmentEstimator + Sync> CardinalityEstimator for Cnt2Crd<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.config
            .fold(&self.per_entry_estimates(query))
            .unwrap_or_else(|| match &self.fallback {
                Some(fallback) => fallback.estimate(query),
                None => self.config.default_estimate,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crd2cnt::Crd2Cnt;
    use crn_db::imdb::{generate_imdb, tables, ImdbConfig};
    use crn_estimators::{PostgresEstimator, TrueCardinality};
    use crn_exec::Executor;
    use crn_nn::q_error;
    use crn_query::generator::{GeneratorConfig, QueryGenerator};

    #[test]
    fn final_functions_behave_as_documented() {
        let values = [1.0, 100.0, 3.0, 2.0, 4.0];
        assert_eq!(FinalFunction::Median.apply(&values), Some(3.0));
        assert_eq!(FinalFunction::Mean.apply(&values), Some(22.0));
        // Trimming 40% drops the smallest and largest value.
        let trimmed = FinalFunction::TrimmedMean(0.4).apply(&values).unwrap();
        assert!((trimmed - 3.0).abs() < 1e-9);
        assert_eq!(FinalFunction::Median.apply(&[]), None);
        assert_eq!(FinalFunction::Median.apply(&[5.0, 7.0]), Some(6.0));
        assert_eq!(FinalFunction::Median.label(), "median");
    }

    #[test]
    fn oracle_pipeline_recovers_exact_cardinalities() {
        // Cnt2Crd(Crd2Cnt(TrueCardinality)) with a pool of exact cardinalities must return
        // exact cardinalities for any query whose FROM clause is covered by the pool.
        let db = generate_imdb(&ImdbConfig::tiny(50));
        let pool = QueriesPool::generate(&db, 60, 2, 50);
        let oracle = Crd2Cnt::new(TrueCardinality::new(&db));
        let estimator = Cnt2Crd::new(oracle, pool);
        let exec = Executor::new(&db);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::paper(51));
        let mut checked = 0;
        for query in gen.generate_queries(40) {
            let truth = exec.cardinality(&query) as f64;
            if truth == 0.0 {
                continue;
            }
            let estimate = estimator.estimate(&query);
            if estimator.per_entry_estimates(&query).is_empty() {
                continue;
            }
            assert!(
                q_error(estimate, truth, 1.0) < 1.0 + 1e-6,
                "oracle pipeline must be exact: {estimate} vs {truth} for {query}"
            );
            checked += 1;
        }
        assert!(
            checked > 5,
            "the pool should cover several test queries, covered {checked}"
        );
    }

    #[test]
    fn fallback_is_used_when_no_pool_entry_matches() {
        let db = generate_imdb(&ImdbConfig::tiny(52));
        let empty_pool = QueriesPool::new();
        let estimator = Cnt2Crd::new(Crd2Cnt::new(PostgresEstimator::analyze(&db)), empty_pool)
            .with_fallback(Box::new(PostgresEstimator::analyze(&db)));
        let scan = Query::scan(tables::TITLE);
        let expected = PostgresEstimator::analyze(&db).estimate(&scan);
        assert_eq!(estimator.estimate(&scan), expected);
        // Without a fallback, the configured default is returned.
        let bare = Cnt2Crd::new(
            Crd2Cnt::new(PostgresEstimator::analyze(&db)),
            QueriesPool::new(),
        );
        assert_eq!(
            bare.estimate(&scan),
            Cnt2CrdConfig::default().default_estimate
        );
        assert_eq!(bare.name(), "Cnt2Crd(Crd2Cnt(PostgreSQL))");
    }

    #[test]
    fn epsilon_filters_zero_denominators() {
        let db = generate_imdb(&ImdbConfig::tiny(53));
        let pool = QueriesPool::generate(&db, 30, 1, 53);
        let estimator = Cnt2Crd::new(Crd2Cnt::new(TrueCardinality::new(&db)), pool).with_config(
            Cnt2CrdConfig {
                epsilon: 0.5, // aggressive: only well-contained matches survive
                ..Cnt2CrdConfig::default()
            },
        );
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::paper(54));
        for query in gen.generate_queries(10) {
            let estimate = estimator.estimate(&query);
            assert!(estimate.is_finite() && estimate >= 0.0);
        }
    }

    /// The batched serving path must return the same cardinality as the sequential Figure-8
    /// loop, both for the oracle pipeline and for a trained CRN model.
    #[test]
    fn batched_estimate_matches_sequential_loop() {
        use crate::model::CrnModel;
        use crn_exec::label_containment_pairs;
        use crn_nn::TrainConfig;

        let db = generate_imdb(&ImdbConfig::tiny(56));
        let pool = QueriesPool::generate(&db, 60, 2, 56);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::paper(57));

        // Oracle containment model (exercises the default trait predict_group).
        let oracle = Cnt2Crd::new(Crd2Cnt::new(TrueCardinality::new(&db)), pool.clone());
        // Trained CRN containment model (exercises the fused override).
        let pairs = gen.generate_pairs(30, 120);
        let samples = label_containment_pairs(&db, &pairs, 4);
        let mut crn = CrnModel::new(&db, TrainConfig::fast_test());
        crn.fit(&samples);
        let learned = Cnt2Crd::new(crn, pool);

        let mut covered = 0;
        for query in gen.generate_queries(25) {
            for estimates in [
                (
                    oracle.per_entry_estimates(&query),
                    oracle.per_entry_estimates_sequential(&query),
                ),
                (
                    learned.per_entry_estimates(&query),
                    learned.per_entry_estimates_sequential(&query),
                ),
            ] {
                let (batched, sequential) = estimates;
                assert_eq!(
                    batched.len(),
                    sequential.len(),
                    "same anchors must survive ε"
                );
                for (a, b) in batched.iter().zip(&sequential) {
                    assert!(
                        (a - b).abs() < 1e-5 * b.abs().max(1.0),
                        "batched {a} vs sequential {b} for {query}"
                    );
                }
                if !batched.is_empty() {
                    covered += 1;
                }
            }
        }
        assert!(
            covered > 5,
            "the pool should cover several test queries, covered {covered}"
        );
    }

    /// Regression: an empty anchor set must short-circuit to an empty result on every CRN
    /// serving entry point instead of reaching the GEMM path with a zero-row (0×0) packed
    /// batch, which the matmul shape asserts reject.  Covers the bare batched calls, the
    /// group call with a stale non-empty prepared state, and the full `Cnt2Crd` estimate
    /// over a pool whose matching anchor list is emptied by `remove`.
    #[test]
    fn empty_anchor_pool_returns_empty_instead_of_hitting_gemm() {
        use crate::model::CrnModel;
        use crn_nn::TrainConfig;
        use crn_query::generator::GeneratorConfig;

        let db = generate_imdb(&ImdbConfig::tiny(58));
        let model = CrnModel::new(&db, TrainConfig::fast_test());
        let query = Query::scan(tables::TITLE);

        // Bare batched entry points.
        assert!(model.predict_batch(&[], &query).is_empty());
        assert!(model.prepare_anchors(&[]).is_none());
        // The group entry point with an empty anchor list and a (stale) non-empty serving
        // state — must not be fed to the head GEMMs.
        let stale = model
            .prepare_anchors(&[&query])
            .expect("non-empty anchor set prepares");
        assert_eq!(
            model.predict_group(&[], &[&query], Some(stale.as_ref()), f64::NEG_INFINITY),
            vec![Vec::new()]
        );

        // Full estimator over a pool whose only anchor for this FROM clause is removed:
        // the matching list is empty and the estimate falls back to the default.
        let mut pool = QueriesPool::new();
        pool.insert(query.clone(), 123);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::paper(58));
        for q in gen.generate_queries(10) {
            if q.tables() != query.tables() {
                // Keep the pool non-empty, but leave the query's own FROM clause bare.
                pool.insert(q, 1);
            }
        }
        pool.remove(&query);
        let estimator = Cnt2Crd::new(model, pool);
        assert!(estimator.per_entry_estimates(&query).is_empty());
        assert_eq!(
            estimator.estimate(&query),
            Cnt2CrdConfig::default().default_estimate
        );
    }

    /// A containment "model" that answers from a script, keyed by the anchor, and logs every
    /// rate it is asked for as `(anchor index, 'x' | 'y')`.
    struct ScriptedRates {
        probe: Query,
        /// `(anchor, x = anchor ⊂% probe, y = probe ⊂% anchor)`.
        script: Vec<(Query, f64, f64)>,
        log: std::sync::Mutex<Vec<(usize, char)>>,
    }

    impl ContainmentEstimator for ScriptedRates {
        fn name(&self) -> &str {
            "scripted"
        }

        fn estimate_containment(&self, q1: &Query, q2: &Query) -> f64 {
            let (anchor, direction) = if *q1 == self.probe {
                (q2, 'y')
            } else {
                (q1, 'x')
            };
            let index = self
                .script
                .iter()
                .position(|(scripted, ..)| scripted == anchor)
                .expect("a scripted anchor");
            self.log.lock().unwrap().push((index, direction));
            let (_, x_rate, y_rate) = self.script[index];
            if direction == 'x' {
                x_rate
            } else {
                y_rate
            }
        }
    }

    /// The default `predict_group` screens by ε exactly as Figure 8 does, on every rate at
    /// the edge of the test: the shared core's lists equal the literal loop's bit for bit,
    /// and `x` is asked for only after its pair's `y` passed.
    #[test]
    fn the_epsilon_screen_is_figure_8_on_edge_rates() {
        use crn_db::schema::ColumnRef;
        use crn_db::value::CompareOp;
        use crn_query::ast::Predicate;

        let probe = Query::scan(tables::TITLE);
        let anchor = |n: usize| {
            let column = ColumnRef::new(tables::TITLE, "production_year");
            probe.with_predicate(Predicate::new(column, CompareOp::Gt, n as i64))
        };
        for epsilon in [0.1, 0.0] {
            let ys = [
                f64::NAN,
                f64::INFINITY,
                -0.0,
                epsilon,
                epsilon.next_up(),
                f64::MIN_POSITIVE / 2.0,
            ];
            let script: Vec<(Query, f64, f64)> = ys
                .iter()
                .flat_map(|&y_rate| [0.0, f64::NAN, f64::INFINITY].map(|x_rate| (x_rate, y_rate)))
                .enumerate()
                .map(|(n, (x_rate, y_rate))| (anchor(n), x_rate, y_rate))
                .collect();
            let mut pool = QueriesPool::new();
            for (query, ..) in &script {
                assert!(pool.insert(query.clone(), 1_000));
            }
            // Each anchor's `y`, then — only if it passed — its `x`.
            let expected_log: Vec<(usize, char)> = script
                .iter()
                .enumerate()
                .flat_map(|(index, &(_, _, y_rate))| {
                    let x = passes_epsilon(y_rate, epsilon).then_some((index, 'x'));
                    std::iter::once((index, 'y')).chain(x)
                })
                .collect();
            let model = ScriptedRates {
                probe: probe.clone(),
                script,
                log: Default::default(),
            };
            let config = Cnt2CrdConfig {
                epsilon,
                ..Cnt2CrdConfig::default()
            };
            let sequential = Cnt2Crd::new(&model, pool.clone())
                .with_config(config)
                .per_entry_estimates_sequential(&probe);
            model.log.lock().unwrap().clear();
            let core = Cnt2CrdCore {
                config: &config,
                model: &model,
                shards: &[&pool],
                cache: None,
            };
            let (lists, stats) =
                core.entry_lists(&WorkerPool::shared(1), std::slice::from_ref(&probe));

            let bits = |list: &[f64]| list.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lists[0]), bits(&sequential), "ε = {epsilon}");
            assert!(
                !sequential.is_empty(),
                "ε = {epsilon}: some pair contributes"
            );
            assert_eq!(*model.log.lock().unwrap(), expected_log, "ε = {epsilon}");
            let kept = expected_log.len() - model.script.len();
            assert!(0 < kept && kept < model.script.len(), "ε = {epsilon}");
            assert_eq!(stats.anchors_kept, kept);
            assert_eq!(stats.anchors_scored, model.script.len());
        }
    }

    #[test]
    fn pool_replacement_changes_estimates() {
        let db = generate_imdb(&ImdbConfig::tiny(55));
        let pool = QueriesPool::generate(&db, 60, 2, 55);
        let mut estimator = Cnt2Crd::new(Crd2Cnt::new(TrueCardinality::new(&db)), pool.clone());
        let query = Query::scan(tables::TITLE);
        let full_pool_estimate = estimator.estimate(&query);
        estimator.set_pool(pool.truncated(1));
        // The estimate may change (or not), but the call must remain well-defined.
        let small_pool_estimate = estimator.estimate(&query);
        assert!(small_pool_estimate.is_finite());
        assert!(full_pool_estimate.is_finite());
        assert!(estimator.pool().len() <= 1);
    }
}
