//! The concurrent estimator service — the serving front-end of the layered subsystem.
//!
//! [`EstimatorService`] accepts a *slice of concurrent queries* (the unit a database
//! front-end would hand over per scheduling tick), and produces one cardinality estimate per
//! query plus a [`ServeStats`] describing how the batch was served.  It owns *where the
//! inputs come from*; the anchors → rates → per-entry-estimates work itself is the one shared
//! core ([`Cnt2CrdCore`]) every tier calls.  The execution plan of one `serve` call:
//!
//! 1. **Freeze** — one immutable [`PoolSnapshot`] of the [`ShardedPool`] and one
//!    [`ModelSnapshot`]: taken once per call, shared by every worker, never blocking
//!    concurrent pool maintenance or a model hot-swap.
//! 2. **Evaluate** — [`Cnt2CrdCore::entry_lists`] over that pairing: the queries are grouped
//!    by FROM clause, each `(group × non-empty shard)` — or, with `top_k > 0`, each query —
//!    becomes one work item on the persistent [`WorkerPool`], and each work item runs its
//!    group against its anchors in one fused batch
//!    ([`ContainmentEstimator::predict_group`]) with the per-shard
//!    [`prepare_anchors`](ContainmentEstimator::prepare_anchors) state cached in the
//!    service's [`AnchorCache`], keyed by the shard's version of the group's FROM bucket
//!    and the model version.  The batch is ε first: `query ⊂% anchor` for every pairing,
//!    then `anchor ⊂% query` only for the pairings that pass ε
//!    ([`ServeStats::anchors_kept`] of [`ServeStats::anchors_scored`]).  Per-shard lists
//!    concatenate in canonical shard order.
//! 3. **Fold** — the final function (median by default) folds each query's list
//!    ([`fold_entry_lists`]), and queries without any surviving anchor fall back exactly
//!    like [`Cnt2Crd`](crate::cnt2crd::Cnt2Crd).
//!
//! # Bit-identical to sequential serving
//!
//! For every query, the service's full-scan estimate is **bit-identical** to what the
//! sequential single-query `Cnt2Crd` path returns over the flattened pool, at *any* shard and
//! thread count: per-anchor rates are computed by row-count-independent kernels over
//! forced-CSR featurizations (so neither shard partitioning nor group fusion can
//! re-associate any f32 sum), the merged per-entry list is a permutation of the sequential
//! one, and the final functions sort before folding.  The parity tests below pin
//! shards = 1/2/8.  Top-K estimates are not bit-identical to the full scan (they are gated
//! by the q-error budget of the pool-scale sweep) but are identical across every tier,
//! shard count and thread count.

use crate::cnt2crd::{AnchorCache, Cnt2CrdConfig, Cnt2CrdCore};
use crate::pool::from_key;
use crate::sharded::{PoolSnapshot, ShardedPool};
use crn_estimators::{CardinalityEstimator, ContainmentEstimator};
use crn_nn::parallel::WorkerPool;
use crn_query::ast::Query;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-registered per-phase latency histograms ([`EstimatorService::with_obs`]): one
/// registry lookup each at wiring time, a single-bool guard per `serve` call after.
/// With the default disabled [`crn_obs::Obs`] every handle is inert and `observe` is one
/// predictable branch — the serve path is otherwise unchanged.
struct PhaseHists {
    enabled: bool,
    snapshot_us: crn_obs::HistHandle,
    group_us: crn_obs::HistHandle,
    compute_us: crn_obs::HistHandle,
    merge_us: crn_obs::HistHandle,
    total_us: crn_obs::HistHandle,
}

impl PhaseHists {
    fn from_obs(obs: &crn_obs::Obs) -> Self {
        PhaseHists {
            enabled: obs.enabled(),
            snapshot_us: obs.hist("svc.phase.snapshot_us"),
            group_us: obs.hist("svc.phase.group_us"),
            compute_us: obs.hist("svc.phase.compute_us"),
            merge_us: obs.hist("svc.phase.merge_us"),
            total_us: obs.hist("svc.phase.total_us"),
        }
    }

    /// Feeds one served batch's phase timings into the histograms.
    fn observe(&self, stats: &ServeStats) {
        if !self.enabled {
            return;
        }
        self.snapshot_us
            .record(stats.snapshot_time.as_micros() as u64);
        self.group_us.record(stats.group_time.as_micros() as u64);
        self.compute_us
            .record(stats.compute_time.as_micros() as u64);
        self.merge_us.record(stats.merge_time.as_micros() as u64);
        self.total_us.record(stats.total_time.as_micros() as u64);
    }
}

/// A versioned, immutable view of the served containment model — the model-side analogue
/// of [`PoolSnapshot`].
///
/// The service's live model sits behind an `Arc`-swapped snapshot: readers
/// ([`EstimatorService::serve`]) clone the current `Arc` once per call and compute the
/// *whole* batch against that frozen model, while [`EstimatorService::swap_model`]
/// publishes a successor snapshot with a fresh (monotonically increasing) version.  The
/// version keys the anchor caches together with the FROM-bucket version, so a hot-swap
/// invalidates exactly the cached encodings the old model produced.
///
/// **Swap-atomicity contract**: every served batch is computed entirely under one model
/// snapshot — never a blend of old and new.  A `serve` call that raced a swap returns
/// either the complete old-model answer or the complete new-model answer, bit-identical
/// to a sequential computation under that model (the swap-atomicity proptest below pins
/// this at shards {1, 4} × workers {1, 4}).
#[derive(Debug)]
pub struct ModelSnapshot<M> {
    model: Arc<M>,
    version: u64,
}

impl<M> ModelSnapshot<M> {
    /// The frozen model.
    pub fn model(&self) -> &Arc<M> {
        &self.model
    }

    /// The snapshot's version (monotonic within the owning service; the initial model is
    /// version 1 and every [`EstimatorService::swap_model`] allocates the next one).
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl<M> Clone for ModelSnapshot<M> {
    fn clone(&self) -> Self {
        ModelSnapshot {
            model: Arc::clone(&self.model),
            version: self.version,
        }
    }
}

/// How one `serve` call was executed: counters per layer plus wall-clock per phase.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Queries in the served slice.
    pub queries: usize,
    /// Distinct FROM-clause groups the slice collapsed into.
    pub groups: usize,
    /// Shards in the pool snapshot.
    pub shards: usize,
    /// Pool entries in the snapshot.
    pub pool_entries: usize,
    /// `(group × non-empty shard)` work items evaluated on the worker pool.
    pub work_items: usize,
    /// `(anchor, query)` pairings the work items ran through the model, counted where each
    /// item calls it: a query's whole FROM bucket, or with `top_k > 0` its ranked anchors.
    /// (0 from a distributed coordinator: its workers score.)
    pub anchors_scored: usize,
    /// Of those, the pairings whose `query ⊂% anchor` rate passed ε: the rows of the
    /// model's second containment-head pass, and an upper bound on the per-entry estimates
    /// (equal unless some `x / y · |anchor|` is not finite).  (0 from a distributed
    /// coordinator, like `anchors_scored`.)
    pub anchors_kept: usize,
    /// Queries answered from the pool (at least one per-entry estimate survived ε).
    pub pool_hits: usize,
    /// Queries answered by the fallback estimator (or the configured default).
    pub fallbacks: usize,
    /// Version of the [`ModelSnapshot`] the whole batch was computed under (0 only in a
    /// default/empty stats value; real serves start at version 1).
    pub model_version: u64,
    /// Taking the pool snapshot.
    pub snapshot_time: Duration,
    /// Grouping queries by FROM clause and planning work items.
    pub group_time: Duration,
    /// Evaluating all work items on the worker pool.
    pub compute_time: Duration,
    /// Merging per-shard results, final functions and fallbacks.
    pub merge_time: Duration,
    /// End-to-end `serve` wall clock.
    pub total_time: Duration,
}

impl ServeStats {
    /// Sum of the four per-phase timings.  Always `<= total_time`: the phases are timed
    /// over disjoint intervals of one `serve` call, so the difference is the (small)
    /// bookkeeping between phases.
    pub fn phase_time(&self) -> Duration {
        self.snapshot_time + self.group_time + self.compute_time + self.merge_time
    }

    /// Folds another call's stats into this one: counters and timings add, while
    /// `shards`/`pool_entries` take the other call's values (they describe the latest
    /// snapshot, not a running total).  This is how the async runtime's scheduler
    /// aggregates a whole run's serving profile.
    pub fn accumulate(&mut self, other: &ServeStats) {
        self.queries += other.queries;
        self.groups += other.groups;
        self.work_items += other.work_items;
        self.anchors_scored += other.anchors_scored;
        self.anchors_kept += other.anchors_kept;
        self.pool_hits += other.pool_hits;
        self.fallbacks += other.fallbacks;
        self.snapshot_time += other.snapshot_time;
        self.group_time += other.group_time;
        self.compute_time += other.compute_time;
        self.merge_time += other.merge_time;
        self.total_time += other.total_time;
        self.shards = other.shards;
        self.pool_entries = other.pool_entries;
        self.model_version = other.model_version;
    }
}

/// One `serve` call's result: the per-query estimates (in input order) and the stats.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// One cardinality estimate per input query, in input order.
    pub estimates: Vec<f64>,
    /// How the batch was served.
    pub stats: ServeStats,
    /// The pool snapshot the whole batch was computed under (the model version is in
    /// [`ServeStats::model_version`]).  A cross-window estimate cache files each estimate
    /// under its query's [`PoolSnapshot::from_version`] here plus the model version — the
    /// exact inputs it read — so a write invalidates only its own FROM clause's entries,
    /// and a hot-swap all of them.
    pub snapshot: Arc<PoolSnapshot>,
    /// That snapshot's [`PoolSnapshot::version`]: equal to
    /// [`serving_versions`](EstimatorService::serving_versions)' pool half for as long as
    /// no write has landed since.
    pub pool_version: u64,
    /// Indices (into `estimates`) that were answered by a *degraded* path — e.g. a
    /// distributed backend's coordinator-side fallback after losing the worker that
    /// owned the query's shards.  Always empty for the in-process
    /// [`EstimatorService`]: its fallbacks are the technique's own §5.2 semantics, not a
    /// fidelity loss.  Consumers (the serving runtime) tag these tickets
    /// `EstimateSource::Degraded` and keep them out of version-keyed caches.
    pub degraded: Vec<usize>,
}

/// The un-folded result of the service's execution plan ([`EstimatorService::
/// serve_entry_lists`]): per-query per-entry estimate lists in canonical shard order,
/// before the final function folds them.  A distributed coordinator gathers these
/// lists from shard-owning workers and folds them with [`fold_entry_lists`] — the fold
/// is the one shared definition, so the distributed estimate is bit-identical to the
/// single-process one.
#[derive(Debug, Clone)]
pub struct EntryLists {
    /// Per input query (in input order), the ε-surviving per-entry estimates,
    /// concatenated across shards in canonical shard order (within a shard: entry
    /// order).
    pub per_query: Vec<Vec<f64>>,
    /// How the plan was executed (fold-time counters `pool_hits`/`fallbacks` are still
    /// zero; [`fold_entry_lists`] fills them).
    pub stats: ServeStats,
    /// The pool snapshot the lists were computed under.
    pub snapshot: Arc<PoolSnapshot>,
}

/// Groups a query slice by FROM clause in deterministic order (sorted by key — the
/// `BTreeMap` iteration order every serving layer uses): one `(from_key, input query
/// indices)` entry per distinct FROM clause.  This is the group→shard plan a
/// distributed coordinator scatters: each group only needs the shards whose anchors
/// match its key.
pub fn plan_groups(queries: &[Query]) -> Vec<(String, Vec<usize>)> {
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (index, query) in queries.iter().enumerate() {
        groups.entry(from_key(query)).or_default().push(index);
    }
    groups.into_iter().collect()
}

/// Folds per-query per-entry estimate lists through the technique's final function —
/// the **one shared definition** of the pool-hit / fallback decision, used by the
/// in-process serve paths and by the distributed coordinator's gather.  A query whose
/// list survives the final function is a pool hit (`value.max(0.0)`); an empty list
/// falls back to the configured estimator (or the flat default), exactly like
/// [`Cnt2Crd`](crate::cnt2crd::Cnt2Crd).  Increments `stats.pool_hits` /
/// `stats.fallbacks`.
pub fn fold_entry_lists(
    config: &Cnt2CrdConfig,
    fallback: Option<&(dyn CardinalityEstimator + Send + Sync)>,
    per_query: &[Vec<f64>],
    queries: &[Query],
    stats: &mut ServeStats,
) -> Vec<f64> {
    per_query
        .iter()
        .zip(queries)
        .map(
            |(entry_estimates, query)| match config.fold(entry_estimates) {
                Some(value) => {
                    stats.pool_hits += 1;
                    value
                }
                None => {
                    stats.fallbacks += 1;
                    match fallback {
                        Some(fallback) => fallback.estimate(query),
                        None => config.default_estimate,
                    }
                }
            },
        )
        .collect()
}

/// The concurrent serving front-end over a containment model and a sharded queries pool.
///
/// The service owns its storage ([`ShardedPool`] — concurrent maintenance via
/// [`EstimatorService::pool`] is visible to the next `serve` call), its *model* (an
/// `Arc`-swapped [`ModelSnapshot`] — [`EstimatorService::swap_model`] hot-swaps an
/// improved model without pausing traffic; readers never block) and shares a persistent
/// [`WorkerPool`] with whatever else the process runs (training, other services).
pub struct EstimatorService<M> {
    /// The live model snapshot.  Readers clone the `Arc` under the read lock (a pointer
    /// swap's worth of contention) and serve whole batches against the frozen snapshot;
    /// [`EstimatorService::swap_model`] publishes successors.
    model: RwLock<Arc<ModelSnapshot<M>>>,
    /// Source of fresh model versions (the initial model is version 1).
    next_model_version: AtomicU64,
    pool: ShardedPool,
    workers: WorkerPool,
    config: Cnt2CrdConfig,
    fallback: Option<Box<dyn CardinalityEstimator + Send + Sync>>,
    name: String,
    /// Per-`(shard, FROM-clause)` anchor serving state, keyed by the shard's bucket
    /// version *and* the model version.
    prepared: AnchorCache,
    /// Per-phase latency histograms (inert unless wired via
    /// [`with_obs`](EstimatorService::with_obs)).
    phase_hists: PhaseHists,
}

impl<M: ContainmentEstimator + Send + Sync> EstimatorService<M> {
    /// Builds the service from a containment model, a sharded pool and a worker pool.
    pub fn new(model: M, pool: ShardedPool, workers: WorkerPool) -> Self {
        let name = format!("EstimatorService({})", model.name());
        EstimatorService {
            model: RwLock::new(Arc::new(ModelSnapshot {
                model: Arc::new(model),
                version: 1,
            })),
            next_model_version: AtomicU64::new(2),
            pool,
            workers,
            config: Cnt2CrdConfig::default(),
            fallback: None,
            name,
            prepared: AnchorCache::default(),
            phase_hists: PhaseHists::from_obs(&crn_obs::Obs::disabled()),
        }
    }

    /// Wires the service's per-phase timings (snapshot / group / compute / merge /
    /// total, µs) into `obs` as `svc.phase.*` histograms.  With a disabled `obs` this
    /// is a no-op wiring: the serve path keeps its exact pre-observability behavior.
    pub fn with_obs(mut self, obs: &crn_obs::Obs) -> Self {
        self.phase_hists = PhaseHists::from_obs(obs);
        self
    }

    /// Overrides the Cnt2Crd configuration (final function, ε, default estimate).
    pub fn with_config(mut self, config: Cnt2CrdConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the fallback cardinality estimator used when no pool entry matches a query's
    /// FROM clause (§5.2: "we can always rely on the known basic cardinality estimation
    /// models").
    pub fn with_fallback(mut self, fallback: Box<dyn CardinalityEstimator + Send + Sync>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// The service's name (`"EstimatorService(<model>)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current model snapshot (hold it as long as needed; swaps publish successors).
    pub fn model_snapshot(&self) -> Arc<ModelSnapshot<M>> {
        Arc::clone(&self.model.read())
    }

    /// The currently served containment model (the current snapshot's model).
    pub fn model(&self) -> Arc<M> {
        Arc::clone(&self.model.read().model)
    }

    /// The version of the currently served model snapshot.
    pub fn model_version(&self) -> u64 {
        self.model.read().version
    }

    /// Hot-swaps the served model: publishes a new [`ModelSnapshot`] with the next
    /// version and returns that version.  In-flight `serve` calls finish entirely under
    /// the snapshot they took (swap atomicity — no batch ever blends models); calls that
    /// take their snapshot after the swap serve the new model.  Stale per-shard anchor
    /// caches are invalidated lazily by the version key, exactly like pool maintenance.
    pub fn swap_model(&self, model: M) -> u64 {
        // Allocate the version under the write lock: with it outside, two racing swaps
        // could publish in the opposite order of their version draws, leaving an older
        // model live under a non-monotonic version.
        let mut live = self.model.write();
        let version = self.next_model_version.fetch_add(1, Ordering::Relaxed);
        *live = Arc::new(ModelSnapshot {
            model: Arc::new(model),
            version,
        });
        version
    }

    /// The sharded queries pool (insert/remove here between `serve` calls — snapshots in
    /// flight are unaffected).
    pub fn pool(&self) -> &ShardedPool {
        &self.pool
    }

    /// The technique's configuration.
    pub fn config(&self) -> &Cnt2CrdConfig {
        &self.config
    }

    /// Serves a slice of concurrent queries: one estimate per query, in input order, plus
    /// the per-layer stats.  See the module docs for the execution plan.
    pub fn serve(&self, queries: &[Query]) -> ServeResponse {
        let started = Instant::now();
        let EntryLists {
            per_query,
            mut stats,
            snapshot,
        } = self.serve_entry_lists(queries);

        // Fold each query's concatenated list through the final function — the shared
        // definition in `fold_entry_lists`, so a distributed gather folds identically.
        let merge_started = Instant::now();
        let estimates = fold_entry_lists(
            &self.config,
            self.fallback.as_deref(),
            &per_query,
            queries,
            &mut stats,
        );
        stats.merge_time += merge_started.elapsed();
        stats.total_time = started.elapsed();
        self.phase_hists.observe(&stats);
        ServeResponse {
            estimates,
            stats,
            pool_version: snapshot.version(),
            snapshot,
            degraded: Vec::new(),
        }
    }

    /// Steps 1–2 of the execution plan, stopping just short of the final-function fold:
    /// one ε-filtered per-entry estimate list per query, concatenated in canonical shard
    /// order (with `top_k > 0`: the query's ranked anchors, in rank order).  This is the
    /// distributed-serving seam — a shard-owning worker runs the same core over its own
    /// shards, the coordinator concatenates workers' lists in canonical shard order and
    /// folds with [`fold_entry_lists`], and the result is bit-identical to a
    /// single-process [`serve`](EstimatorService::serve).
    pub fn serve_entry_lists(&self, queries: &[Query]) -> EntryLists {
        let started = Instant::now();
        // One immutable snapshot of pool and model for the whole batch.  Taking both up
        // front is the swap-atomicity contract: however the pool or model is refreshed
        // concurrently, every estimate below comes from exactly this (pool, model) pairing.
        let snapshot = self.pool.snapshot();
        let model = self.model_snapshot();
        let snapshot_time = started.elapsed();
        let core = Cnt2CrdCore {
            config: &self.config,
            model: &*model.model,
            shards: snapshot.shards(),
            cache: Some((&self.prepared, model.version)),
        };
        let (per_query, mut stats) = core.entry_lists(&self.workers, queries);
        stats.model_version = model.version;
        stats.snapshot_time = snapshot_time;
        stats.total_time = started.elapsed();
        EntryLists {
            per_query,
            stats,
            snapshot,
        }
    }

    /// The `(pool version, model version)` pairing a `serve` issued right now would
    /// compute under.  Both versions are monotonic (maintenance swaps and
    /// [`swap_model`](EstimatorService::swap_model) only ever publish larger ones), so a
    /// response whose own pairing ([`ServeResponse::pool_version`],
    /// [`ServeStats::model_version`]) still equals this one holds the current snapshot
    /// and model: a cross-window estimate cache reads the per-query
    /// [`PoolSnapshot::from_version`]s off that response's snapshot instead of taking a
    /// new one.
    pub fn serving_versions(&self) -> (u64, u64) {
        (self.pool.snapshot().version(), self.model_version())
    }

    /// Convenience single-query entry point (a one-element `serve`).
    pub fn estimate_one(&self, query: &Query) -> f64 {
        self.serve(std::slice::from_ref(query)).estimates[0]
    }

    /// The service's degraded answer for one query: the configured fallback estimator if
    /// one is installed, else the flat default estimate — exactly what `serve` resolves
    /// a query to when no pool entry survives the ε-filter.  The serving runtime uses
    /// this to answer tickets whose batch panicked (tagged `Degraded`): a reduced-
    /// fidelity estimate within budget instead of a hang or an error.  Deliberately
    /// avoids the pool/model/worker-pool machinery — the paths a mid-batch panic may
    /// have been caused by.
    pub fn fallback_estimate(&self, query: &Query) -> f64 {
        match &self.fallback {
            Some(fallback) => fallback.estimate(query),
            None => self.config.default_estimate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnt2crd::Cnt2Crd;
    use crate::crd2cnt::Crd2Cnt;
    use crate::model::CrnModel;
    use crate::pool::QueriesPool;
    use crn_db::imdb::{generate_imdb, tables, ImdbConfig};
    use crn_db::Database;
    use crn_estimators::{PostgresEstimator, TrueCardinality};
    use crn_exec::label_containment_pairs;
    use crn_nn::TrainConfig;
    use crn_query::generator::{GeneratorConfig, QueryGenerator};

    fn trained_crn(db: &Database, seed: u64) -> CrnModel {
        let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
        let pairs = gen.generate_pairs(30, 120);
        let samples = label_containment_pairs(db, &pairs, 4);
        let mut crn = CrnModel::new(db, TrainConfig::fast_test());
        crn.fit(&samples);
        crn
    }

    fn workload(db: &Database, seed: u64, count: usize) -> Vec<Query> {
        let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
        gen.generate_queries(count)
    }

    /// An ε that screens out part of the fixture: the median `y = query ⊂% anchor` over
    /// every (query, matching anchor) pair.  The fast-trained fixtures rate every pair
    /// above the default ε, so the default alone never exercises a dropped row.
    fn median_y(crn: &CrnModel, pool: &QueriesPool, queries: &[Query]) -> f64 {
        use crn_estimators::ContainmentEstimator;
        let mut ys: Vec<f64> = queries
            .iter()
            .flat_map(|query| {
                let anchors: Vec<&Query> = pool.matching(query).map(|e| &e.query).collect();
                crn.predict_group(&anchors, &[query], None, f64::NEG_INFINITY)
                    .remove(0)
                    .into_iter()
                    .map(|(_, _, y)| y)
            })
            .collect();
        ys.sort_by(f64::total_cmp);
        ys[ys.len() / 2]
    }

    /// The acceptance-criterion parity pin: at shards = 1/2/8 (and several thread counts)
    /// the service's estimate for every query is **bit-identical** to the sequential
    /// single-query `Cnt2Crd::per_entry_estimates` path over the same (flattened) pool —
    /// for the trained CRN model (fused batched GEMM serving) at the default ε and at an ε
    /// that screens out part of the pairs, and for the oracle pipeline (default trait
    /// serving).
    #[test]
    fn service_is_bit_identical_to_sequential_cnt2crd() {
        let db = generate_imdb(&ImdbConfig::tiny(80));
        let pool = QueriesPool::generate(&db, 60, 2, 80);
        let queries = workload(&db, 81, 30);
        let crn = trained_crn(&db, 81);

        let sequential_oracle = Cnt2Crd::new(Crd2Cnt::new(TrueCardinality::new(&db)), pool.clone());
        let expected_oracle: Vec<f64> = queries
            .iter()
            .map(|q| sequential_oracle.estimate(q))
            .collect();
        let screening = median_y(&crn, &pool, &queries);
        let mut covered = 0usize;
        for epsilon in [Cnt2CrdConfig::default().epsilon, screening] {
            let config = Cnt2CrdConfig {
                epsilon,
                ..Cnt2CrdConfig::default()
            };
            let sequential_crn = Cnt2Crd::new(crn.clone(), pool.clone())
                .with_config(config)
                .with_fallback(Box::new(PostgresEstimator::analyze(&db)));
            let expected_crn: Vec<f64> =
                queries.iter().map(|q| sequential_crn.estimate(q)).collect();
            for shards in [1usize, 2, 8] {
                for threads in [1usize, 4] {
                    let service = EstimatorService::new(
                        crn.clone(),
                        ShardedPool::from_pool(&pool, shards),
                        WorkerPool::shared(threads),
                    )
                    .with_config(config)
                    .with_fallback(Box::new(PostgresEstimator::analyze(&db)));
                    let response = service.serve(&queries);
                    assert_eq!(response.estimates.len(), queries.len());
                    for (index, (actual, expected)) in
                        response.estimates.iter().zip(&expected_crn).enumerate()
                    {
                        assert!(
                            actual == expected,
                            "CRN ε={epsilon} shards={shards} threads={threads} query {index}: \
                             service {actual} vs sequential {expected}"
                        );
                    }
                    covered += response.stats.pool_hits;
                    assert_eq!(
                        response.stats.pool_hits + response.stats.fallbacks,
                        queries.len()
                    );
                    let (kept, scored) =
                        (response.stats.anchors_kept, response.stats.anchors_scored);
                    if epsilon == screening {
                        assert!(
                            0 < kept && kept < scored,
                            "ε={epsilon}: kept {kept} of {scored}"
                        );
                    }
                }
            }
        }
        for shards in [1usize, 2, 8] {
            for threads in [1usize, 4] {
                let oracle_service = EstimatorService::new(
                    Crd2Cnt::new(TrueCardinality::new(&db)),
                    ShardedPool::from_pool(&pool, shards),
                    WorkerPool::shared(threads),
                );
                let oracle_response = oracle_service.serve(&queries);
                for (index, (actual, expected)) in oracle_response
                    .estimates
                    .iter()
                    .zip(&expected_oracle)
                    .enumerate()
                {
                    assert!(
                        actual == expected,
                        "oracle shards={shards} threads={threads} query {index}: \
                         service {actual} vs sequential {expected}"
                    );
                }
            }
        }
        assert!(covered > 5, "the pool should cover several test queries");
    }

    /// A fused group of M queries on the single batched entry point must be bit-identical,
    /// per query, to M groups of one — with the prepared anchor state, without it, and with
    /// a stale state the model must ignore.
    #[test]
    fn fused_group_serving_matches_single_query_serving() {
        use crn_estimators::ContainmentEstimator;
        let db = generate_imdb(&ImdbConfig::tiny(84));
        let crn = trained_crn(&db, 84);
        let pool = QueriesPool::generate(&db, 40, 1, 84);
        let scan = Query::scan(tables::TITLE);
        let anchors: Vec<&Query> = pool.matching(&scan).map(|e| &e.query).collect();
        assert!(anchors.len() >= 2, "fixture needs anchors");
        let queries = workload(&db, 85, 12);
        let group: Vec<&Query> = queries
            .iter()
            .filter(|q| q.tables() == scan.tables())
            .chain(std::iter::once(&scan))
            .collect();
        assert!(group.len() >= 2, "fixture needs a real group");
        let prepared = crn.prepare_anchors(&anchors).expect("anchors prepare");
        // Prepared for a different anchor list: wrong row count, must not be used.
        let stale = crn.prepare_anchors(&anchors[..1]).expect("anchors prepare");
        for epsilon in [f64::NEG_INFINITY, Cnt2CrdConfig::default().epsilon] {
            let fused = crn.predict_group(&anchors, &group, Some(prepared.as_ref()), epsilon);
            assert_eq!(fused.len(), group.len());
            for state in [Some(prepared.as_ref()), None, Some(stale.as_ref())] {
                assert_eq!(crn.predict_group(&anchors, &group, state, epsilon), fused);
                for (query, rates) in group.iter().zip(&fused) {
                    assert_eq!(
                        crn.predict_group(&anchors, &[query], state, epsilon),
                        vec![rates.clone()],
                        "fused group rates must match a group of one"
                    );
                }
            }
            // Empty cases short-circuit, whatever state is passed.
            assert!(crn
                .predict_group(&[], &group, Some(prepared.as_ref()), epsilon)
                .iter()
                .all(|rates| rates.is_empty()));
            assert!(crn
                .predict_group(&anchors, &[], Some(prepared.as_ref()), epsilon)
                .is_empty());
        }
    }

    /// `serve` is `fold_entry_lists` over `serve_entry_lists`, bit-for-bit, in the full-scan
    /// and the top-K plan alike (the public entry-list seam used to ignore `top_k`).
    #[test]
    fn serve_is_the_fold_of_serve_entry_lists_at_any_top_k() {
        let db = generate_imdb(&ImdbConfig::tiny(92));
        let pool = QueriesPool::generate(&db, 120, 1, 92);
        let queries = workload(&db, 93, 30);
        let crn = trained_crn(&db, 92);
        let screening = median_y(&crn, &pool, &queries);
        let mut top_k_changes_an_estimate = false;
        for (shards, epsilon) in [1usize, 4].into_iter().flat_map(|shards| {
            [
                (shards, Cnt2CrdConfig::default().epsilon),
                (shards, screening),
            ]
        }) {
            let mut full_scan = Vec::new();
            for top_k in [0usize, 4] {
                let config = Cnt2CrdConfig {
                    top_k,
                    epsilon,
                    ..Cnt2CrdConfig::default()
                };
                let service = EstimatorService::new(
                    crn.clone(),
                    ShardedPool::from_pool(&pool, shards),
                    WorkerPool::shared(2),
                )
                .with_config(config)
                .with_fallback(Box::new(PostgresEstimator::analyze(&db)));
                let served = service.serve(&queries);
                let lists = service.serve_entry_lists(&queries);
                if top_k > 0 {
                    assert!(lists.per_query.iter().all(|list| list.len() <= top_k));
                    assert_eq!(lists.stats.work_items, queries.len());
                }
                let mut stats = ServeStats::default();
                let folded = fold_entry_lists(
                    &config,
                    Some(&PostgresEstimator::analyze(&db)),
                    &lists.per_query,
                    &queries,
                    &mut stats,
                );
                let case = format!("shards={shards} ε={epsilon} top_k={top_k}");
                assert_eq!(served.estimates, folded, "{case}");
                assert_eq!(stats.pool_hits, served.stats.pool_hits);
                // Every `x / y · |anchor|` of a sigmoid model over finite cardinalities is
                // finite, so each pairing that passed ε is exactly one per-entry estimate.
                let entries: usize = lists.per_query.iter().map(Vec::len).sum();
                assert_eq!(lists.stats.anchors_kept, entries, "{case}");
                assert_eq!(served.stats.anchors_kept, entries);
                if epsilon == screening {
                    let scored = served.stats.anchors_scored;
                    assert!(
                        0 < entries && entries < scored,
                        "{case}: kept {entries} of {scored}"
                    );
                }
                // The core counts what it ran through the model: whole buckets, or ≤ k each.
                let buckets: usize = queries.iter().map(|q| pool.matching(q).count()).sum();
                if top_k == 0 {
                    assert_eq!(served.stats.anchors_scored, buckets);
                    full_scan = served.estimates;
                } else {
                    assert!(served.stats.anchors_scored <= top_k * queries.len());
                    assert!(served.stats.anchors_scored < buckets);
                    top_k_changes_an_estimate |= served.estimates != full_scan;
                }
            }
        }
        assert!(
            top_k_changes_an_estimate,
            "fixture must have buckets larger than k"
        );
    }

    /// Pool maintenance between `serve` calls: new snapshots (and shard versions) are
    /// picked up, stale per-shard anchor caches are invalidated, and in-flight semantics
    /// stay exactly the sequential ones.
    #[test]
    fn maintenance_between_serves_invalidates_per_shard_caches() {
        let db = generate_imdb(&ImdbConfig::tiny(86));
        let pool = QueriesPool::generate(&db, 50, 1, 86);
        let crn = trained_crn(&db, 86);
        let queries = workload(&db, 87, 15);
        let service = EstimatorService::new(
            crn.clone(),
            ShardedPool::from_pool(&pool, 4),
            WorkerPool::shared(2),
        );
        // Warm the caches.
        let first = service.serve(&queries);
        assert_eq!(first.estimates.len(), queries.len());

        // Mutate: drop every anchor of the first query's FROM clause, add one back.
        let victim = &queries[0];
        let victims: Vec<Query> = pool
            .matching(victim)
            .map(|entry| entry.query.clone())
            .collect();
        assert!(!victims.is_empty(), "fixture covers the victim query");
        let mut updated = pool.clone();
        for query in &victims {
            assert!(service.pool().remove(query).is_some());
            updated.remove(query);
        }
        assert!(service.pool().insert(victims[0].clone(), 123));
        updated.insert(victims[0].clone(), 123);

        // The next serve must agree bit-for-bit with the sequential path over the updated
        // pool — a stale anchor cache (pre-removal encodings) would break this.
        let sequential = Cnt2Crd::new(crn, updated);
        let second = service.serve(&queries);
        for (index, (actual, query)) in second.estimates.iter().zip(&queries).enumerate() {
            let expected = crn_estimators::CardinalityEstimator::estimate(&sequential, query);
            assert!(
                *actual == expected,
                "query {index} after maintenance: service {actual} vs sequential {expected}"
            );
        }
    }

    /// Stats bookkeeping: groups, work items, hits and fallbacks add up, and the fallback
    /// estimator is consulted exactly when no pool entry matches.
    #[test]
    fn serve_stats_and_fallbacks_add_up() {
        let db = generate_imdb(&ImdbConfig::tiny(88));
        let crn = trained_crn(&db, 88);
        // A pool covering only `title` scans.
        let mut pool = QueriesPool::new();
        pool.insert(Query::scan(tables::TITLE), 100);
        let service =
            EstimatorService::new(crn, ShardedPool::from_pool(&pool, 4), WorkerPool::shared(2))
                .with_fallback(Box::new(PostgresEstimator::analyze(&db)));
        assert!(service.name().starts_with("EstimatorService("));
        let queries = vec![
            Query::scan(tables::TITLE),
            Query::scan(tables::TITLE),
            Query::scan(tables::MOVIE_COMPANIES),
        ];
        let response = service.serve(&queries);
        let stats = &response.stats;
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.groups, 2, "two distinct FROM clauses");
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.pool_entries, 1);
        assert_eq!(stats.work_items, 1, "only the covered group hits a shard");
        assert_eq!(
            stats.anchors_scored, 2,
            "one anchor × the two `title` scans"
        );
        assert_eq!(stats.pool_hits + stats.fallbacks, 3);
        assert!(stats.fallbacks >= 1, "the uncovered FROM clause falls back");
        let expected_fallback = PostgresEstimator::analyze(&db).estimate(&queries[2]);
        assert_eq!(response.estimates[2], expected_fallback);
        assert!(stats.total_time >= stats.compute_time);
        // Single-query convenience agrees with the batch path.
        assert_eq!(service.estimate_one(&queries[0]), response.estimates[0]);
        // An empty slice is a no-op.
        let empty = service.serve(&[]);
        assert!(empty.estimates.is_empty());
        assert_eq!(empty.stats.work_items, 0);
    }

    /// The empty-pool fallback path: every query falls back (to the configured default
    /// estimate without a fallback estimator), no work items are planned, and the timings
    /// stay monotone (every phase fits inside the total).
    #[test]
    fn serve_stats_on_an_empty_pool_are_all_fallbacks() {
        let db = generate_imdb(&ImdbConfig::tiny(95));
        let crn = trained_crn(&db, 95);
        // `workload` expands each initial query with perturbed variants, so count what it
        // actually produced.
        let queries = workload(&db, 96, 9);
        let total = queries.len();
        let service = EstimatorService::new(crn, ShardedPool::new(4), WorkerPool::shared(2));
        let response = service.serve(&queries);
        let stats = &response.stats;
        assert_eq!(stats.queries, total);
        assert_eq!(stats.pool_entries, 0);
        assert_eq!(stats.work_items, 0, "an empty pool plans no work");
        assert_eq!(stats.pool_hits, 0);
        assert_eq!(stats.fallbacks, total, "every query falls back");
        let default = service.config().default_estimate;
        assert!(response.estimates.iter().all(|&e| e == default));
        assert!(
            stats.total_time >= stats.phase_time(),
            "phases are disjoint sub-intervals of the total"
        );
    }

    /// The no-matching-anchors fallback path: a pool that covers *other* FROM clauses
    /// plans no work for the uncovered group, and the configured fallback estimator (not
    /// the default) answers.
    #[test]
    fn serve_stats_when_no_anchor_matches_use_the_fallback_estimator() {
        let db = generate_imdb(&ImdbConfig::tiny(97));
        let crn = trained_crn(&db, 97);
        let mut pool = QueriesPool::new();
        pool.insert(Query::scan(tables::TITLE), 100);
        pool.insert(Query::scan(tables::CAST_INFO), 60);
        let service =
            EstimatorService::new(crn, ShardedPool::from_pool(&pool, 4), WorkerPool::shared(2))
                .with_fallback(Box::new(PostgresEstimator::analyze(&db)));
        // Neither query's FROM clause is covered by the pool.
        let queries = vec![
            Query::scan(tables::MOVIE_COMPANIES),
            Query::scan(tables::MOVIE_INFO),
        ];
        let response = service.serve(&queries);
        let stats = &response.stats;
        assert_eq!(stats.pool_entries, 2);
        assert_eq!(stats.work_items, 0, "no shard matches either FROM clause");
        assert_eq!(stats.pool_hits, 0);
        assert_eq!(stats.fallbacks, 2);
        let fallback = PostgresEstimator::analyze(&db);
        for (query, estimate) in queries.iter().zip(&response.estimates) {
            assert_eq!(*estimate, fallback.estimate(query));
        }
        assert!(stats.total_time >= stats.phase_time());
    }

    /// The all-duplicates batch: one FROM-clause group, per-query results bit-identical,
    /// and hit/fallback counters that add up to the (duplicated) query count.  Also pins
    /// `accumulate`: counters add and timings stay monotone across folds.
    #[test]
    fn serve_stats_on_all_duplicate_batches_and_accumulate_are_monotone() {
        let db = generate_imdb(&ImdbConfig::tiny(98));
        let pool = QueriesPool::generate(&db, 40, 1, 98);
        let crn = trained_crn(&db, 98);
        let service =
            EstimatorService::new(crn, ShardedPool::from_pool(&pool, 4), WorkerPool::shared(2));
        let covered = pool.entries()[0].query.clone();
        let queries: Vec<Query> = std::iter::repeat_with(|| covered.clone()).take(8).collect();
        let response = service.serve(&queries);
        let stats = &response.stats;
        assert_eq!(stats.queries, 8);
        assert_eq!(stats.groups, 1, "duplicates collapse into one group");
        assert_eq!(stats.pool_hits + stats.fallbacks, 8);
        assert_eq!(stats.pool_hits, 8, "the pool covers its own entry");
        assert!(response
            .estimates
            .iter()
            .all(|&e| e == response.estimates[0]));
        assert!(stats.total_time >= stats.phase_time());

        // Accumulation is monotone: every counter and timing of the running total is
        // >= its value after the previous fold.
        let mut total = ServeStats::default();
        let mut last_queries = 0usize;
        let mut last_total_time = Duration::ZERO;
        for _ in 0..3 {
            let stats = service.serve(&queries).stats;
            total.accumulate(&stats);
            assert!(total.queries > last_queries);
            assert!(total.total_time >= last_total_time);
            assert!(total.total_time >= total.phase_time());
            last_queries = total.queries;
            last_total_time = total.total_time;
        }
        assert_eq!(total.queries, 24);
        assert_eq!(total.pool_hits + total.fallbacks, 24);
        assert_eq!(
            total.shards, 4,
            "accumulate keeps the latest snapshot shape"
        );
        assert_eq!(total.pool_entries, pool.len());
    }

    /// Concurrent `serve` callers share the worker pool and the caches without interfering:
    /// every caller gets the bit-exact sequential answer.
    #[test]
    fn concurrent_serve_calls_agree_with_sequential() {
        let db = generate_imdb(&ImdbConfig::tiny(89));
        let pool = QueriesPool::generate(&db, 50, 1, 89);
        let crn = trained_crn(&db, 89);
        let queries = workload(&db, 90, 12);
        let sequential = Cnt2Crd::new(crn.clone(), pool.clone());
        let expected: Vec<f64> = queries
            .iter()
            .map(|q| crn_estimators::CardinalityEstimator::estimate(&sequential, q))
            .collect();
        let service =
            EstimatorService::new(crn, ShardedPool::from_pool(&pool, 4), WorkerPool::shared(3));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let response = service.serve(&queries);
                        assert_eq!(response.estimates, expected);
                    }
                });
            }
        });
    }

    /// The stale-cache-after-swap regression test: a model hot-swap must invalidate
    /// exactly the per-shard anchor caches the old model encoded.  With the cache keyed
    /// on the pool shard version only, the post-swap serve would push old-model anchor
    /// encodings through the new model's containment head and silently drift from the
    /// sequential path.
    #[test]
    fn hot_swap_invalidates_anchor_caches_exactly() {
        let db = generate_imdb(&ImdbConfig::tiny(99));
        let pool = QueriesPool::generate(&db, 50, 1, 99);
        let queries = workload(&db, 100, 15);
        let model_a = trained_crn(&db, 99);
        let model_b = trained_crn(&db, 101);
        let expected = |model: &CrnModel| -> Vec<f64> {
            let sequential = Cnt2Crd::new(model.clone(), pool.clone());
            queries
                .iter()
                .map(|q| crn_estimators::CardinalityEstimator::estimate(&sequential, q))
                .collect()
        };
        let expected_a = expected(&model_a);
        let expected_b = expected(&model_b);
        assert_ne!(expected_a, expected_b, "fixture models must disagree");

        let service = EstimatorService::new(
            model_a.clone(),
            ShardedPool::from_pool(&pool, 4),
            WorkerPool::shared(2),
        );
        assert_eq!(service.model_version(), 1);
        // Warm every per-shard anchor cache under model A.
        let first = service.serve(&queries);
        assert_eq!(first.estimates, expected_a);
        assert_eq!(first.stats.model_version, 1);

        // Hot-swap to B: the warmed caches are for A's encodings and must not be served.
        let version_b = service.swap_model(model_b.clone());
        assert_eq!(version_b, 2);
        assert_eq!(service.model_version(), 2);
        let second = service.serve(&queries);
        assert_eq!(
            second.estimates, expected_b,
            "post-swap serving must be bit-identical to sequential serving under the new model"
        );
        assert_eq!(second.stats.model_version, version_b);

        // Swap back to A: again no stale reuse (now of B's cached encodings), and the
        // version keeps moving forward.
        let version_a_again = service.swap_model(model_a.clone());
        assert_eq!(version_a_again, 3);
        let third = service.serve(&queries);
        assert_eq!(third.estimates, expected_a);
        assert_eq!(third.stats.model_version, version_a_again);

        // Pool maintenance composes with model versioning: an upsert bumps the touched
        // shard's pool version and the next serve agrees bit-for-bit with the sequential
        // path over the updated pool under the current model.
        let victim = pool.entries()[0].clone();
        service
            .pool()
            .upsert(victim.query.clone(), victim.cardinality + 17);
        let mut updated = pool.clone();
        updated.upsert(victim.query, victim.cardinality + 17);
        let sequential = Cnt2Crd::new(model_a, updated);
        let fourth = service.serve(&queries);
        assert_eq!(fourth.stats.model_version, version_a_again);
        for (index, (actual, query)) in fourth.estimates.iter().zip(&queries).enumerate() {
            let expected = crn_estimators::CardinalityEstimator::estimate(&sequential, query);
            assert!(
                *actual == expected,
                "query {index} after upsert+swap: service {actual} vs sequential {expected}"
            );
        }
    }
}

#[cfg(test)]
mod swap_proptests {
    //! Swap atomicity under concurrent serve + refresh: every served batch's estimates
    //! must match **exactly one** model snapshot (old or new) — never a blend — at
    //! shards {1, 4} × workers {1, 4}.  The reported `ServeStats::model_version` must
    //! name that snapshot.

    use super::*;
    use crate::cnt2crd::Cnt2Crd;
    use crate::model::CrnModel;
    use crate::pool::QueriesPool;
    use crn_db::imdb::{generate_imdb, ImdbConfig};
    use crn_db::Database;
    use crn_exec::label_containment_pairs;
    use crn_nn::TrainConfig;
    use crn_query::generator::{GeneratorConfig, QueryGenerator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    /// Everything the (expensive) fixture provides: two differently-trained models, a
    /// pool, a workload, and the per-model sequential expectations.
    struct SwapFixture {
        model_a: CrnModel,
        model_b: CrnModel,
        pool: QueriesPool,
        queries: Vec<Query>,
        expected_a: Vec<f64>,
        expected_b: Vec<f64>,
    }

    fn trained(db: &Database, seed: u64) -> CrnModel {
        let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
        let pairs = gen.generate_pairs(30, 100);
        let samples = label_containment_pairs(db, &pairs, 4);
        let mut crn = CrnModel::new(db, TrainConfig::fast_test());
        crn.fit(&samples);
        crn
    }

    fn fixture() -> &'static SwapFixture {
        static FIXTURE: OnceLock<SwapFixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let db = generate_imdb(&ImdbConfig::tiny(110));
            let pool = QueriesPool::generate(&db, 50, 1, 110);
            let mut gen = QueryGenerator::new(&db, GeneratorConfig::paper(111));
            let queries = gen.generate_queries(18);
            let model_a = trained(&db, 110);
            let model_b = trained(&db, 112);
            let expected = |model: &CrnModel| -> Vec<f64> {
                let sequential = Cnt2Crd::new(model.clone(), pool.clone());
                queries
                    .iter()
                    .map(|q| crn_estimators::CardinalityEstimator::estimate(&sequential, q))
                    .collect()
            };
            let expected_a = expected(&model_a);
            let expected_b = expected(&model_b);
            assert_ne!(expected_a, expected_b, "fixture models must disagree");
            SwapFixture {
                model_a,
                model_b,
                pool,
                queries,
                expected_a,
                expected_b,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random swap cadences against a continuously serving thread: every response is
        /// bit-identical to the sequential computation under the single snapshot its
        /// `model_version` names.
        #[test]
        fn concurrent_serve_and_refresh_never_blend_snapshots(seed in 0u64..10_000) {
            let fx = fixture();
            let mut rng = StdRng::seed_from_u64(seed);
            for shards in [1usize, 4] {
                for threads in [1usize, 4] {
                    let service = EstimatorService::new(
                        fx.model_a.clone(),
                        ShardedPool::from_pool(&fx.pool, shards),
                        WorkerPool::shared(threads),
                    );
                    // version -> the expected estimates of the model it serves.
                    let mut by_version: BTreeMap<u64, &Vec<f64>> = BTreeMap::new();
                    by_version.insert(1, &fx.expected_a);
                    let swaps = rng.gen_range(1usize..4);
                    let swap_pauses: Vec<u64> =
                        (0..swaps).map(|_| rng.gen_range(0u64..400)).collect();
                    let serves = rng.gen_range(3usize..7);
                    let responses = std::thread::scope(|scope| {
                        let server = {
                            let service = &service;
                            let queries = &fx.queries;
                            scope.spawn(move || {
                                (0..serves)
                                    .map(|_| {
                                        let response = service.serve(queries);
                                        (response.stats.model_version, response.estimates)
                                    })
                                    .collect::<Vec<_>>()
                            })
                        };
                        // The swapper: alternate B/A swaps with random pauses under live
                        // traffic.
                        for (index, pause) in swap_pauses.iter().enumerate() {
                            std::thread::sleep(std::time::Duration::from_micros(*pause));
                            let (model, expected) = if index % 2 == 0 {
                                (fx.model_b.clone(), &fx.expected_b)
                            } else {
                                (fx.model_a.clone(), &fx.expected_a)
                            };
                            let version = service.swap_model(model);
                            by_version.insert(version, expected);
                        }
                        server.join().expect("serving thread")
                    });
                    for (index, (version, estimates)) in responses.iter().enumerate() {
                        let expected = by_version.get(version).unwrap_or_else(|| {
                            panic!("serve {index} reported unknown model version {version}")
                        });
                        prop_assert!(
                            estimates == *expected,
                            "shards={shards} threads={threads} serve {index}: a batch \
                             must match exactly the snapshot its version names (v{version})"
                        );
                    }
                }
            }
        }
    }
}
