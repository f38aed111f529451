//! The pluggable compute backend the serving runtime schedules onto.
//!
//! PR 3–9 hard-wired [`ServeRuntime`](crate::ServeRuntime) to the in-process
//! [`EstimatorService`].  Distributed serving needs the same scheduler — admission,
//! batching windows, SLO classes, estimate cache, deadline shedding, supervision — over
//! a *cluster client* that scatters the batch to shard-owning worker processes instead
//! of the local worker pool.  [`ComputeBackend`] is that seam: the exact set of
//! operations the runtime's scheduler and maintenance lanes perform against their
//! service, with the in-process service as the canonical implementation.
//!
//! The contract every backend must keep:
//!
//! * [`serve`](ComputeBackend::serve) returns one estimate per input query, in input
//!   order, **bit-identical** to the sequential single-process path for every
//!   non-degraded slot (`ServeResponse::degraded` names the slots that are not).
//! * [`serve`](ComputeBackend::serve) never hangs indefinitely: a distributed backend
//!   bounds its waits (timeouts → degraded slots), so the scheduler thread can always
//!   make progress.
//! * [`fallback_estimate`](ComputeBackend::fallback_estimate) avoids the machinery
//!   `serve` runs on — it is what answers tickets *after* that machinery failed.

use crn_core::{EstimatorService, ServeResponse};
use crn_estimators::ContainmentEstimator;
use crn_query::ast::Query;

/// What the serving runtime requires of its compute tier.  Implemented by the
/// in-process [`EstimatorService`] (the canonical, bit-parity-pinned backend) and by
/// `crn-cluster`'s coordinator-side client (scatter/gather over worker processes).
pub trait ComputeBackend: Send + Sync + 'static {
    /// Serves a slice of concurrent queries: one estimate per query, in input order.
    /// Slots listed in [`ServeResponse::degraded`] were answered by a reduced-fidelity
    /// path (the runtime tags their tickets `Degraded` and keeps them out of the
    /// estimate cache); all other slots are bit-identical to sequential serving.
    fn serve(&self, queries: &[Query]) -> ServeResponse;

    /// The degraded answer for one query, off the main compute path (see
    /// [`EstimatorService::fallback_estimate`]).
    fn fallback_estimate(&self, query: &Query) -> f64;

    /// The `(pool version, model version)` pairing a `serve` issued right now would
    /// compute under.  The estimate cache's probe compares it with the latest
    /// response's `(ServeResponse::pool_version, ServeStats::model_version)`: equal means
    /// that response's snapshot is still current, so the probe may key each query by
    /// its FROM-bucket version there.  It is no longer the cache key itself.
    fn serving_versions(&self) -> (u64, u64);

    /// Applies one observed `(query, true cardinality)` feedback record to the backing
    /// pool (the §5.2 refresh loop).  Called from the maintenance lane only.
    fn apply_feedback(&self, query: &Query, cardinality: u64);

    /// Folds a served estimate's q-error into the query's pool anchor retention weight;
    /// returns whether an anchor was updated.  Backends without retention tracking
    /// return `false`.
    fn record_retention(&self, query: &Query, q_error: f64) -> bool;

    /// Anchors the backing pool evicted so far (0 for unbounded or remote pools).
    fn pool_evictions(&self) -> u64;

    /// Compacts the backing pool (structural dedup, keeping the highest-retention
    /// anchor per shape); returns the number of entries merged away.  Backends that
    /// cannot compact in place return 0.
    fn compact(&self) -> usize;

    /// Human-readable backend name (for `Debug` and reports).
    fn name(&self) -> &str;
}

impl<M: ContainmentEstimator + Send + Sync + 'static> ComputeBackend for EstimatorService<M> {
    fn serve(&self, queries: &[Query]) -> ServeResponse {
        EstimatorService::serve(self, queries)
    }

    fn fallback_estimate(&self, query: &Query) -> f64 {
        EstimatorService::fallback_estimate(self, query)
    }

    fn serving_versions(&self) -> (u64, u64) {
        EstimatorService::serving_versions(self)
    }

    fn apply_feedback(&self, query: &Query, cardinality: u64) {
        self.pool().upsert(query.clone(), cardinality);
    }

    fn record_retention(&self, query: &Query, q_error: f64) -> bool {
        self.pool().record_feedback(query, q_error)
    }

    fn pool_evictions(&self) -> u64 {
        self.pool().evictions()
    }

    fn compact(&self) -> usize {
        self.pool().compact()
    }

    fn name(&self) -> &str {
        EstimatorService::name(self)
    }
}
