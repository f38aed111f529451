//! `containment-repro` — umbrella crate of the reproduction of
//! *"Improved Cardinality Estimation by Learning Queries Containment Rates"* (EDBT 2020).
//!
//! This crate re-exports the workspace's public API so that examples, integration tests and
//! downstream users can depend on a single crate:
//!
//! * [`db`] — synthetic IMDb-like database substrate ([`crn_db`]);
//! * [`query`] — query AST, SQL parsing and workload generators ([`crn_query`]);
//! * [`exec`] — exact execution: cardinalities and containment rates ([`crn_exec`]);
//! * [`nn`] — the minimal neural-network stack ([`crn_nn`]);
//! * [`estimators`] — PostgreSQL-style and MSCN baselines ([`crn_estimators`]);
//! * [`core`] — the CRN model, the `Crd2Cnt`/`Cnt2Crd` transformations, the queries pool and
//!   the improved-estimator wrapper ([`crn_core`]);
//! * [`serve`] — the async request-queue serving runtime: admission control, cross-call
//!   batching windows and the pool-maintenance lane that feeds executed queries' true
//!   cardinalities back into the pool ([`crn_serve`]);
//! * [`eval`] — workloads, metrics and the per-table/figure experiment harness ([`crn_eval`]).
//!
//! # Quick start
//!
//! ```
//! use containment_repro::prelude::*;
//!
//! // 1. A database snapshot (synthetic stand-in for IMDb).
//! let db = generate_imdb(&ImdbConfig::tiny(7));
//!
//! // 2. Ground truth comes from actually executing queries.
//! let executor = Executor::new(&db);
//! let q = Query::scan("title");
//! assert_eq!(executor.containment_rate(&q, &q), Some(1.0));
//!
//! // 3. The full estimation pipeline (untrained here, see examples/ for training).
//! let pool = QueriesPool::generate(&db, 20, 1, 7);
//! let estimator = Cnt2Crd::new(Crd2Cnt::new(PostgresEstimator::analyze(&db)), pool);
//! assert!(estimator.estimate(&q) >= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use crn_core as core;
pub use crn_db as db;
pub use crn_estimators as estimators;
pub use crn_eval as eval;
pub use crn_exec as exec;
pub use crn_nn as nn;
pub use crn_query as query;
pub use crn_serve as serve;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use crn_core::{
        Cnt2Crd, Cnt2CrdConfig, Crd2Cnt, CrnFeaturizer, CrnModel, CrnOptions, FinalFunction,
        ImprovedEstimator, QueriesPool,
    };
    pub use crn_db::imdb::{generate_imdb, imdb_schema, ImdbConfig};
    pub use crn_db::{ColumnRef, CompareOp, Database, Schema, Value};
    pub use crn_estimators::{
        CardinalityEstimator, ContainmentEstimator, MscnModel, PostgresEstimator, TrueCardinality,
    };
    pub use crn_eval::{ExperimentConfig, ExperimentContext, QErrorSummary, WorkloadSizes};
    pub use crn_exec::{
        label_cardinalities, label_containment_pairs, CardinalitySample, ContainmentSample,
        Executor, TableSamples,
    };
    pub use crn_nn::{q_error, LossKind, TrainConfig};
    pub use crn_query::generator::{
        GeneratorConfig, QueryGenerator, ScaleGenerator, ScaleGeneratorConfig,
    };
    pub use crn_query::{parse_query, JoinClause, Predicate, Query};
    pub use crn_serve::{RuntimeConfig, ServeRuntime, SubmitError, Ticket};
}
