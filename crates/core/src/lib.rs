//! `crn-core` — the paper's primary contribution: learned containment rates and the
//! containment-based cardinality estimation technique.
//!
//! * [`featurize`] — the shared-format vector featurization of query pairs (§3.2.1, Table 1);
//! * [`model`] — the CRN model: per-query set encoders, average pooling, the `Expand`
//!   combination and the containment head, trained on the q-error objective (§3.2–3.3);
//! * [`crd2cnt`] — `Crd2Cnt(M)`: any cardinality estimator as a containment estimator (§4.1);
//! * [`pool`] — [`QueriesPool`], the queries pool of previously executed queries with true
//!   cardinalities (§5.2), indexed by FROM clause; the one pool storage type;
//! * [`sharded`] — the sharded pool: N canonical-hash [`QueriesPool`] shards behind an
//!   immutable-snapshot API, the storage layer of the concurrent serving subsystem;
//! * [`cnt2crd`] — `Cnt2Crd(M)`: the queries-pool cardinality estimation technique with its
//!   Median/Mean/TrimmedMean final functions (§5.1, §5.3, Figure 8).  Its anchors → rates →
//!   per-entry-estimates loop exists once, as [`Cnt2CrdCore`] (one FROM group of queries ×
//!   one shard's matching — or top-K-ranked — anchors, planned by [`plan_work_items`]);
//!   `Cnt2Crd`, the service and the cluster tier all call it, and
//!   only the literal sequential loop (`per_entry_estimates_sequential`) stands beside it as
//!   the oracle the parity tests compare against;
//! * [`service`] — the concurrent serving front-end: the core over one frozen (pool
//!   snapshot, model snapshot) pairing per batch, with per-layer stats;
//! * [`improved`] — `Improved(M) = Cnt2Crd(Crd2Cnt(M))`, the drop-in improvement of existing
//!   estimators (§7).
//!
//! # Quick start
//!
//! ```
//! use crn_core::{Cnt2Crd, Crd2Cnt, CrnModel, QueriesPool};
//! use crn_db::imdb::{generate_imdb, ImdbConfig};
//! use crn_estimators::{CardinalityEstimator, ContainmentEstimator, PostgresEstimator};
//! use crn_nn::TrainConfig;
//! use crn_query::Query;
//!
//! let db = generate_imdb(&ImdbConfig::tiny(1));
//!
//! // An (untrained) CRN model already exposes the containment-rate API.
//! let crn = CrnModel::new(&db, TrainConfig::fast_test());
//! let scan = Query::scan("title");
//! let rate = crn.estimate_containment(&scan, &scan);
//! assert!((0.0..=1.0).contains(&rate));
//!
//! // The full cardinality pipeline: containment model + queries pool.
//! let pool = QueriesPool::generate(&db, 30, 1, 7);
//! let estimator = Cnt2Crd::new(Crd2Cnt::new(PostgresEstimator::analyze(&db)), pool);
//! assert!(estimator.estimate(&scan) >= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cnt2crd;
pub mod crd2cnt;
pub mod featurize;
pub mod improved;
pub mod model;
pub mod pool;
pub mod service;
pub mod sharded;

pub use cnt2crd::{
    plan_work_items, AnchorCache, Cnt2Crd, Cnt2CrdConfig, Cnt2CrdCore, FinalFunction,
};
pub use crd2cnt::Crd2Cnt;
pub use featurize::CrnFeaturizer;
pub use improved::ImprovedEstimator;
pub use model::{CrnModel, CrnOptions, ExpandMode, Pooling, RATE_FLOOR};
pub use pool::{
    anchor_score, feature_signature, from_key, query_hash, PoolEntry, QueriesPool,
    DEFAULT_RETENTION_WEIGHT,
};
pub use service::{
    fold_entry_lists, plan_groups, EntryLists, EstimatorService, ModelSnapshot, ServeResponse,
    ServeStats,
};
pub use sharded::{matching_top_k, PoolSnapshot, ShardedPool};
