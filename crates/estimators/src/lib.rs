//! `crn-estimators` — the baseline cardinality estimators the paper compares against.
//!
//! * [`traits`] — the [`CardinalityEstimator`] / [`ContainmentEstimator`] interfaces that the
//!   `Crd2Cnt` / `Cnt2Crd` transformations in `crn-core` are generic over;
//! * [`stats`] — `ANALYZE`-style database profiling (MCVs, equi-depth histograms, n_distinct);
//! * [`postgres`] — the PostgreSQL-style estimator built on those statistics (§4.1, §6);
//! * [`mscn`] — the MSCN multi-set convolutional network (Kipf et al.) and its
//!   sample-enhanced variant (§6.6), trained on the same data as CRN.
//!
//! # Example
//!
//! ```
//! use crn_db::imdb::{generate_imdb, ImdbConfig};
//! use crn_estimators::{CardinalityEstimator, PostgresEstimator};
//! use crn_query::Query;
//!
//! let db = generate_imdb(&ImdbConfig::tiny(1));
//! let estimator = PostgresEstimator::analyze(&db);
//! let estimate = estimator.estimate(&Query::scan("title"));
//! assert_eq!(estimate, db.table("title").unwrap().row_count() as f64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod mscn;
pub mod postgres;
pub mod stats;
pub mod traits;

pub use mscn::{MaterializedSamples, MscnFeaturizer, MscnModel};
pub use postgres::PostgresEstimator;
pub use stats::{ColumnStats, DatabaseStats, StatsConfig};
pub use traits::{passes_epsilon, CardinalityEstimator, ContainmentEstimator, TrueCardinality};
