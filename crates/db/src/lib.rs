//! `crn-db` — the database substrate of the containment-rate reproduction.
//!
//! This crate provides everything below the query layer:
//!
//! * [`value`] — scalar values, data types and predicate comparison operators;
//! * [`schema`] — tables, columns, foreign keys and the join graph, including the global
//!   table/column numbering that the paper's featurization (Table 1) relies on;
//! * [`column`](mod@column) / [`table`] / [`database`] — an in-memory columnar storage engine;
//! * [`dist`] — skewed random distributions (Zipf, geometric, categorical);
//! * [`imdb`] — a synthetic IMDb-like database over the JOB-light schema, with the skew and
//!   join-crossing correlations that make cardinality estimation hard (paper §1, §3.1.1).
//!
//! # Example
//!
//! ```
//! use crn_db::imdb::{generate_imdb, ImdbConfig};
//!
//! let db = generate_imdb(&ImdbConfig::tiny(42));
//! assert_eq!(db.schema().num_tables(), 6);
//! assert!(db.table("title").unwrap().row_count() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod column;
pub mod database;
pub mod dist;
pub mod imdb;
pub mod schema;
pub mod table;
pub mod value;

pub use column::Column;
pub use database::Database;
pub use imdb::{generate_imdb, imdb_schema, ImdbConfig};
pub use schema::{ColumnDef, ColumnRef, ForeignKey, Schema, TableDef};
pub use table::Table;
pub use value::{CompareOp, DataType, Value};
