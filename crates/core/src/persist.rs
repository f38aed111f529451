//! Model persistence: serialize trained models and queries pools to disk.
//!
//! The paper reports that the serialized CRN model is roughly 1.5 MB (§3.5.3) and envisions
//! the queries pool as durable DBMS meta information (§5.2).  This module provides the
//! corresponding save/load functionality using a self-describing JSON encoding, chosen for
//! readability over compactness.  It is not small: a model serializes every parameter's
//! value, gradient and both Adam moments (so three of every four floats are training
//! state), each as a decimal, and at H = 128 that measured 9.9 MB of JSON.  Checkpoints
//! keep the full training state because a restored lineage resumes training from it; the
//! cluster wire ships models in its own binary encoding instead (`crn-cluster`'s `wire`).

use crate::model::CrnModel;
use crate::pool::QueriesPool;
use crate::sharded::ShardedPool;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// Errors produced while persisting or loading models.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// (De)serialization failure.
    Serde(serde_json::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Serde(e) => write!(f, "serialization error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Serde(e)
    }
}

fn save_json<T: Serialize>(value: &T, path: &Path) -> Result<(), PersistError> {
    let file = File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), value)?;
    Ok(())
}

fn load_json<T: DeserializeOwned>(path: &Path) -> Result<T, PersistError> {
    let file = File::open(path)?;
    Ok(serde_json::from_reader(BufReader::new(file))?)
}

impl CrnModel {
    /// Serializes the trained model (weights, featurizer, configuration) to a JSON file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        save_json(self, path.as_ref())
    }

    /// Loads a model previously written by [`CrnModel::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        load_json(path.as_ref())
    }
}

impl QueriesPool {
    /// Serializes the queries pool to a JSON file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        save_json(self, path.as_ref())
    }

    /// Loads a queries pool previously written by [`QueriesPool::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let mut pool: QueriesPool = load_json(path.as_ref())?;
        // The duplicate-detection hash index is never persisted (hash algorithm stability
        // across toolchains is not guaranteed); rebuild it for the running binary.
        pool.rebuild_hash_index();
        Ok(pool)
    }
}

impl ShardedPool {
    /// Serializes the pool to a JSON file by flattening the current snapshot into the
    /// single-shard format — the durable form is shard-count-agnostic, so a pool saved at
    /// one shard count loads at any other (sharding is a runtime serving decision, not a
    /// storage property).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        self.to_pool().save(path)
    }

    /// Loads a pool previously written by [`ShardedPool::save`] (or [`QueriesPool::save`] —
    /// the formats are identical) and re-routes its entries over `num_shards` shards.
    pub fn load(path: impl AsRef<Path>, num_shards: usize) -> Result<Self, PersistError> {
        Ok(ShardedPool::from_pool(
            &QueriesPool::load(path)?,
            num_shards,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_db::imdb::{generate_imdb, ImdbConfig};
    use crn_nn::TrainConfig;
    use crn_query::Query;

    #[test]
    fn crn_model_round_trips_through_disk() {
        let db = generate_imdb(&ImdbConfig::tiny(71));
        let model = CrnModel::new(&db, TrainConfig::fast_test());
        let dir = std::env::temp_dir().join("crn_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).expect("save succeeds");
        let loaded = CrnModel::load(&path).expect("load succeeds");
        // Identical parameters mean identical predictions.
        let q1 = Query::scan("title");
        let q2 = Query::scan("title");
        assert_eq!(model.predict(&q1, &q2), loaded.predict(&q1, &q2));
        assert_eq!(model.num_params(), loaded.num_params());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn queries_pool_round_trips_through_disk() {
        let db = generate_imdb(&ImdbConfig::tiny(72));
        let pool = QueriesPool::generate(&db, 20, 1, 72);
        let dir = std::env::temp_dir().join("crn_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.json");
        pool.save(&path).expect("save succeeds");
        let loaded = QueriesPool::load(&path).expect("load succeeds");
        assert_eq!(pool.len(), loaded.len());
        assert_eq!(pool.entries(), loaded.entries());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_pool_round_trips_across_shard_counts() {
        let db = generate_imdb(&ImdbConfig::tiny(73));
        let pool = QueriesPool::generate(&db, 30, 1, 73);
        let sharded = ShardedPool::from_pool(&pool, 4);
        let dir = std::env::temp_dir().join("crn_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sharded_pool.json");
        sharded.save(&path).expect("save succeeds");
        // The durable form is shard-count-agnostic: load at a different count.
        let reloaded = ShardedPool::load(&path, 2).expect("load succeeds");
        std::fs::remove_file(&path).ok();
        assert_eq!(reloaded.num_shards(), 2);
        assert_eq!(reloaded.len(), pool.len());
        // Same entry set, and the classic loader reads the same file.
        let mut original: Vec<String> = pool.entries().iter().map(|e| format!("{e:?}")).collect();
        let mut roundtrip: Vec<String> = reloaded
            .to_pool()
            .entries()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        original.sort();
        roundtrip.sort();
        assert_eq!(original, roundtrip);
    }

    #[test]
    fn loading_a_missing_file_reports_io_error() {
        let err = CrnModel::load("/nonexistent/path/model.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
        assert!(err.to_string().contains("i/o error"));
    }
}
