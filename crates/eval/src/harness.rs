//! The experiment harness: one shared context holding the database, the trained models and the
//! queries pool, reused by every table/figure experiment.
//!
//! Building the context follows the paper's pipeline end to end:
//!
//! 1. generate the synthetic IMDb-like database (§3.1.1 substitute);
//! 2. generate training query pairs with 0–2 joins and label them by execution (§3.1.2);
//! 3. train the CRN model on the pairs (§3.2–3.3);
//! 4. derive the MSCN training set from the same pairs — for every pair, `Q1 ∩ Q2` and `Q1`
//!    with their actual cardinalities, deduplicated (§4.1.2) — and train MSCN on it;
//! 5. profile the database for the PostgreSQL baseline (§4.1.3);
//! 6. generate the queries pool, equally distributed over FROM clauses (§6.2).

use crn_core::{CrnModel, QueriesPool};
use crn_db::database::Database;
use crn_db::imdb::{generate_imdb, ImdbConfig};
use crn_estimators::{MscnModel, PostgresEstimator};
use crn_exec::{
    label_cardinalities, label_containment_pairs, CardinalitySample, ContainmentSample,
};
use crn_nn::{TrainConfig, TrainingHistory};
use crn_query::generator::{
    dedup_queries, GeneratorConfig, QueryGenerator, ScaleGenerator, ScaleGeneratorConfig,
};
use serde::{Deserialize, Serialize};

use crate::workloads::WorkloadSizes;

/// Configuration of a full experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Synthetic database parameters.
    pub db: ImdbConfig,
    /// Number of initial queries fed to the pair generator for the training corpus.
    pub training_initial_queries: usize,
    /// Number of labelled training pairs (the paper uses 100,000; scaled down by default).
    pub training_pairs: usize,
    /// Neural-network training configuration shared by CRN and MSCN.  Its `parallel` field
    /// selects the data-parallel epoch engine (`crn_nn::parallel`): worker threads and the
    /// deterministic shard/reduction mode; the `repro` binary exposes it as
    /// `--threads N [--deterministic]`, and the `THREADS` environment variable seeds the
    /// default.
    pub train: TrainConfig,
    /// Queries-pool size (the paper's default QP has 300 entries, §6.2).
    pub pool_size: usize,
    /// Maximum join count covered by the queries pool.
    pub pool_max_joins: usize,
    /// Workload sizes.
    pub workloads: WorkloadSizes,
    /// Worker threads for ground-truth labelling.
    pub threads: usize,
    /// Master seed (workloads and pools derive their own seeds from it).
    pub seed: u64,
}

impl ExperimentConfig {
    /// Minimal configuration for unit tests and smoke benches (runs in seconds).
    pub fn tiny() -> Self {
        ExperimentConfig {
            db: ImdbConfig::tiny(42),
            training_initial_queries: 40,
            training_pairs: 250,
            train: TrainConfig {
                hidden_size: 24,
                epochs: 12,
                batch_size: 64,
                patience: Some(4),
                ..TrainConfig::default()
            },
            pool_size: 60,
            pool_max_joins: 5,
            workloads: WorkloadSizes::tiny(),
            threads: 4,
            seed: 42,
        }
    }

    /// The default reproduction configuration (minutes on a laptop).
    pub fn small() -> Self {
        ExperimentConfig {
            db: ImdbConfig::small(42),
            training_initial_queries: 600,
            training_pairs: 8000,
            train: TrainConfig {
                hidden_size: 64,
                epochs: 60,
                batch_size: 128,
                patience: Some(10),
                ..TrainConfig::default()
            },
            pool_size: 300,
            pool_max_joins: 5,
            workloads: WorkloadSizes::small(),
            threads: 8,
            seed: 42,
        }
    }

    /// A configuration closer to the paper's scale (tens of minutes to hours).
    pub fn paper() -> Self {
        ExperimentConfig {
            db: ImdbConfig::medium(42),
            training_initial_queries: 4000,
            training_pairs: 40_000,
            train: TrainConfig {
                hidden_size: 256,
                epochs: 80,
                batch_size: 128,
                patience: Some(10),
                ..TrainConfig::default()
            },
            pool_size: 300,
            pool_max_joins: 5,
            workloads: WorkloadSizes::paper(),
            threads: 8,
            seed: 42,
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::small()
    }
}

/// Everything the experiments need, built once and shared.
pub struct ExperimentContext {
    /// The configuration used to build the context.
    pub config: ExperimentConfig,
    /// The database snapshot.
    pub db: Database,
    /// Labelled containment training pairs (0–2 joins).
    pub containment_training: Vec<ContainmentSample>,
    /// Labelled cardinality training samples derived per §4.1.2.
    pub cardinality_training: Vec<CardinalitySample>,
    /// The trained CRN model.
    pub crn: CrnModel,
    /// CRN training history (used by Figures 3 and 4).
    pub crn_history: TrainingHistory,
    /// The trained MSCN baseline.
    pub mscn: MscnModel,
    /// MSCN training history.
    pub mscn_history: TrainingHistory,
    /// The PostgreSQL-style baseline.
    pub postgres: PostgresEstimator,
    /// The queries pool.
    pub pool: QueriesPool,
}

impl ExperimentContext {
    /// Builds the full context: generates data, labels it and trains all models.
    pub fn build(config: ExperimentConfig) -> Self {
        let db = generate_imdb(&config.db);
        let containment_training = Self::build_containment_training(&db, &config);
        let cardinality_training = Self::derive_cardinality_training(&containment_training);

        let mut crn = CrnModel::new(&db, config.train.clone());
        let crn_history = crn.fit(&containment_training);

        let mut mscn = MscnModel::new(&db, config.train.clone());
        let mscn_history = mscn.fit(&cardinality_training);

        let postgres = PostgresEstimator::analyze(&db);
        let pool = QueriesPool::generate(
            &db,
            config.pool_size,
            config.pool_max_joins,
            config.seed.wrapping_add(500),
        );

        ExperimentContext {
            config,
            db,
            containment_training,
            cardinality_training,
            crn,
            crn_history,
            mscn,
            mscn_history,
            postgres,
            pool,
        }
    }

    /// Generates and labels the containment-rate training corpus (steps 1–3 of §3.1.2).
    pub fn build_containment_training(
        db: &Database,
        config: &ExperimentConfig,
    ) -> Vec<ContainmentSample> {
        let mut generator = QueryGenerator::new(db, GeneratorConfig::paper(config.seed));
        let pairs =
            generator.generate_pairs(config.training_initial_queries, config.training_pairs);
        label_containment_pairs(db, &pairs, config.threads)
    }

    /// Derives the MSCN training corpus from the containment pairs (§4.1.2): for every pair,
    /// the intersection query and `Q1`, each with its actual cardinality, without repetition.
    pub fn derive_cardinality_training(
        containment: &[ContainmentSample],
    ) -> Vec<CardinalitySample> {
        let mut queries = Vec::with_capacity(containment.len() * 2);
        let mut cards = std::collections::BTreeMap::new();
        for sample in containment {
            if let Some(intersection) = sample.q1.intersect(&sample.q2) {
                cards
                    .entry(intersection.clone())
                    .or_insert(sample.card_intersection);
                queries.push(intersection);
            }
            cards.entry(sample.q1.clone()).or_insert(sample.card_q1);
            queries.push(sample.q1.clone());
        }
        dedup_queries(queries)
            .into_iter()
            .map(|query| {
                let cardinality = cards[&query];
                CardinalitySample { query, cardinality }
            })
            .collect()
    }

    /// Trains the sample-enhanced MSCN variant (`MSCN1000`-style) on data produced by the
    /// *scale* generator — the paper deliberately "makes the test easier" for this variant by
    /// training it with the same generator as the scale workload (§6.6).
    pub fn train_sampled_mscn(
        &self,
        samples_per_table: usize,
        training_queries: usize,
    ) -> MscnModel {
        let mut generator = ScaleGenerator::new(
            &self.db,
            ScaleGeneratorConfig {
                seed: self.config.seed.wrapping_add(700),
                max_joins: 4,
                eq_bias: 0.5,
            },
        );
        let queries = dedup_queries(generator.generate(training_queries));
        let labelled = label_cardinalities(&self.db, &queries, self.config.threads);
        let mut model =
            MscnModel::with_samples(&self.db, samples_per_table, self.config.train.clone());
        model.fit(&labelled);
        model
    }

    /// Restricts the context's pool to `size` entries (used by the Table 14 sweep).
    pub fn pool_of_size(&self, size: usize) -> QueriesPool {
        self.pool.truncated(size)
    }
}

/// The tiny-preset context every unit test of this crate shares: one database generation and
/// one CRN and MSCN fit per test binary.
#[cfg(test)]
pub(crate) fn tiny_context() -> &'static ExperimentContext {
    static CONTEXT: std::sync::OnceLock<ExperimentContext> = std::sync::OnceLock::new();
    CONTEXT.get_or_init(|| ExperimentContext::build(ExperimentConfig::tiny()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_estimators::CardinalityEstimator;
    use crn_query::Query;

    #[test]
    fn tiny_context_builds_and_all_models_answer() {
        let ctx = tiny_context();
        assert!(!ctx.containment_training.is_empty());
        assert!(!ctx.cardinality_training.is_empty());
        assert!(!ctx.crn_history.is_empty());
        assert!(!ctx.mscn_history.is_empty());
        assert!(ctx.pool.len() > 10);

        let scan = Query::scan("title");
        assert!(ctx.postgres.estimate(&scan) >= 1.0);
        assert!(ctx.mscn.estimate(&scan) >= 1.0);
        let rate = ctx.crn.predict(&scan, &scan);
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn cardinality_training_is_deduplicated_and_consistent() {
        let containment = &tiny_context().containment_training;
        let derived = ExperimentContext::derive_cardinality_training(containment);
        // No duplicate queries.
        let mut seen = std::collections::BTreeSet::new();
        for s in &derived {
            assert!(
                seen.insert(s.query.clone()),
                "duplicate query in MSCN training set"
            );
        }
        // Labels match the containment samples they came from.
        for c in containment.iter().take(20) {
            let q1_entry = derived
                .iter()
                .find(|s| s.query == c.q1)
                .expect("Q1 present");
            assert_eq!(q1_entry.cardinality, c.card_q1);
        }
        // Roughly twice as many unique queries as pairs is an upper bound.
        assert!(derived.len() <= containment.len() * 2);
    }

    #[test]
    fn pool_of_size_truncates() {
        let ctx = tiny_context();
        let pool = ctx.pool_of_size(10);
        assert!(pool.len() <= 10);
    }
}
