//! The MSCN model: a multi-set convolutional network for cardinality estimation.
//!
//! Architecture (after Kipf et al., the baseline of paper §4.1/§6): one small MLP per set
//! (tables, joins, predicates) applied to every set element, average pooling per set, the
//! three pooled vectors concatenated and fed through a two-layer output MLP whose sigmoid
//! output is interpreted as a normalized log-cardinality.  Training minimizes the q-error of
//! the un-normalized cardinality, with Adam, mini-batches and early stopping — the same
//! training regime as the CRN model so that the comparison is fair (§4.1.2: "we train the
//! MSCN model with the same data that was used to train the CRN model").

use crate::mscn::featurize::{MscnFeatures, MscnFeaturizer};
use crate::traits::CardinalityEstimator;
use crn_db::database::Database;
use crn_exec::CardinalitySample;
use crn_nn::batch::{
    concat_columns, segment_pool, segment_pool_backward, split_columns, RaggedBatch, SegmentPool,
    SparseRows,
};
use crn_nn::gemm::PackedWeights;
use crn_nn::layers::{
    relu_backward_in_place, relu_in_place, sigmoid_backward, sigmoid_in_place, Dense,
};
use crn_nn::loss::loss_and_grad;
use crn_nn::matrix::Matrix;
use crn_nn::parallel::GradientSet;
use crn_nn::train::{self, TrainConfig, Trainable, TrainingHistory};
use crn_query::ast::Query;
use serde::{Deserialize, Serialize};
// The per-sample reference path and the tests.
#[cfg(test)]
use crn_nn::{
    layers::{relu, relu_backward, sigmoid},
    loss::mean_q_error,
    optim::Adam,
    train::{shuffled_batches, train_validation_split, EpochStats},
};
#[cfg(test)]
use rand::{rngs::StdRng, SeedableRng};

/// Cardinalities below this floor are clamped before the q-error is formed.
const CARD_FLOOR: f32 = 1.0;

/// The fixed [`GradientSet`] layout of the MSCN parameters: four tensors per set module
/// (`l1.w, l1.b, l2.w, l2.b`) for tables, joins and predicates, then the output MLP — the
/// same order [`MscnModel::params_vec_mut`] yields, so the optimizer pairs parameters and
/// merged gradients positionally.
mod grad_index {
    /// Tensors per set module.
    pub const PER_MODULE: usize = 4;
    /// Offset of the join module's tensors (the table module sits at 0, the predicate
    /// module at `2 * PER_MODULE`).
    pub const JOINS: usize = PER_MODULE;
    pub const OUT1_W: usize = 3 * PER_MODULE;
    pub const OUT1_B: usize = OUT1_W + 1;
    pub const OUT2_W: usize = OUT1_W + 2;
    pub const OUT2_B: usize = OUT1_W + 3;
}

/// A per-element two-layer MLP followed by average pooling — one per query set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SetModule {
    l1: Dense,
    l2: Dense,
}

/// Forward-pass cache of a set module over a ragged mini-batch (a single query is `B = 1`).
///
/// The element-level tensors are flattened over all queries of the batch and segmented by the
/// offsets of `input`; `pooled` has one row per query.  Empty sets (queries without joins or
/// predicates) are empty segments and pool to a zero row, exactly as the previous per-query
/// special case did.  Only post-activation tensors are kept (ReLU runs in place; its output
/// doubles as the backward mask).
struct BatchSetCache {
    input: RaggedBatch,
    a1: Matrix,
    a2: Matrix,
    pooled: Matrix,
}

impl SetModule {
    fn new(input_dim: usize, hidden: usize, seed: u64) -> Self {
        SetModule {
            l1: Dense::new(input_dim, hidden, seed),
            l2: Dense::new(hidden, hidden, seed.wrapping_add(1)),
        }
    }

    fn hidden(&self) -> usize {
        self.l2.output_dim()
    }

    fn forward_batch(&self, input: RaggedBatch) -> BatchSetCache {
        // One-hot set vectors feed the first layer through the batch's CSR non-zeros; the
        // second layer's post-ReLU input is dense enough that the blocked SIMD kernel wins.
        let mut a1 = self.l1.forward_ragged(&input);
        relu_in_place(&mut a1);
        let mut a2 = self.l2.forward(&a1);
        relu_in_place(&mut a2);
        let pooled = segment_pool(&a2, input.offsets(), SegmentPool::Mean);
        BatchSetCache {
            input,
            a1,
            a2,
            pooled,
        }
    }

    /// Inference-only batched forward: the pooled `B×H` representations, no cache.
    fn forward_batch_inference(&self, input: &RaggedBatch) -> Matrix {
        let mut a1 = self.l1.forward_ragged(input);
        relu_in_place(&mut a1);
        let mut a2 = self.l2.forward(&a1);
        relu_in_place(&mut a2);
        segment_pool(&a2, input.offsets(), SegmentPool::Mean)
    }

    /// Batched backward pass of the set module, into the module's four gradient buffers
    /// (`[l1.w, l1.b, l2.w, l2.b]`), leaving the module untouched — the per-shard form of
    /// the data-parallel engine.  `l2_transposed`: `l2`'s weights from
    /// [`PackedWeights::pack_transposed`], packed once per training step.
    fn backward_batch_into(
        l2_transposed: &PackedWeights,
        cache: &BatchSetCache,
        grad_pooled: &Matrix,
        grads: &mut [Matrix],
    ) {
        let [grad_w1, grad_b1, grad_w2, grad_b2] = grads else {
            panic!(
                "a set module has {} gradient tensors",
                grad_index::PER_MODULE
            );
        };
        if cache.input.num_rows() == 0 {
            // Every segment in the batch is empty — nothing flowed forward.
            return;
        }
        let mut grad_z2 =
            segment_pool_backward(cache.input.offsets(), grad_pooled, SegmentPool::Mean);
        relu_backward_in_place(&cache.a2, &mut grad_z2);
        let mut grad_z1 =
            Dense::backward_into(l2_transposed, &cache.a1, &grad_z2, grad_w2, grad_b2);
        relu_backward_in_place(&cache.a1, &mut grad_z1);
        // `l1` is an input layer over one-hot rows: CSR weight gradients, no dL/dx.
        Dense::accumulate_ragged_weights_only(&cache.input, &grad_z1, grad_w1, grad_b1);
    }

    fn num_params(&self) -> usize {
        self.l1.num_params() + self.l2.num_params()
    }
}

/// The trained MSCN cardinality estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MscnModel {
    name: String,
    featurizer: MscnFeaturizer,
    table_module: SetModule,
    join_module: SetModule,
    predicate_module: SetModule,
    out1: Dense,
    out2: Dense,
    /// `ln(max_cardinality + 1)` of the training set, used to (un)normalize predictions.
    log_max_cardinality: f32,
    /// Training configuration used to fit the model.
    config: TrainConfig,
}

/// Forward-pass cache for a ragged mini-batch of queries.
struct BatchForwardCache {
    tables: BatchSetCache,
    joins: BatchSetCache,
    predicates: BatchSetCache,
    concat: Matrix,
    a_out1: Matrix,
    sigmoid_out: Matrix,
}

impl MscnModel {
    /// Creates an untrained MSCN model for the given database.
    pub fn new(db: &Database, config: TrainConfig) -> Self {
        Self::with_featurizer(MscnFeaturizer::new(db), config, "MSCN")
    }

    /// Creates the sample-enhanced variant ("MSCN with N samples", §6.6).
    pub fn with_samples(db: &Database, sample_size: usize, config: TrainConfig) -> Self {
        let featurizer = MscnFeaturizer::with_samples(db, sample_size, config.seed);
        let name = format!("MSCN{sample_size}");
        Self::with_featurizer(featurizer, config, &name)
    }

    fn with_featurizer(featurizer: MscnFeaturizer, config: TrainConfig, name: &str) -> Self {
        let hidden = config.hidden_size;
        let seed = config.seed;
        MscnModel {
            name: name.to_string(),
            table_module: SetModule::new(featurizer.table_dim(), hidden, seed.wrapping_add(10)),
            join_module: SetModule::new(featurizer.join_dim(), hidden, seed.wrapping_add(20)),
            predicate_module: SetModule::new(
                featurizer.predicate_dim(),
                hidden,
                seed.wrapping_add(30),
            ),
            out1: Dense::new(3 * hidden, hidden, seed.wrapping_add(40)),
            out2: Dense::new(hidden, 1, seed.wrapping_add(50)),
            featurizer,
            log_max_cardinality: (1e6f32 + 1.0).ln(),
            config,
        }
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.table_module.num_params()
            + self.join_module.num_params()
            + self.predicate_module.num_params()
            + self.out1.num_params()
            + self.out2.num_params()
    }

    /// The training configuration the model was built with.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Batched forward pass: the table/join/predicate sets of a whole mini-batch run through
    /// their set modules as single GEMMs, and the output MLP consumes the `(B×3H)`
    /// concatenation of the pooled representations.
    fn forward_batch(
        &self,
        tables: RaggedBatch,
        joins: RaggedBatch,
        predicates: RaggedBatch,
    ) -> BatchForwardCache {
        let tables = self.table_module.forward_batch(tables);
        let joins = self.join_module.forward_batch(joins);
        let predicates = self.predicate_module.forward_batch(predicates);
        let concat = concat_columns(&[&tables.pooled, &joins.pooled, &predicates.pooled]);
        let mut a_out1 = self.out1.forward(&concat);
        relu_in_place(&mut a_out1);
        let mut sigmoid_out = self.out2.forward(&a_out1);
        sigmoid_in_place(&mut sigmoid_out);
        BatchForwardCache {
            tables,
            joins,
            predicates,
            concat,
            a_out1,
            sigmoid_out,
        }
    }

    /// Inference-only batched forward: the `B×1` sigmoid outputs, no cache retained.
    fn forward_batch_inference(
        &self,
        tables: &RaggedBatch,
        joins: &RaggedBatch,
        predicates: &RaggedBatch,
    ) -> Matrix {
        let tables = self.table_module.forward_batch_inference(tables);
        let joins = self.join_module.forward_batch_inference(joins);
        let predicates = self.predicate_module.forward_batch_inference(predicates);
        let concat = concat_columns(&[&tables, &joins, &predicates]);
        let mut a_out1 = self.out1.forward(&concat);
        relu_in_place(&mut a_out1);
        let mut sigmoid_out = self.out2.forward(&a_out1);
        sigmoid_in_place(&mut sigmoid_out);
        sigmoid_out
    }

    /// Backpropagates per-query `d loss / d sigmoid_out` (`B×1`) through the whole network
    /// and returns the parameter gradients.  Kept for the parity tests; training goes
    /// through [`MscnModel::backward_batch_into`] so shards can accumulate privately.
    #[cfg(test)]
    fn backward_batch(&self, cache: &BatchForwardCache, grad_sigmoid_out: &Matrix) -> GradientSet {
        let weights = self.backward_weights().into_iter();
        let panels: Vec<PackedWeights> = weights.map(PackedWeights::pack_transposed).collect();
        let mut grads = GradientSet::zeros(&self.gradient_shapes());
        self.backward_batch_into(&panels, cache, grad_sigmoid_out, &mut grads);
        grads
    }

    /// [`MscnModel::backward_batch`] into a caller-provided [`GradientSet`] (layout:
    /// [`grad_index`]), leaving the model untouched — every shard of a data-parallel
    /// mini-batch runs this against the same read-only model.  `panels`: the
    /// [`Trainable::backward_weights`] packed transposed, once per training step.
    fn backward_batch_into(
        &self,
        panels: &[PackedWeights],
        cache: &BatchForwardCache,
        grad_sigmoid_out: &Matrix,
        grads: &mut GradientSet,
    ) {
        use grad_index::*;
        let [tables_l2, joins_l2, predicates_l2, out1, out2] = panels else {
            panic!("MSCN's backward pass multiplies by five weight panels");
        };
        let grad_z_out2 = sigmoid_backward(&cache.sigmoid_out, grad_sigmoid_out);
        let (grad_w, grad_b) = grads.pair_mut(OUT2_W, OUT2_B);
        let mut grad_z_out1 =
            Dense::backward_into(out2, &cache.a_out1, &grad_z_out2, grad_w, grad_b);
        relu_backward_in_place(&cache.a_out1, &mut grad_z_out1);
        let (grad_w, grad_b) = grads.pair_mut(OUT1_W, OUT1_B);
        let grad_concat = Dense::backward_into(out1, &cache.concat, &grad_z_out1, grad_w, grad_b);

        let hidden = self.table_module.hidden();
        let mut split = split_columns(&grad_concat, &[hidden, hidden, hidden]).into_iter();
        let grad_tables = split.next().expect("three blocks");
        let grad_joins = split.next().expect("three blocks");
        let grad_predicates = split.next().expect("three blocks");
        let parts = grads.parts_mut();
        let (table_grads, rest) = parts.split_at_mut(JOINS);
        let (join_grads, rest) = rest.split_at_mut(PER_MODULE);
        let (predicate_grads, _) = rest.split_at_mut(PER_MODULE);
        SetModule::backward_batch_into(tables_l2, &cache.tables, &grad_tables, table_grads);
        SetModule::backward_batch_into(joins_l2, &cache.joins, &grad_joins, join_grads);
        SetModule::backward_batch_into(
            predicates_l2,
            &cache.predicates,
            &grad_predicates,
            predicate_grads,
        );
    }

    /// Converts the sigmoid output into a cardinality.
    fn unnormalize(&self, sigmoid_out: f32) -> f32 {
        (sigmoid_out * self.log_max_cardinality).exp() - 1.0
    }

    /// Derivative of [`MscnModel::unnormalize`] with respect to the sigmoid output.
    fn unnormalize_grad(&self, sigmoid_out: f32) -> f32 {
        self.log_max_cardinality * (sigmoid_out * self.log_max_cardinality).exp()
    }

    /// Packs the features of a subset of samples into the three per-set ragged batches.
    #[cfg(test)]
    fn pack_batch(
        features: &[MscnFeatures],
        indices: &[usize],
    ) -> (RaggedBatch, RaggedBatch, RaggedBatch) {
        (
            RaggedBatch::from_sets(indices.iter().map(|&i| &features[i].tables)),
            RaggedBatch::from_sets(indices.iter().map(|&i| &features[i].joins)),
            RaggedBatch::from_sets(indices.iter().map(|&i| &features[i].predicates)),
        )
    }

    /// Packs pre-converted CSR features (`[tables, joins, predicates]`) of a subset of
    /// samples into the three per-set ragged batches by non-zero concatenation (the training
    /// loop's zero-copy path).
    fn pack_sparse_batch(
        &self,
        features: &[[SparseRows; 3]],
        indices: &[usize],
    ) -> (RaggedBatch, RaggedBatch, RaggedBatch) {
        let featurizer = &self.featurizer;
        let dims = [
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.predicate_dim(),
        ];
        let [tables, joins, predicates] = [0, 1, 2].map(|set| {
            RaggedBatch::from_sparse_sets(dims[set], indices.iter().map(|&i| &features[i][set]))
        });
        (tables, joins, predicates)
    }

    /// Trains the model on labelled cardinality samples; returns the per-epoch history.
    ///
    /// This is the loop `CrnModel::fit` runs, [`train::fit`], so both models train the same
    /// way.  Each mini-batch runs through the ragged-batch engine (`crn_nn::batch`), sharded
    /// across the data-parallel pool of [`TrainConfig::parallel`] (`crn_nn::parallel`):
    /// every shard runs the batched forward/backward into its own gradient set, and one
    /// optimizer pass sums the sets in fixed order and applies the sum
    /// ([`Adam::step_sharded`](crn_nn::Adam::step_sharded)).  At `threads = 1` (the default)
    /// this is exactly the one-GEMM-per-batch path; gradients are in every mode
    /// mathematically identical to the per-sample reference loop (pinned to 1e-5 by the
    /// parity tests below), and in deterministic mode bit-identical across thread counts.
    /// The un-normalization scale is the training set's largest cardinality, fixed before
    /// the first epoch.
    pub fn fit(&mut self, samples: &[CardinalitySample]) -> TrainingHistory {
        let max_card = samples
            .iter()
            .map(|s| s.cardinality as f32)
            .fold(1.0f32, f32::max);
        self.log_max_cardinality = (max_card + 1.0).ln();
        train::fit(self, samples)
    }

    fn predict_features(&self, features: &MscnFeatures) -> f32 {
        let out = self.forward_batch_inference(
            &RaggedBatch::from_sets([&features.tables]),
            &RaggedBatch::from_sets([&features.joins]),
            &RaggedBatch::from_sets([&features.predicates]),
        );
        self.unnormalize(out.get(0, 0)).max(0.0)
    }

    /// Predicts the cardinality of a query.
    pub fn predict(&self, query: &Query) -> f64 {
        let features = self.featurizer.featurize(query);
        self.predict_features(&features) as f64
    }
}

impl CardinalityEstimator for MscnModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.predict(query).max(1.0)
    }
}

/// What the one training loop ([`crn_nn::train`]) needs of MSCN.
impl Trainable for MscnModel {
    type Sample = CardinalitySample;
    /// The table, join and predicate sets as CSR rows, converted once per run: mini-batches
    /// are assembled by concatenating per-sample non-zeros.
    type Features = [SparseRows; 3];

    const SHUFFLE_SEED_OFFSET: u64 = 1;
    const FLOOR: f32 = CARD_FLOOR;

    fn config(&self) -> &TrainConfig {
        &self.config
    }

    fn featurize(&self, sample: &CardinalitySample) -> [SparseRows; 3] {
        let dense = self.featurizer.featurize(&sample.query);
        [&dense.tables, &dense.joins, &dense.predicates].map(SparseRows::from_matrix)
    }

    fn target(sample: &CardinalitySample) -> f32 {
        sample.cardinality as f32
    }

    /// The per-shard step: forward, per-sample losses (through the un-normalization chain
    /// rule), backward into the shard's gradient set.
    fn train_shard(
        &self,
        panels: &[PackedWeights],
        features: &[Self::Features],
        targets: &[f32],
        shard: &[usize],
        batch_scale: f32,
        grads: &mut GradientSet,
    ) -> Vec<f32> {
        let (tables, joins, predicates) = self.pack_sparse_batch(features, shard);
        let cache = self.forward_batch(tables, joins, predicates);
        let mut losses = Vec::with_capacity(shard.len());
        let mut grad_output = Matrix::zeros(shard.len(), 1);
        for (position, &index) in shard.iter().enumerate() {
            let sigmoid_out = cache.sigmoid_out.get(position, 0);
            let prediction = self.unnormalize(sigmoid_out);
            let loss = loss_and_grad(
                self.config.loss,
                prediction.max(CARD_FLOOR),
                targets[index].max(CARD_FLOOR),
                CARD_FLOOR,
            );
            losses.push(loss.loss);
            // Chain rule through the un-normalization, averaged over the whole batch.
            grad_output.set(
                position,
                0,
                loss.grad * self.unnormalize_grad(sigmoid_out) * batch_scale,
            );
        }
        self.backward_batch_into(panels, &cache, &grad_output, grads);
        losses
    }

    fn predict_chunk(&self, features: &[Self::Features], chunk: &[usize]) -> Vec<f64> {
        let (tables, joins, predicates) = self.pack_sparse_batch(features, chunk);
        let out = self.forward_batch_inference(&tables, &joins, &predicates);
        let predictions = out.data().iter().map(|&out| self.unnormalize(out).max(0.0));
        predictions.map(|prediction| prediction as f64).collect()
    }

    /// The set modules' `l2` and the output MLP's: the set modules' `l1` are input layers
    /// and propagate nothing.
    fn backward_weights(&self) -> Vec<&Matrix> {
        let layers = [
            &self.table_module.l2,
            &self.join_module.l2,
            &self.predicate_module.l2,
            &self.out1,
            &self.out2,
        ];
        layers.map(|layer| &layer.w).into()
    }

    fn gradient_shapes(&self) -> Vec<(usize, usize)> {
        let modules = [
            &self.table_module,
            &self.join_module,
            &self.predicate_module,
        ];
        let layers = modules
            .into_iter()
            .flat_map(|module| [&module.l1, &module.l2]);
        let layers = layers.chain([&self.out1, &self.out2]);
        layers.flat_map(Dense::grad_shapes).collect()
    }

    /// All trainable parameters in `grad_index` order.
    fn params_vec_mut(&mut self) -> Vec<&mut Matrix> {
        let modules = [
            &mut self.table_module,
            &mut self.join_module,
            &mut self.predicate_module,
        ];
        let layers = modules
            .into_iter()
            .flat_map(|module| [&mut module.l1, &mut module.l2]);
        let layers = layers.chain([&mut self.out1, &mut self.out2]);
        layers.flat_map(Dense::params_mut).collect()
    }
}

/// Forward-pass cache of a set module for the seed-faithful per-sample reference path.
#[cfg(test)]
struct SetCache {
    input: Matrix,
    z1: Matrix,
    a1: Matrix,
    z2: Matrix,
    a2: Matrix,
    pooled: Matrix,
}

/// The per-sample reference of a set module (see [`MscnModel::fit_reference`]).
#[cfg(test)]
impl SetModule {
    /// Seed-faithful per-query forward pass (the pre-batching implementation, kept as the
    /// baseline for the parity tests).
    fn forward_reference(&self, input: &Matrix) -> SetCache {
        if input.rows() == 0 {
            // Empty set: the pooled representation is all zeros.
            return SetCache {
                input: input.clone(),
                z1: Matrix::zeros(0, self.l1.output_dim()),
                a1: Matrix::zeros(0, self.l1.output_dim()),
                z2: Matrix::zeros(0, self.hidden()),
                a2: Matrix::zeros(0, self.hidden()),
                pooled: Matrix::zeros(1, self.hidden()),
            };
        }
        let z1 = self.l1.forward_sparse(input);
        let a1 = relu(&z1);
        let z2 = self.l2.forward_sparse(&a1);
        let a2 = relu(&z2);
        let pooled = crn_nn::layers::mean_pool(&a2);
        SetCache {
            input: input.clone(),
            z1,
            a1,
            z2,
            a2,
            pooled,
        }
    }

    /// Seed-faithful per-query backward pass (see [`SetModule::forward_reference`]) into the
    /// module's four gradient tensors (`l1.w, l1.b, l2.w, l2.b`).
    fn backward_reference(&self, cache: &SetCache, grad_pooled: &Matrix, grads: &mut [Matrix]) {
        if cache.input.rows() == 0 {
            return;
        }
        let [grad_w1, grad_b1, grad_w2, grad_b2] = grads else {
            panic!("a set module has four gradient tensors");
        };
        let grad_a2 = crn_nn::layers::mean_pool_backward(cache.a2.rows(), grad_pooled);
        let grad_z2 = relu_backward(&cache.z2, &grad_a2);
        let grad_a1 = self.l2.backward(&cache.a1, &grad_z2, grad_w2, grad_b2);
        let grad_z1 = relu_backward(&cache.z1, &grad_a1);
        let _ = self.l1.backward(&cache.input, &grad_z1, grad_w1, grad_b1);
    }
}

/// Forward-pass cache for one query on the seed-faithful reference path.
#[cfg(test)]
struct ReferenceForwardCache {
    tables: SetCache,
    joins: SetCache,
    predicates: SetCache,
    concat: Matrix,
    z_out1: Matrix,
    a_out1: Matrix,
    sigmoid_out: Matrix,
}

/// The per-sample reference: the implementation before the ragged-batch engine, with its
/// own training loop — what the parity tests measure [`MscnModel::fit`] against.
#[cfg(test)]
impl MscnModel {
    /// Seed-faithful single-query forward pass: the pre-batching implementation, kept as the
    /// baseline for the parity tests (see [`SetModule::forward_reference`]).
    fn forward_reference(&self, features: &MscnFeatures) -> ReferenceForwardCache {
        let tables = self.table_module.forward_reference(&features.tables);
        let joins = self.join_module.forward_reference(&features.joins);
        let predicates = self
            .predicate_module
            .forward_reference(&features.predicates);
        let hidden = self.table_module.hidden();
        let mut concat = Matrix::zeros(1, 3 * hidden);
        concat.row_mut(0)[..hidden].copy_from_slice(tables.pooled.row(0));
        concat.row_mut(0)[hidden..2 * hidden].copy_from_slice(joins.pooled.row(0));
        concat.row_mut(0)[2 * hidden..].copy_from_slice(predicates.pooled.row(0));
        let z_out1 = self.out1.forward_sparse(&concat);
        let a_out1 = relu(&z_out1);
        let z_out2 = self.out2.forward_sparse(&a_out1);
        let sigmoid_out = sigmoid(&z_out2);
        ReferenceForwardCache {
            tables,
            joins,
            predicates,
            concat,
            z_out1,
            a_out1,
            sigmoid_out,
        }
    }

    /// Seed-faithful single-query backward pass (see [`MscnModel::forward_reference`]) of
    /// `g = dL/d sigmoid_out`, accumulating into `grads` (layout: [`grad_index`]).
    fn backward_reference(&self, cache: &ReferenceForwardCache, g: f32, grads: &mut GradientSet) {
        use grad_index::*;
        let grad_z_out2 = sigmoid_backward(&cache.sigmoid_out, &Matrix::from_vec(1, 1, vec![g]));
        let (w, b) = grads.pair_mut(OUT2_W, OUT2_B);
        let grad_a_out1 = self.out2.backward(&cache.a_out1, &grad_z_out2, w, b);
        let grad_z_out1 = relu_backward(&cache.z_out1, &grad_a_out1);
        let (w, b) = grads.pair_mut(OUT1_W, OUT1_B);
        let grad_concat = self.out1.backward(&cache.concat, &grad_z_out1, w, b);
        let hidden = self.table_module.hidden();
        let sets = [
            (&self.table_module, &cache.tables),
            (&self.join_module, &cache.joins),
            (&self.predicate_module, &cache.predicates),
        ];
        let module_grads = grads.parts_mut().chunks_mut(PER_MODULE);
        for (set, ((module, cache), grads)) in sets.into_iter().zip(module_grads).enumerate() {
            let grad_pooled = Matrix::row_vector(&grad_concat.row(0)[set * hidden..][..hidden]);
            module.backward_reference(cache, &grad_pooled, grads);
        }
    }

    /// Reference per-sample training loop: the pre-batching implementation, issuing one
    /// forward and one backward per query.
    ///
    /// Kept so the parity tests can compare the batched [`MscnModel::fit`] against it.
    fn fit_reference(&mut self, samples: &[CardinalitySample]) -> TrainingHistory {
        let features: Vec<MscnFeatures> = samples
            .iter()
            .map(|s| self.featurizer.featurize(&s.query))
            .collect();
        let targets: Vec<f32> = samples.iter().map(|s| s.cardinality as f32).collect();
        let max_card = targets.iter().cloned().fold(1.0f32, f32::max);
        self.log_max_cardinality = (max_card + 1.0).ln();

        let (train_idx, valid_idx) = train_validation_split(
            samples.len(),
            self.config.validation_fraction,
            self.config.seed,
        );
        let mut adam = Adam::new(self.config.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let mut history = TrainingHistory::default();
        let mut best: Option<MscnModel> = None;

        for epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0f64;
            let mut epoch_samples = 0usize;
            for batch in shuffled_batches(&train_idx, self.config.batch_size, &mut rng) {
                let mut grads = GradientSet::zeros(&self.gradient_shapes());
                for &index in &batch {
                    let cache = self.forward_reference(&features[index]);
                    let sigmoid_out = cache.sigmoid_out.get(0, 0);
                    let prediction = self.unnormalize(sigmoid_out);
                    let loss = loss_and_grad(
                        self.config.loss,
                        prediction.max(CARD_FLOOR),
                        targets[index].max(CARD_FLOOR),
                        CARD_FLOOR,
                    );
                    epoch_loss += loss.loss as f64;
                    epoch_samples += 1;
                    let grad_sigmoid =
                        loss.grad * self.unnormalize_grad(sigmoid_out) / batch.len() as f32;
                    self.backward_reference(&cache, grad_sigmoid, &mut grads);
                }
                adam.step_with(self.params_vec_mut(), grads.parts());
            }

            let validation_q_error = if valid_idx.is_empty() {
                epoch_loss / epoch_samples.max(1) as f64
            } else {
                let pairs: Vec<(f64, f64)> = valid_idx
                    .iter()
                    .map(|&i| {
                        let cache = self.forward_reference(&features[i]);
                        let prediction =
                            self.unnormalize(cache.sigmoid_out.get(0, 0)).max(0.0) as f64;
                        (prediction, targets[i] as f64)
                    })
                    .collect();
                mean_q_error(&pairs, CARD_FLOOR as f64)
            };
            let improved = history.record(EpochStats {
                epoch,
                train_loss: epoch_loss / epoch_samples.max(1) as f64,
                validation_q_error,
            });
            if improved {
                best = Some(self.clone());
            }
            if self
                .config
                .patience
                .is_some_and(|p| epoch - history.best_epoch >= p)
            {
                break;
            }
        }
        if let Some(best) = best {
            *self = best;
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_db::imdb::{generate_imdb, ImdbConfig};
    use crn_exec::label_cardinalities;
    use crn_nn::batch::shard_ranges;
    use crn_nn::parallel::{reduce_gradients, ThreadPoolConfig};
    use crn_nn::q_error;
    use crn_query::generator::{GeneratorConfig, QueryGenerator};

    fn training_data(db: &Database, n: usize, seed: u64) -> Vec<CardinalitySample> {
        let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
        let queries = gen.generate_queries(n);
        label_cardinalities(db, &queries, 4)
    }

    #[test]
    fn untrained_model_produces_finite_positive_estimates() {
        let db = generate_imdb(&ImdbConfig::tiny(1));
        let model = MscnModel::new(&db, TrainConfig::fast_test());
        let q = Query::scan("title");
        let estimate = model.estimate(&q);
        assert!(estimate.is_finite() && estimate >= 1.0);
        assert!(model.num_params() > 0);
        assert_eq!(model.name(), "MSCN");
    }

    #[test]
    fn training_reduces_validation_error() {
        let db = generate_imdb(&ImdbConfig::tiny(2));
        let samples = training_data(&db, 120, 2);
        let mut model = MscnModel::new(&db, TrainConfig::fast_test());
        let history = model.fit(&samples);
        assert!(!history.is_empty());
        let first = history.epochs.first().unwrap().validation_q_error;
        let best = history.best_validation;
        assert!(
            best <= first,
            "validation error should not get worse than the first epoch: {first} -> {best}"
        );
    }

    #[test]
    fn trained_model_beats_wild_guessing_on_single_tables() {
        let db = generate_imdb(&ImdbConfig::tiny(3));
        let samples = training_data(&db, 200, 3);
        let mut config = TrainConfig::fast_test();
        config.epochs = 30;
        let mut model = MscnModel::new(&db, config);
        model.fit(&samples);
        // Evaluate on the training distribution (just checking learning happens at all).
        let mut errors = Vec::new();
        for s in samples.iter().take(50) {
            errors.push(q_error(model.estimate(&s.query), s.cardinality as f64, 1.0));
        }
        errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = errors[errors.len() / 2];
        assert!(
            median < 40.0,
            "median training q-error should be moderate after training, got {median}"
        );
    }

    #[test]
    fn sample_enhanced_variant_has_wider_table_vectors_and_trains() {
        let db = generate_imdb(&ImdbConfig::tiny(4));
        let samples = training_data(&db, 60, 4);
        let mut model = MscnModel::with_samples(&db, 16, TrainConfig::fast_test());
        assert_eq!(model.name(), "MSCN16");
        let history = model.fit(&samples);
        assert!(!history.is_empty());
        let estimate = model.estimate(&samples[0].query);
        assert!(estimate.is_finite() && estimate >= 1.0);
    }

    /// The batched forward pass must agree with per-query forwards to float tolerance,
    /// including queries with empty join/predicate sets.
    #[test]
    fn batched_forward_matches_per_query_forward() {
        let db = generate_imdb(&ImdbConfig::tiny(6));
        let samples = training_data(&db, 50, 6);
        let model = MscnModel::new(&db, TrainConfig::fast_test());
        let features: Vec<_> = samples
            .iter()
            .map(|s| model.featurizer.featurize(&s.query))
            .collect();
        let indices: Vec<usize> = (0..features.len()).collect();
        let (tables, joins, predicates) = MscnModel::pack_batch(&features, &indices);
        assert!(
            features.iter().any(|f| f.joins.rows() == 0),
            "fixture should include at least one join-free query"
        );
        let batched = model.forward_batch(tables, joins, predicates).sigmoid_out;
        for (index, feature) in features.iter().enumerate() {
            let single = model.forward_reference(feature).sigmoid_out.get(0, 0);
            assert!(
                (batched.get(index, 0) - single).abs() < 1e-5,
                "query {index}: batched {} vs single {single}",
                batched.get(index, 0)
            );
        }
    }

    /// The batched backward pass must accumulate the same parameter gradients as the
    /// per-sample loop, to 1e-5 (relative).
    #[test]
    fn batched_gradients_match_per_sample_accumulation() {
        let db = generate_imdb(&ImdbConfig::tiny(7));
        let samples = training_data(&db, 24, 7);
        let model = MscnModel::new(&db, TrainConfig::fast_test());
        let features: Vec<_> = samples
            .iter()
            .map(|s| model.featurizer.featurize(&s.query))
            .collect();
        let scale = 1.0 / samples.len() as f32;

        let mut reference = GradientSet::zeros(&model.gradient_shapes());
        for (sample, feature) in samples.iter().zip(&features) {
            let cache = model.forward_reference(feature);
            let sigmoid_out = cache.sigmoid_out.get(0, 0);
            let prediction = model.unnormalize(sigmoid_out);
            let loss = loss_and_grad(
                model.config.loss,
                prediction.max(CARD_FLOOR),
                (sample.cardinality as f32).max(CARD_FLOOR),
                CARD_FLOOR,
            );
            let grad = loss.grad * model.unnormalize_grad(sigmoid_out) * scale;
            model.backward_reference(&cache, grad, &mut reference);
        }

        let indices: Vec<usize> = (0..features.len()).collect();
        let (tables, joins, predicates) = MscnModel::pack_batch(&features, &indices);
        let cache = model.forward_batch(tables, joins, predicates);
        let mut grad = Matrix::zeros(samples.len(), 1);
        for (index, sample) in samples.iter().enumerate() {
            let sigmoid_out = cache.sigmoid_out.get(index, 0);
            let prediction = model.unnormalize(sigmoid_out);
            let loss = loss_and_grad(
                model.config.loss,
                prediction.max(CARD_FLOOR),
                (sample.cardinality as f32).max(CARD_FLOOR),
                CARD_FLOOR,
            );
            grad.set(
                index,
                0,
                loss.grad * model.unnormalize_grad(sigmoid_out) * scale,
            );
        }
        let batched = model.backward_batch(&cache, &grad);

        for (name, index) in [
            ("tables.l1.w", 0usize),
            ("tables.l2.w", 2),
            ("joins.l1.w", grad_index::JOINS),
            ("predicates.l1.w", 2 * grad_index::PER_MODULE),
            ("out1.w", grad_index::OUT1_W),
            ("out2.w", grad_index::OUT2_W),
            ("out2.b", grad_index::OUT2_B),
        ] {
            let (a, b) = (&batched.parts()[index], &reference.parts()[index]);
            for (index, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-5 * y.abs().max(1.0),
                    "{name}[{index}]: batched {x} vs per-sample {y}"
                );
            }
        }
    }

    /// The batched and reference training loops see identical losses on the first epoch.
    #[test]
    fn fit_and_fit_reference_trace_the_same_first_epoch() {
        let db = generate_imdb(&ImdbConfig::tiny(8));
        let samples = training_data(&db, 80, 8);
        let config = TrainConfig {
            epochs: 1,
            ..TrainConfig::fast_test()
        };
        let mut batched = MscnModel::new(&db, config.clone());
        let mut reference = batched.clone();
        let batched_history = batched.fit(&samples);
        let reference_history = reference.fit_reference(&samples);
        let a = batched_history.epochs[0];
        let b = reference_history.epochs[0];
        assert!(
            (a.train_loss - b.train_loss).abs() < 1e-4 * b.train_loss.abs().max(1.0),
            "first-epoch losses must match: batched {} vs reference {}",
            a.train_loss,
            b.train_loss
        );
        assert!(
            (a.validation_q_error - b.validation_q_error).abs()
                < 1e-4 * b.validation_q_error.abs().max(1.0),
            "first-epoch validation must match: batched {} vs reference {}",
            a.validation_q_error,
            b.validation_q_error
        );
    }

    /// `fit` returns the model of its best validation epoch, not of its last: the returned
    /// model's validation q-error, recomputed over the same split by the loop's validation
    /// pass, is exactly `history.best_validation` and differs from the last epoch's.
    #[test]
    fn fit_returns_the_model_of_its_best_validation_epoch() {
        let db = generate_imdb(&ImdbConfig::tiny(13));
        let samples = training_data(&db, 120, 13);
        let config = TrainConfig {
            epochs: 12,
            learning_rate: 0.01,
            patience: None,
            parallel: ThreadPoolConfig::deterministic(2),
            ..TrainConfig::fast_test()
        };
        let mut model = MscnModel::new(&db, config);
        let history = model.fit(&samples);
        assert!(
            history.best_epoch < history.len() - 1,
            "the fixture must peak before its last epoch (best {} of {})",
            history.best_epoch,
            history.len()
        );
        let restored = train::validation_q_error(&model, &samples);
        assert_eq!(restored, history.best_validation);
        assert_ne!(restored, history.epochs.last().unwrap().validation_q_error);
    }

    /// Deterministic mode must be **bit-identical** across thread counts: same per-epoch
    /// losses, same validation trace, same trained parameters at `threads = 1, 2, 4`.
    #[test]
    fn deterministic_parallel_fit_is_thread_count_invariant() {
        let db = generate_imdb(&ImdbConfig::tiny(9));
        let samples = training_data(&db, 120, 9);
        let make_config = |threads: usize| TrainConfig {
            epochs: 2,
            patience: None,
            parallel: ThreadPoolConfig::deterministic(threads),
            ..TrainConfig::fast_test()
        };
        let mut baseline = MscnModel::new(&db, make_config(1));
        let baseline_history = baseline.fit(&samples);
        for threads in [2, 4] {
            let mut model = MscnModel::new(&db, make_config(threads));
            let history = model.fit(&samples);
            assert_eq!(history.epochs.len(), baseline_history.epochs.len());
            for (a, b) in history.epochs.iter().zip(&baseline_history.epochs) {
                assert_eq!(
                    a.train_loss, b.train_loss,
                    "threads = {threads}: deterministic losses must be identical"
                );
                assert_eq!(
                    a.validation_q_error, b.validation_q_error,
                    "threads = {threads}: deterministic validation must be identical"
                );
            }
            for sample in samples.iter().take(10) {
                assert_eq!(
                    model.predict(&sample.query),
                    baseline.predict(&sample.query),
                    "threads = {threads}: deterministic predictions must be identical"
                );
            }
            assert_eq!(
                model.out1.w, baseline.out1.w,
                "threads = {threads}: trained weights must be identical"
            );
        }
    }

    /// The deterministic parallel path must stay pinned to the seed-faithful per-sample
    /// reference: after two epochs at `threads = 1, 2, 4`, losses and predictions agree
    /// with [`MscnModel::fit_reference`] to 1e-5 (relative).
    #[test]
    fn parallel_fit_matches_fit_reference_across_thread_counts() {
        let db = generate_imdb(&ImdbConfig::tiny(10));
        let samples = training_data(&db, 120, 10);
        let config = TrainConfig {
            epochs: 2,
            patience: None,
            parallel: ThreadPoolConfig::single_threaded(),
            ..TrainConfig::fast_test()
        };
        let mut reference = MscnModel::new(&db, config.clone());
        let reference_history = reference.fit_reference(&samples);
        let reference_predictions: Vec<f64> = samples
            .iter()
            .take(10)
            .map(|s| reference.predict(&s.query))
            .collect();
        for threads in [1usize, 2, 4] {
            let mut parallel_config = config.clone();
            parallel_config.parallel = ThreadPoolConfig::deterministic(threads);
            let mut model = MscnModel::new(&db, parallel_config);
            let history = model.fit(&samples);
            for (a, b) in history.epochs.iter().zip(&reference_history.epochs) {
                assert!(
                    (a.train_loss - b.train_loss).abs() < 1e-5 * b.train_loss.abs().max(1.0),
                    "threads = {threads}, epoch {}: loss {} vs reference {}",
                    a.epoch,
                    a.train_loss,
                    b.train_loss
                );
            }
            for (index, (sample, expected)) in
                samples.iter().zip(&reference_predictions).enumerate()
            {
                let prediction = model.predict(&sample.query);
                // Predictions are un-normalized cardinalities, so compare relatively.
                assert!(
                    (prediction - expected).abs() < 1e-5 * expected.abs().max(1.0),
                    "threads = {threads}, query {index}: prediction {prediction} vs reference {expected}"
                );
            }
        }
    }

    /// The sharded backward (slice → per-shard backward → fixed-order reduction) must
    /// accumulate the same parameter gradients as the per-sample reference loop, to 1e-5
    /// relative — for several shard counts and both reduction orders.
    #[test]
    fn sharded_gradients_match_per_sample_accumulation() {
        let db = generate_imdb(&ImdbConfig::tiny(11));
        let samples = training_data(&db, 24, 11);
        let reference_model = MscnModel::new(&db, TrainConfig::fast_test());
        let features: Vec<_> = samples
            .iter()
            .map(|s| reference_model.featurizer.featurize(&s.query))
            .collect();
        let scale = 1.0 / samples.len() as f32;

        let mut reference = GradientSet::zeros(&reference_model.gradient_shapes());
        for (sample, feature) in samples.iter().zip(&features) {
            let cache = reference_model.forward_reference(feature);
            let sigmoid_out = cache.sigmoid_out.get(0, 0);
            let prediction = reference_model.unnormalize(sigmoid_out);
            let loss = loss_and_grad(
                reference_model.config.loss,
                prediction.max(CARD_FLOOR),
                (sample.cardinality as f32).max(CARD_FLOOR),
                CARD_FLOOR,
            );
            let grad = loss.grad * reference_model.unnormalize_grad(sigmoid_out) * scale;
            reference_model.backward_reference(&cache, grad, &mut reference);
        }

        for (threads, deterministic) in [(1, false), (2, false), (4, false), (4, true), (3, true)] {
            let pool = if deterministic {
                ThreadPoolConfig::deterministic(threads)
            } else {
                ThreadPoolConfig::with_threads(threads)
            };
            let config = TrainConfig {
                parallel: pool,
                ..TrainConfig::fast_test()
            };
            let model = MscnModel::new(&db, config);
            let (losses, grads) = train::batch_gradients(&model, &samples);
            assert_eq!(losses.len(), samples.len());
            for (name, index) in [
                ("tables.l1.w", 0usize),
                ("tables.l2.w", 2),
                ("joins.l1.w", grad_index::JOINS),
                ("out1.w", grad_index::OUT1_W),
                ("out2.w", grad_index::OUT2_W),
                ("out2.b", grad_index::OUT2_B),
            ] {
                let reference = &reference.parts()[index];
                for (position, (a, b)) in grads.parts()[index]
                    .data()
                    .iter()
                    .zip(reference.data())
                    .enumerate()
                {
                    assert!(
                        (a - b).abs() < 1e-5 * b.abs().max(1.0),
                        "threads {threads} det {deterministic}, {name}[{position}]: sharded {a} vs per-sample {b}"
                    );
                }
            }
        }
    }

    /// The training step of the parent commit, written out from primitives (the same
    /// reference `crn-core` pins `CrnModel` to): every dense backward product as an explicit
    /// `transpose()` + `matmul` + `add_assign` into a freshly zeroed set per shard, strided
    /// forward products, `reduce_gradients` in canonical order, and an Adam loop that stores
    /// what it computes into moments of its own (`adam` keeps the hyperparameters and the
    /// step count).
    struct ParentTrainer {
        model: MscnModel,
        adam: Adam,
        m: Vec<Matrix>,
        v: Vec<Matrix>,
    }

    /// One set module's activations over a ragged batch.
    struct ParentSetCache {
        input: RaggedBatch,
        a1: Matrix,
        a2: Matrix,
        pooled: Matrix,
    }

    impl ParentTrainer {
        /// `(dL/dW, dL/db, dL/dx)` of one dense layer.
        fn dense_backward(layer: &Dense, x: &Matrix, grad_y: &Matrix) -> (Matrix, Matrix, Matrix) {
            (
                x.transpose().matmul(grad_y),
                Matrix::row_vector(&grad_y.column_sums()),
                grad_y.matmul(&layer.w.transpose()),
            )
        }

        fn module_forward(module: &SetModule, input: RaggedBatch) -> ParentSetCache {
            let mut a1 = module.l1.forward_ragged(&input);
            relu_in_place(&mut a1);
            let mut a2 = module.l2.forward(&a1);
            relu_in_place(&mut a2);
            let pooled = segment_pool(&a2, input.offsets(), SegmentPool::Mean);
            ParentSetCache {
                input,
                a1,
                a2,
                pooled,
            }
        }

        fn module_backward(
            module: &SetModule,
            cache: &ParentSetCache,
            grad_pooled: &Matrix,
            grads: &mut [Matrix],
        ) {
            if cache.input.num_rows() == 0 {
                return;
            }
            let mut grad_z2 =
                segment_pool_backward(cache.input.offsets(), grad_pooled, SegmentPool::Mean);
            relu_backward_in_place(&cache.a2, &mut grad_z2);
            let (grad_w2, grad_b2, mut grad_z1) =
                Self::dense_backward(&module.l2, &cache.a1, &grad_z2);
            grads[2].add_assign(&grad_w2);
            grads[3].add_assign(&grad_b2);
            relu_backward_in_place(&cache.a1, &mut grad_z1);
            let (grad_w1, rest) = grads.split_at_mut(1);
            Dense::accumulate_ragged_weights_only(
                &cache.input,
                &grad_z1,
                &mut grad_w1[0],
                &mut rest[0],
            );
        }

        fn shard_gradients(
            &self,
            batches: (RaggedBatch, RaggedBatch, RaggedBatch),
            indices: &[usize],
            targets: &[f32],
            batch_scale: f32,
        ) -> (Vec<f32>, GradientSet) {
            use grad_index::*;
            let model = &self.model;
            let tables = Self::module_forward(&model.table_module, batches.0);
            let joins = Self::module_forward(&model.join_module, batches.1);
            let predicates = Self::module_forward(&model.predicate_module, batches.2);
            let concat = concat_columns(&[&tables.pooled, &joins.pooled, &predicates.pooled]);
            let mut a_out1 = model.out1.forward(&concat);
            relu_in_place(&mut a_out1);
            let mut sigmoid_out = model.out2.forward(&a_out1);
            sigmoid_in_place(&mut sigmoid_out);

            let mut losses = Vec::new();
            let mut grad_output = Matrix::zeros(indices.len(), 1);
            for (position, &index) in indices.iter().enumerate() {
                let out = sigmoid_out.get(position, 0);
                let loss = loss_and_grad(
                    model.config.loss,
                    model.unnormalize(out).max(CARD_FLOOR),
                    targets[index].max(CARD_FLOOR),
                    CARD_FLOOR,
                );
                losses.push(loss.loss);
                let grad = loss.grad * model.unnormalize_grad(out) * batch_scale;
                grad_output.set(position, 0, grad);
            }

            let mut grads = GradientSet::zeros(&model.gradient_shapes());
            let grad_z_out2 = sigmoid_backward(&sigmoid_out, &grad_output);
            let (grad_w, grad_b, mut grad_z_out1) =
                Self::dense_backward(&model.out2, &a_out1, &grad_z_out2);
            grads.part_mut(OUT2_W).add_assign(&grad_w);
            grads.part_mut(OUT2_B).add_assign(&grad_b);
            relu_backward_in_place(&a_out1, &mut grad_z_out1);
            let (grad_w, grad_b, grad_concat) =
                Self::dense_backward(&model.out1, &concat, &grad_z_out1);
            grads.part_mut(OUT1_W).add_assign(&grad_w);
            grads.part_mut(OUT1_B).add_assign(&grad_b);
            let hidden = model.table_module.hidden();
            let split = split_columns(&grad_concat, &[hidden, hidden, hidden]);
            let parts = grads.parts_mut();
            for (offset, module, cache, grad_pooled) in [
                (0, &model.table_module, &tables, &split[0]),
                (JOINS, &model.join_module, &joins, &split[1]),
                (
                    2 * PER_MODULE,
                    &model.predicate_module,
                    &predicates,
                    &split[2],
                ),
            ] {
                let module_grads = &mut parts[offset..offset + PER_MODULE];
                Self::module_backward(module, cache, grad_pooled, module_grads);
            }
            (losses, grads)
        }

        /// One mini-batch; returns the per-sample losses in batch order.
        fn step(
            &mut self,
            features: &[[SparseRows; 3]],
            targets: &[f32],
            batch: &[usize],
        ) -> Vec<f32> {
            let parallel = self.model.config.parallel;
            assert!(
                parallel.deterministic,
                "the canonical order is what is pinned"
            );
            let (tables, joins, predicates) = self.model.pack_sparse_batch(features, batch);
            let batch_scale = 1.0 / batch.len() as f32;
            let (mut losses, mut shards) = (Vec::new(), Vec::new());
            for range in shard_ranges(batch.len(), parallel.shard_count(batch.len())) {
                let (shard_losses, grads) = self.shard_gradients(
                    (
                        tables.slice_segments(range.clone()),
                        joins.slice_segments(range.clone()),
                        predicates.slice_segments(range.clone()),
                    ),
                    &batch[range],
                    targets,
                    batch_scale,
                );
                losses.extend(shard_losses);
                shards.push(grads);
            }
            let merged = reduce_gradients(shards, true).expect("at least one shard");

            let adam = &mut self.adam;
            adam.step_count += 1;
            let t = adam.step_count as f32;
            let (bias1, bias2) = (1.0 - adam.beta1.powf(t), 1.0 - adam.beta2.powf(t));
            let params = self.model.params_vec_mut().into_iter();
            let moments = self.m.iter_mut().zip(&mut self.v);
            for ((param, grad), (m, v)) in params.zip(merged.parts()).zip(moments) {
                let (value, m, v) = (param.data_mut(), m.data_mut(), v.data_mut());
                for (i, &g) in grad.data().iter().enumerate() {
                    m[i] = adam.beta1 * m[i] + (1.0 - adam.beta1) * g;
                    v[i] = adam.beta2 * v[i] + (1.0 - adam.beta2) * g * g;
                    let (m_hat, v_hat) = (m[i] / bias1, v[i] / bias2);
                    value[i] -= adam.learning_rate * m_hat / (v_hat.sqrt() + adam.epsilon);
                }
            }
            losses
        }

        /// `MscnModel::fit`'s loop (no early stopping; best-validation epoch restored).
        fn fit(&mut self, samples: &[CardinalitySample]) {
            let config = self.model.config.clone();
            assert!(config.patience.is_none());
            let features: Vec<[SparseRows; 3]> = samples
                .iter()
                .map(|s| {
                    let dense = self.model.featurizer.featurize(&s.query);
                    [
                        SparseRows::from_matrix(&dense.tables),
                        SparseRows::from_matrix(&dense.joins),
                        SparseRows::from_matrix(&dense.predicates),
                    ]
                })
                .collect();
            let targets: Vec<f32> = samples.iter().map(|s| s.cardinality as f32).collect();
            let max_card = targets.iter().cloned().fold(1.0f32, f32::max);
            self.model.log_max_cardinality = (max_card + 1.0).ln();
            let (train_idx, valid_idx) =
                train_validation_split(samples.len(), config.validation_fraction, config.seed);
            self.adam = Adam::new(config.learning_rate);
            let zeros = |&(rows, cols): &(usize, usize)| Matrix::zeros(rows, cols);
            self.m = self.model.gradient_shapes().iter().map(zeros).collect();
            self.v = self.m.clone();
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
            let mut history = TrainingHistory::default();
            let mut best = None;
            for epoch in 0..config.epochs {
                let mut losses = Vec::new();
                for batch in shuffled_batches(&train_idx, config.batch_size, &mut rng) {
                    losses.extend(self.step(&features, &targets, &batch));
                }
                let train_loss =
                    losses.iter().map(|&loss| loss as f64).sum::<f64>() / losses.len() as f64;
                let mut pairs = Vec::new();
                for chunk in valid_idx.chunks(config.batch_size) {
                    let (tables, joins, predicates) =
                        self.model.pack_sparse_batch(&features, chunk);
                    let out = self
                        .model
                        .forward_batch_inference(&tables, &joins, &predicates);
                    for (position, &index) in chunk.iter().enumerate() {
                        let prediction = self.model.unnormalize(out.get(position, 0)).max(0.0);
                        pairs.push((prediction as f64, targets[index] as f64));
                    }
                }
                let stats = EpochStats {
                    epoch,
                    train_loss,
                    validation_q_error: mean_q_error(&pairs, CARD_FLOOR as f64),
                };
                if history.record(stats) {
                    best = Some(self.model.clone());
                }
            }
            self.model = best.expect("the first epoch always improves");
        }
    }

    /// The training bit-identity tripwire (see `crn-core`'s, which also follows the moments
    /// onto the parent's subnormal plateau): a 100-step `fit` ends, at every thread count,
    /// on exactly the weights and biases [`ParentTrainer`] ends on.
    #[test]
    fn training_is_bit_identical_to_the_parent_formulation() {
        let db = generate_imdb(&ImdbConfig::tiny(12));
        let mut samples = training_data(&db, 320, 12);
        samples.truncate(320);
        let config = |threads: usize| TrainConfig {
            hidden_size: 32,
            epochs: 50,
            patience: None,
            parallel: ThreadPoolConfig::deterministic(threads),
            ..TrainConfig::default()
        };
        let mut parent = ParentTrainer {
            model: MscnModel::new(&db, config(1)),
            adam: Adam::default(),
            m: Vec::new(),
            v: Vec::new(),
        };
        parent.fit(&samples);
        assert_eq!(
            parent.adam.step_count, 100,
            "two 128-query batches per epoch"
        );
        for threads in [1usize, 2, 4] {
            let mut model = MscnModel::new(&db, config(threads));
            model.fit(&samples);
            assert_eq!(model.log_max_cardinality, parent.model.log_max_cardinality);
            let expected = parent.model.params_vec_mut();
            for (index, (actual, expected)) in
                model.params_vec_mut().into_iter().zip(expected).enumerate()
            {
                let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(actual),
                    bits(expected),
                    "threads = {threads}: parameter {index}"
                );
            }
        }
    }

    #[test]
    fn prediction_is_deterministic_after_training() {
        let db = generate_imdb(&ImdbConfig::tiny(5));
        let samples = training_data(&db, 60, 5);
        let mut model = MscnModel::new(&db, TrainConfig::fast_test());
        model.fit(&samples);
        let q = &samples[0].query;
        assert_eq!(model.estimate(q), model.estimate(q));
    }
}
