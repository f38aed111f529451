//! The CRN (Containment Rate Network) model — the paper's primary contribution (§3.2).
//!
//! Three stages, exactly as in Figure 1 of the paper:
//!
//! 1. **Featurization** — each query of the input pair `(Q1, Q2)` becomes a set of vectors in
//!    the shared format of [`crate::featurize::CrnFeaturizer`].
//! 2. **Set encoding** — each vector of set `Vi` is passed through a one-layer MLP (`MLP1` for
//!    the first query, `MLP2` for the second) with ReLU, and the transformed vectors are
//!    *averaged* into a single representative vector `Qvec_i` of width `H` (§3.2.2).
//! 3. **Containment head** — `Expand(Qvec1, Qvec2) = [v1, v2, |v1 − v2|, v1 ⊙ v2]` is fed into
//!    a two-layer MLP (`MLPout`) whose sigmoid output is the estimated containment rate
//!    `Q1 ⊂% Q2 ∈ [0, 1]` (§3.2.3).
//!
//! Training minimizes the mean q-error of the predicted rates (§3.2.4) with Adam,
//! mini-batches and early stopping on a validation split (§3.3); MSE/MAE and sum-pooling /
//! plain-concatenation variants are available for the ablation experiments.

use crate::featurize::CrnFeaturizer;
use crn_db::database::Database;
use crn_exec::ContainmentSample;
use crn_nn::batch::{
    expand_concat, expand_concat_backward, expand_full, expand_full_backward, expand_full_tail,
    segment_pool, segment_pool_backward, RaggedBatch, SegmentPool, SparseRows,
};
use crn_nn::gemm::{gemm_packed, Epilogue, PackedWeights};
use crn_nn::layers::{
    relu_backward_in_place, relu_in_place, sigmoid_backward, sigmoid_in_place, Dense,
};
use crn_nn::loss::loss_and_grad;
use crn_nn::matrix::Matrix;
use crn_nn::optim::Adam;
use crn_nn::parallel::GradientSet;
use crn_nn::train::{self, TrainConfig, Trainable, TrainingHistory};
use crn_query::ast::Query;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
// The per-sample reference path and the tests.
#[cfg(test)]
use crn_nn::{
    layers::{relu, relu_backward, sigmoid},
    loss::mean_q_error,
    train::{shuffled_batches, train_validation_split, EarlyStopping, EpochStats},
};
#[cfg(test)]
use rand::{rngs::StdRng, SeedableRng};

use crn_estimators::{passes_epsilon, ContainmentEstimator};

/// Containment rates below this floor are clamped before the q-error is formed (the paper's
/// q-error is undefined at exactly zero).
pub const RATE_FLOOR: f32 = 0.01;

/// Index of each CRN parameter tensor inside its [`GradientSet`] — the fixed order shared by
/// [`CrnModel::gradient_set`], [`CrnModel::params_vec_mut`] and the shard reduction (the
/// optimizer pairs parameters and merged gradients positionally).
mod grad_index {
    pub const MLP1_W: usize = 0;
    pub const MLP1_B: usize = 1;
    pub const MLP2_W: usize = 2;
    pub const MLP2_B: usize = 3;
    pub const OUT1_W: usize = 4;
    pub const OUT1_B: usize = 5;
    pub const OUT2_W: usize = 6;
    pub const OUT2_B: usize = 7;
}

/// How the per-element representations are aggregated into a query vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pooling {
    /// Average over the set elements (the paper's choice, §3.2.2).
    Mean,
    /// Sum over the set elements (ablation: the paper argues the average generalizes better
    /// to different set sizes).
    Sum,
}

/// How the two query vectors are combined before `MLPout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpandMode {
    /// `[v1, v2, |v1 − v2|, v1 ⊙ v2]` — the paper's `Expand` function (§3.2.3).
    Full,
    /// Plain concatenation `[v1, v2]` (ablation).
    Concat,
}

/// Architecture/ablation options of the CRN model (everything beyond [`TrainConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrnOptions {
    /// Set aggregation.
    pub pooling: Pooling,
    /// Pair combination.
    pub expand: ExpandMode,
}

impl Default for CrnOptions {
    fn default() -> Self {
        CrnOptions {
            pooling: Pooling::Mean,
            expand: ExpandMode::Full,
        }
    }
}

/// The CRN containment-rate estimation model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrnModel {
    featurizer: CrnFeaturizer,
    /// Set encoder of the first query (`MLP1`).
    mlp1: Dense,
    /// Set encoder of the second query (`MLP2`).
    mlp2: Dense,
    /// First layer of `MLPout` (`4H → 2H` for the full expand, `2H → 2H` for plain concat).
    out1: Dense,
    /// Second layer of `MLPout` (`2H → 1`).
    out2: Dense,
    config: TrainConfig,
    options: CrnOptions,
    /// `out1.w` repacked for the inference GEMM.  Derived state: never serialized, equal to
    /// every other cell, shared by clones (see [`PackedHead`]).
    #[serde(skip)]
    packed_out1: PackedHead,
}

/// The inference-side copy of `out1`'s weights ([`PackedWeights`]), built by the first
/// inference call that needs it ([`CrnModel::packed_out1`], the only writer) and dropped by
/// [`CrnModel::params_vec_mut`] — the only path that hands out `&mut` weights — so a
/// cell never holds panels of weights its model no longer has.  A clone shares the panels
/// (its weights are the same values); training the clone empties only the clone's cell.
#[derive(Debug, Clone, Default)]
struct PackedHead(OnceLock<Arc<PackedWeights>>);

impl PartialEq for PackedHead {
    /// Always equal: the cell is a function of `out1`, which the model compares itself.
    fn eq(&self, _: &PackedHead) -> bool {
        true
    }
}

/// Forward-pass cache of one ragged mini-batch of pairs (a single pair is the `B = 1` case).
///
/// The set-level tensors (`a1`, `a2`) are flattened over all pairs of the batch and
/// segmented by the offsets of `v1` / `v2`; the pair-level tensors (`qvec*`, `expanded`,
/// `sigmoid_out`) have one row per pair.  Only post-activation tensors are kept: ReLU runs
/// in place (its own output is the backward mask) and sigmoid's backward needs the output.
struct BatchCache {
    v1: RaggedBatch,
    v2: RaggedBatch,
    a1: Matrix,
    a2: Matrix,
    qvec1: Matrix,
    qvec2: Matrix,
    expanded: Matrix,
    a_out1: Matrix,
    sigmoid_out: Matrix,
}

impl CrnModel {
    /// Creates an untrained CRN model for a database snapshot with the paper's architecture.
    pub fn new(db: &Database, config: TrainConfig) -> Self {
        Self::with_options(db, config, CrnOptions::default())
    }

    /// Creates an untrained CRN model with explicit ablation options.
    pub fn with_options(db: &Database, config: TrainConfig, options: CrnOptions) -> Self {
        let featurizer = CrnFeaturizer::new(db);
        Self::from_featurizer(featurizer, config, options)
    }

    /// Creates the model from a pre-built featurizer (used by tests and serialization).
    pub fn from_featurizer(
        featurizer: CrnFeaturizer,
        config: TrainConfig,
        options: CrnOptions,
    ) -> Self {
        let hidden = config.hidden_size;
        let input_dim = featurizer.vector_dim();
        let expand_dim = match options.expand {
            ExpandMode::Full => 4 * hidden,
            ExpandMode::Concat => 2 * hidden,
        };
        let seed = config.seed;
        CrnModel {
            mlp1: Dense::new(input_dim, hidden, seed.wrapping_add(100)),
            mlp2: Dense::new(input_dim, hidden, seed.wrapping_add(200)),
            out1: Dense::new(expand_dim, 2 * hidden, seed.wrapping_add(300)),
            out2: Dense::new(2 * hidden, 1, seed.wrapping_add(400)),
            featurizer,
            config,
            options,
            packed_out1: PackedHead::default(),
        }
    }

    /// The featurizer (exposed so transformations can reuse its normalization).
    pub fn featurizer(&self) -> &CrnFeaturizer {
        &self.featurizer
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The ablation options.
    pub fn options(&self) -> &CrnOptions {
        &self.options
    }

    /// Hidden layer width `H`.
    pub fn hidden_size(&self) -> usize {
        self.config.hidden_size
    }

    /// Total number of trainable parameters.
    ///
    /// For the paper's architecture this matches the closed form of §3.5.3,
    /// `2·L·H + 8·H² + 6·H + 1` (with the paper's three-operator one-hot replaced by ours).
    pub fn num_params(&self) -> usize {
        self.mlp1.num_params()
            + self.mlp2.num_params()
            + self.out1.num_params()
            + self.out2.num_params()
    }

    /// The set-aggregation mode as the nn engine's segment-pool kind.
    fn segment_pool_kind(&self) -> SegmentPool {
        match self.options.pooling {
            Pooling::Mean => SegmentPool::Mean,
            Pooling::Sum => SegmentPool::Sum,
        }
    }

    /// Batched forward pass over a ragged mini-batch of pairs: every dense layer runs once as
    /// a single GEMM over the flattened set rows, pooling is a segment reduction, and the
    /// `Expand` combination is vectorized over all pairs.
    /// Combines two `(B×H)` query-vector blocks with the configured `Expand` mode.
    fn expand_pairs(&self, qvec1: &Matrix, qvec2: &Matrix) -> Matrix {
        match self.options.expand {
            ExpandMode::Full => expand_full(qvec1, qvec2),
            ExpandMode::Concat => expand_concat(qvec1, qvec2),
        }
    }

    /// One set encoder over a ragged batch, forward only: `encode = pool(relu(W·v))`,
    /// `(Σnᵢ×L) -> (B×H)`.
    fn encode_sets(&self, encoder: &Dense, batch: &RaggedBatch) -> Matrix {
        let mut activated = encoder.forward_ragged(batch);
        relu_in_place(&mut activated);
        segment_pool(&activated, batch.offsets(), self.segment_pool_kind())
    }

    /// `out1`'s weights in the packed layout of the inference GEMM, built on first use.
    fn packed_out1(&self) -> &PackedWeights {
        self.packed_out1
            .0
            .get_or_init(|| Arc::new(PackedWeights::pack(&self.out1.w)))
    }

    /// The containment head over expanded pair representations, forward only:
    /// `(B×4H) -> (B×1)` sigmoid rates — [`CrnModel::head_rates`] over the whole reduction.
    fn head_inference(&self, expanded: &Matrix) -> Matrix {
        self.head_rates(expanded, 0, None)
    }

    /// The containment head from any point of `out1`'s reduction: `operand` holds the
    /// expanded rows from column `first_column` on and `chain` the state of every row's
    /// accumulator chains after the columns before it (`None`: they start here, from zero).
    ///
    /// The inference GEMM sums one output element as a single chain over the expanded
    /// columns in order (`crn_nn::gemm`), so stopping after some columns, storing the `f32`
    /// state and continuing from it performs exactly the operations of the uncut chain:
    /// a head pass resumed from a stored prefix is **bit-identical** to the full pass
    /// [`CrnModel::predict`] runs through the same kernel.  Bias and ReLU are applied once,
    /// when the chain ends.
    fn head_rates(&self, operand: &Matrix, first_column: usize, chain: Option<Matrix>) -> Matrix {
        let a_out1 = gemm_packed(
            operand.data(),
            operand.rows(),
            self.packed_out1(),
            first_column..first_column + operand.cols(),
            chain,
            Epilogue::BiasRelu(self.out1.b.row(0)),
        );
        let mut sigmoid_out = self.out2.forward(&a_out1);
        sigmoid_in_place(&mut sigmoid_out);
        sigmoid_out
    }

    /// The chain state of `out1` after the first `H` expanded columns — the `v1` block of
    /// `Expand(v1, v2)`, which is all those columns depend on: `(B×H) -> (B×2H)`.
    fn head_prefix(&self, v1: &Matrix) -> Matrix {
        gemm_packed(
            v1.data(),
            v1.rows(),
            self.packed_out1(),
            0..v1.cols(),
            None,
            Epilogue::None,
        )
    }

    fn forward_batch(&self, v1: RaggedBatch, v2: RaggedBatch) -> BatchCache {
        debug_assert_eq!(v1.num_segments(), v2.num_segments(), "pairs must line up");
        let pool = self.segment_pool_kind();
        // The set encoders iterate the batches' CSR non-zeros; the head's `Expand` input is
        // dense and takes the blocked SIMD kernel.
        let mut a1 = self.mlp1.forward_ragged(&v1);
        relu_in_place(&mut a1);
        let qvec1 = segment_pool(&a1, v1.offsets(), pool);
        let mut a2 = self.mlp2.forward_ragged(&v2);
        relu_in_place(&mut a2);
        let qvec2 = segment_pool(&a2, v2.offsets(), pool);
        let expanded = self.expand_pairs(&qvec1, &qvec2);
        let mut a_out1 = self.out1.forward(&expanded);
        relu_in_place(&mut a_out1);
        let mut sigmoid_out = self.out2.forward(&a_out1);
        sigmoid_in_place(&mut sigmoid_out);
        BatchCache {
            v1,
            v2,
            a1,
            a2,
            qvec1,
            qvec2,
            expanded,
            a_out1,
            sigmoid_out,
        }
    }

    /// Inference-only batched forward: returns the `B×1` sigmoid outputs without retaining
    /// any intermediate tensors (the serving path of `predict` / `predict_batch`).
    fn forward_batch_inference(&self, v1: &RaggedBatch, v2: &RaggedBatch) -> Matrix {
        debug_assert_eq!(v1.num_segments(), v2.num_segments(), "pairs must line up");
        let qvec1 = self.encode_sets(&self.mlp1, v1);
        let qvec2 = self.encode_sets(&self.mlp2, v2);
        self.head_inference(&self.expand_pairs(&qvec1, &qvec2))
    }

    /// Batched backward pass: `grad_output` holds `dL/d sigmoid_out` per pair (`B×1`).
    ///
    /// Returns exactly the gradient sums the per-sample loop produced — `Dense::backward`
    /// over the flattened rows computes the same `Σᵢ xᵢᵀ·gᵢ` in one product.  Kept for the
    /// parity tests; training goes through [`CrnModel::backward_batch_into`] so shards can
    /// accumulate privately.
    #[cfg(test)]
    fn backward_batch(&self, cache: &BatchCache, grad_output: &Matrix) -> GradientSet {
        let weights = self.backward_weights().into_iter();
        let panels: Vec<PackedWeights> = weights.map(PackedWeights::pack_transposed).collect();
        let mut grads = GradientSet::zeros(&self.gradient_shapes());
        self.backward_batch_into(&panels, cache, grad_output, &mut grads);
        grads
    }

    /// [`CrnModel::backward_batch`] into a caller-provided [`GradientSet`] (indexed by
    /// [`grad_index`]), leaving the model untouched — every shard of a data-parallel
    /// mini-batch runs this against the same read-only model.  `panels`: `out1`'s and
    /// `out2`'s weights packed transposed ([`Trainable::backward_weights`]).
    fn backward_batch_into(
        &self,
        panels: &[PackedWeights],
        cache: &BatchCache,
        grad_output: &Matrix,
        grads: &mut GradientSet,
    ) {
        use grad_index::*;
        let [out1_transposed, out2_transposed] = panels else {
            panic!("CRN's backward pass multiplies by two weight panels");
        };
        let grad_z_out2 = sigmoid_backward(&cache.sigmoid_out, grad_output);
        let (grad_w, grad_b) = grads.pair_mut(OUT2_W, OUT2_B);
        let mut grad_z_out1 =
            Dense::backward_into(out2_transposed, &cache.a_out1, &grad_z_out2, grad_w, grad_b);
        relu_backward_in_place(&cache.a_out1, &mut grad_z_out1);
        let (grad_w, grad_b) = grads.pair_mut(OUT1_W, OUT1_B);
        let grad_expanded = Dense::backward_into(
            out1_transposed,
            &cache.expanded,
            &grad_z_out1,
            grad_w,
            grad_b,
        );
        let (grad_qvec1, grad_qvec2) = match self.options.expand {
            ExpandMode::Full => expand_full_backward(&cache.qvec1, &cache.qvec2, &grad_expanded),
            ExpandMode::Concat => expand_concat_backward(&grad_expanded),
        };

        let pool = self.segment_pool_kind();
        // The set encoders are input layers over one-hot rows: accumulate their weight
        // gradients by scattering the CSR non-zeros, and skip the (discarded) dL/dx product.
        let mut grad_z1 = segment_pool_backward(cache.v1.offsets(), &grad_qvec1, pool);
        relu_backward_in_place(&cache.a1, &mut grad_z1);
        let (grad_w, grad_b) = grads.pair_mut(MLP1_W, MLP1_B);
        Dense::accumulate_ragged_weights_only(&cache.v1, &grad_z1, grad_w, grad_b);

        let mut grad_z2 = segment_pool_backward(cache.v2.offsets(), &grad_qvec2, pool);
        relu_backward_in_place(&cache.a2, &mut grad_z2);
        let (grad_w, grad_b) = grads.pair_mut(MLP2_W, MLP2_B);
        Dense::accumulate_ragged_weights_only(&cache.v2, &grad_z2, grad_w, grad_b);
    }

    /// The samples `batch` of a featurized corpus as the ragged batches of their pairs' first
    /// and second queries.
    fn pack(
        &self,
        features: &[(SparseRows, SparseRows)],
        batch: &[usize],
    ) -> (RaggedBatch, RaggedBatch) {
        let dim = self.featurizer.vector_dim();
        (
            RaggedBatch::from_sparse_sets(dim, batch.iter().map(|&index| &features[index].0)),
            RaggedBatch::from_sparse_sets(dim, batch.iter().map(|&index| &features[index].1)),
        )
    }

    /// Trains the model on labelled containment pairs; returns the per-epoch history
    /// (used to reproduce Figures 3 and 4).
    ///
    /// This is the one training loop, [`train::fit`].  Each mini-batch runs through the
    /// ragged-batch engine (`crn_nn::batch`), split into shards executed by the
    /// data-parallel pool of [`TrainConfig::parallel`] (`crn_nn::parallel`): every shard runs
    /// the batched forward/backward against the same read-only model into its own gradient
    /// set, and one optimizer pass sums the sets in fixed order and applies the sum
    /// ([`Adam::step_sharded`]).  At `threads = 1` (the default) this is exactly the
    /// one-GEMM-per-batch path; the accumulated gradients are in every mode mathematically
    /// identical to the per-sample reference loop (the parity tests below pin this to 1e-5),
    /// and in deterministic mode bit-identical across thread counts.
    pub fn fit(&mut self, samples: &[ContainmentSample]) -> TrainingHistory {
        train::fit(self, samples)
    }

    /// Warm-start incremental fit: fine-tunes the (already trained) model in place on a
    /// fresh corpus for a fixed number of epochs, **resuming** the caller's [`Adam`].
    ///
    /// This is the continual-learning primitive of the online refresh subsystem
    /// (`crn-online`): the refresh controller clones the live model, fine-tunes the clone
    /// on a replay-buffer mix of fresh feedback and reservoir-sampled history, and
    /// hot-swaps it in only if it passes the validation gate.  Division of labour with
    /// [`CrnModel::fit`]:
    ///
    /// * **Adam state resumes.**  The caller's [`Adam`] holds the first and second moments
    ///   and the step count, so a fine-tune continues the optimizer trajectory of the
    ///   earlier fine-tunes that `Adam` ran, instead of re-warming from step 0.  The model
    ///   carries only its weights: a fresh `Adam` starts from zero moments, whatever
    ///   trained the model before.
    /// * **No validation split, early stopping or best-epoch restore** — the online
    ///   controller owns model selection through its held-out probe gate, so the
    ///   fine-tune runs exactly `epochs` epochs over the whole corpus.  The recorded
    ///   `validation_q_error` is the epoch's mean training loss.
    /// * **Same loop.**  This is [`train::fit_incremental`], the second schedule of the loop
    ///   behind `fit`: every mini-batch shards through the persistent
    ///   [`WorkerPool`](crn_nn::WorkerPool) exactly like `fit` (same forced-CSR
    ///   featurization, same fixed-order gradient reduction), so deterministic mode keeps the
    ///   incremental fit bit-identical across thread counts.
    ///
    /// Shuffling is deterministic per refresh: the RNG is seeded from the config seed and
    /// the optimizer's step count, which advances monotonically across refreshes — each
    /// refresh reshuffles differently, the whole online trajectory stays reproducible.
    pub fn fit_incremental(
        &mut self,
        samples: &[ContainmentSample],
        adam: &mut Adam,
        epochs: usize,
    ) -> TrainingHistory {
        train::fit_incremental(self, samples, adam, epochs)
    }

    /// Predicts the containment rate `q1 ⊂% q2` in `[0, 1]`.
    pub fn predict(&self, q1: &Query, q2: &Query) -> f64 {
        let (v1, v2) = self.featurizer.featurize_pair(q1, q2);
        let out = self.forward_batch_inference(
            &RaggedBatch::from_sets([&v1]),
            &RaggedBatch::from_sets([&v2]),
        );
        out.get(0, 0) as f64
    }

    /// Batched containment prediction against one shared query: for every anchor `aᵢ`
    /// returns `(aᵢ ⊂% query, query ⊂% aᵢ)` — [`ContainmentEstimator::predict_group`] for a
    /// group of one, without prepared anchor state, with no ε screen (`f64::NEG_INFINITY`:
    /// a sigmoid rate is never `−∞`, so every anchor is kept).
    ///
    /// Every anchor and the query are featurized exactly once, then the whole batch runs
    /// through **two** batched head passes, one per containment direction.
    pub fn predict_batch(&self, anchors: &[&Query], query: &Query) -> Vec<(f64, f64)> {
        let rates = self
            .predict_group(anchors, &[query], None, f64::NEG_INFINITY)
            .pop()
            .expect("one rate vector per query");
        debug_assert_eq!(rates.len(), anchors.len(), "no anchor is screened out");
        rates.into_iter().map(|(_, x, y)| (x, y)).collect()
    }

    /// Runs an anchor set through both set encoders once — the per-anchor `(B×H)` query
    /// vectors under `MLP1` and `MLP2` — and through the part of the head that only sees the
    /// anchor ([`CrnModel::head_prefix`]).  This is the whole anchor-side cost of serving,
    /// and it only depends on the (fixed) anchors —
    /// [`ContainmentEstimator::prepare_anchors`] caches it across queries.
    fn encode_anchor_queries(&self, anchors: &[&Query]) -> AnchorEncodings {
        let anchor_sets: Vec<Matrix> = anchors
            .iter()
            .map(|anchor| self.featurizer.featurize(anchor))
            .collect();
        // Forced-CSR packing: featurized rows are the one-hot regime where CSR wins, and a
        // density-routed choice would make the execution path (and the per-row f32 order)
        // depend on which anchors share the batch — sharded serving needs every anchor
        // subset to encode bit-identically to the full set.
        let anchor_batch = RaggedBatch::from_sets_csr(anchor_sets.iter());
        let under_mlp1 = self.encode_sets(&self.mlp1, &anchor_batch);
        AnchorEncodings {
            head_prefix: self.head_prefix(&under_mlp1),
            under_mlp1,
            under_mlp2: self.encode_sets(&self.mlp2, &anchor_batch),
        }
    }

    /// The serving core: pre-encoded anchors against a *group* of queries (the concurrent
    /// front-end's unit of work; a single query is a group of one), ε first.  The
    /// `query ⊂% anchor` head pass runs over all `M·B` pairs in one batch; the
    /// `anchor ⊂% query` pass then runs, in a second batch, only over the pairs whose rate
    /// passed [`passes_epsilon`] — Figure 8 never reads `x` for the others, and at ε = 0.1
    /// they are most of them.
    ///
    /// Each query is featurized and encoded on its own, once under each set encoder: the
    /// ragged-batch CSR-vs-dense routing decision depends on batch density, so packing the
    /// (tiny) per-query encodings together could re-associate their f32 sums.  The head GEMM
    /// computes every output row independently of which rows share its call (the
    /// chain-order contract of [`crn_nn::gemm`]), which is what makes a fused group of `M`
    /// bit-identical to `M` groups of one, and the screened second batch bit-identical to
    /// the unscreened one on every row it keeps — the `EstimatorService` parity tests pin
    /// this.
    ///
    /// No pair ever runs the first `H` columns of `Expand(v1, v2) = [v1, …]` through the
    /// head: they only depend on `v1`, so their chain state ([`CrnModel::head_prefix`]) is
    /// stored per anchor for `anchor ⊂% query` and computed once per query (one `M`-row
    /// product) for `query ⊂% anchor`, and each pair's row resumes from it over the columns
    /// `[v2, |v1 − v2|, v1 ⊙ v2]` — bit-identical to the full pass by the chain-order
    /// argument on [`CrnModel::head_rates`].
    fn serve_group_against_encodings(
        &self,
        encodings: &AnchorEncodings,
        queries: &[&Query],
        epsilon: f64,
    ) -> Vec<Vec<(usize, f64, f64)>> {
        let num_anchors = encodings.under_mlp1.rows();
        if num_anchors == 0 || queries.is_empty() {
            // Must short-circuit: there is no head batch to form (see the regression tests
            // in `cnt2crd`).
            return queries.iter().map(|_| Vec::new()).collect();
        }
        let hidden = self.hidden_size();
        let (tail_dim, head_dim) = (self.out1.input_dim() - hidden, self.out1.output_dim());
        let rows = queries.len() * num_anchors;
        // Each query's encodings under one set encoder, stacked `M×H`.
        let query_batches: Vec<RaggedBatch> = queries
            .iter()
            .map(|query| RaggedBatch::from_sets_csr([&self.featurizer.featurize(query)]))
            .collect();
        let encode_queries = |encoder: &Dense| {
            let mut data = Vec::with_capacity(queries.len() * hidden);
            for batch in &query_batches {
                data.extend_from_slice(self.encode_sets(encoder, batch).data());
            }
            Matrix::from_vec(queries.len(), hidden, data)
        };
        let queries_under_mlp1 = encode_queries(&self.mlp1);
        let queries_under_mlp2 = encode_queries(&self.mlp2);
        let query_prefixes = self.head_prefix(&queries_under_mlp1);

        // `y = query ⊂% anchor` for every pair, one row per (query, anchor) in query-major
        // order: the pairs' expanded columns after the query's `v1` block, resumed from the
        // query's chain state.
        let mut y_tails = Matrix::zeros(rows, tail_dim);
        let mut y_chains = Vec::with_capacity(rows * head_dim);
        for q in 0..queries.len() {
            for i in 0..num_anchors {
                self.expand_tail(
                    queries_under_mlp1.row(q),
                    encodings.under_mlp2.row(i),
                    y_tails.row_mut(q * num_anchors + i),
                );
                y_chains.extend_from_slice(query_prefixes.row(q));
            }
        }
        let y_rates = self.head_rates(
            &y_tails,
            hidden,
            Some(Matrix::from_vec(rows, head_dim, y_chains)),
        );
        // The pairs that pass ε, as (query, anchor, y) in the same order.
        let kept: Vec<(usize, usize, f64)> = (0..rows)
            .map(|row| {
                (
                    row / num_anchors,
                    row % num_anchors,
                    y_rates.get(row, 0) as f64,
                )
            })
            .filter(|&(_, _, y_rate)| passes_epsilon(y_rate, epsilon))
            .collect();

        let mut survivors = vec![Vec::new(); queries.len()];
        if kept.is_empty() {
            return survivors;
        }
        // `x = anchor ⊂% query` for the kept pairs only (the anchor feeds MLP1, the query
        // MLP2), resumed from the anchor's stored chain state.
        let mut x_tails = Matrix::zeros(kept.len(), tail_dim);
        let mut x_chains = Vec::with_capacity(kept.len() * head_dim);
        for (row, &(q, i, _)) in kept.iter().enumerate() {
            self.expand_tail(
                encodings.under_mlp1.row(i),
                queries_under_mlp2.row(q),
                x_tails.row_mut(row),
            );
            x_chains.extend_from_slice(encodings.head_prefix.row(i));
        }
        let x_rates = self.head_rates(
            &x_tails,
            hidden,
            Some(Matrix::from_vec(kept.len(), head_dim, x_chains)),
        );
        for (row, (q, i, y_rate)) in kept.into_iter().enumerate() {
            survivors[q].push((i, x_rates.get(row, 0) as f64, y_rate));
        }
        survivors
    }

    /// Writes the columns of `Expand(v1, v2)` after the leading `v1` block into `out`:
    /// `[v2, |v1 − v2|, v1 ⊙ v2]` (`[v2]` for plain concatenation), exactly the values
    /// [`CrnModel::expand_pairs`] puts there.
    fn expand_tail(&self, v1: &[f32], v2: &[f32], out: &mut [f32]) {
        match self.options.expand {
            ExpandMode::Full => expand_full_tail(v1, v2, out),
            ExpandMode::Concat => out.copy_from_slice(v2),
        }
    }
}

/// Pre-encoded anchor set: the per-anchor pooled representations under both set encoders
/// (the cacheable anchor-side state of the Cnt2Crd serving path), plus — for the
/// `anchor ⊂% query` direction, where the anchor is `v1` — the head's chain state after the
/// `v1` block of `Expand` (`under_mlp1 · out1.w[0..H]`, `B×2H`), which every query resumes
/// from instead of recomputing ([`CrnModel::serve_group_against_encodings`]).
struct AnchorEncodings {
    under_mlp1: Matrix,
    under_mlp2: Matrix,
    head_prefix: Matrix,
}

impl ContainmentEstimator for CrnModel {
    fn name(&self) -> &str {
        "CRN"
    }

    fn estimate_containment(&self, q1: &Query, q2: &Query) -> f64 {
        self.predict(q1, q2)
    }

    /// Fused, ε-first group serving (see `CrnModel::serve_group_against_encodings`)
    /// against the prepared anchor encodings — or, without usable prepared state, against
    /// encodings built here by the same function, so both ways are bit-identical.
    fn predict_group(
        &self,
        anchors: &[&Query],
        queries: &[&Query],
        prepared: Option<&(dyn std::any::Any + Send + Sync)>,
        epsilon: f64,
    ) -> Vec<Vec<(usize, f64, f64)>> {
        if anchors.is_empty() {
            // Never reaches the GEMM path, whatever serving state the caller cached.
            return queries.iter().map(|_| Vec::new()).collect();
        }
        match prepared.and_then(|state| state.downcast_ref::<AnchorEncodings>()) {
            Some(encodings) if encodings.under_mlp1.rows() == anchors.len() => {
                self.serve_group_against_encodings(encodings, queries, epsilon)
            }
            _ => self.serve_group_against_encodings(
                &self.encode_anchor_queries(anchors),
                queries,
                epsilon,
            ),
        }
    }

    /// The CRN serving state for a fixed anchor set is its encoded form: the pooled `(B×H)`
    /// representations under both set encoders.  With it cached, an incoming query pays only
    /// for its own featurization + encoding and the two batched head passes.
    fn prepare_anchors(&self, anchors: &[&Query]) -> Option<Box<dyn std::any::Any + Send + Sync>> {
        if anchors.is_empty() {
            return None;
        }
        Some(Box::new(self.encode_anchor_queries(anchors)))
    }
}

/// What the one training loop ([`crn_nn::train`]) needs of CRN.
impl Trainable for CrnModel {
    type Sample = ContainmentSample;
    type Features = (SparseRows, SparseRows);

    const SHUFFLE_SEED_OFFSET: u64 = 7;
    const FLOOR: f32 = RATE_FLOOR;

    fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Both queries as CSR rows, once per run: mini-batches are then assembled by
    /// concatenating per-sample non-zeros, with no dense row copies or scans in the loop.
    fn featurize(&self, sample: &ContainmentSample) -> Self::Features {
        (
            self.featurizer.featurize_sparse(&sample.q1),
            self.featurizer.featurize_sparse(&sample.q2),
        )
    }

    fn target(sample: &ContainmentSample) -> f32 {
        sample.rate as f32
    }

    /// The per-shard step: forward, per-sample losses, backward into the shard's set.
    fn train_shard(
        &self,
        panels: &[PackedWeights],
        features: &[Self::Features],
        targets: &[f32],
        shard: &[usize],
        batch_scale: f32,
        grads: &mut GradientSet,
    ) -> Vec<f32> {
        let (v1, v2) = self.pack(features, shard);
        let cache = self.forward_batch(v1, v2);
        let mut losses = Vec::with_capacity(shard.len());
        let mut grad_output = Matrix::zeros(shard.len(), 1);
        for (position, &index) in shard.iter().enumerate() {
            let prediction = cache.sigmoid_out.get(position, 0);
            let loss = loss_and_grad(self.config.loss, prediction, targets[index], RATE_FLOOR);
            losses.push(loss.loss);
            grad_output.set(position, 0, loss.grad * batch_scale);
        }
        self.backward_batch_into(panels, &cache, &grad_output, grads);
        losses
    }

    fn predict_chunk(&self, features: &[Self::Features], chunk: &[usize]) -> Vec<f64> {
        let (v1, v2) = self.pack(features, chunk);
        let rates = self.forward_batch_inference(&v1, &v2);
        rates.data().iter().map(|&rate| rate as f64).collect()
    }

    /// `MLPout`'s: the set encoders are input layers and propagate nothing.
    fn backward_weights(&self) -> Vec<&Matrix> {
        vec![&self.out1.w, &self.out2.w]
    }

    fn gradient_shapes(&self) -> Vec<(usize, usize)> {
        let layers = [&self.mlp1, &self.mlp2, &self.out1, &self.out2];
        layers.into_iter().flat_map(Dense::grad_shapes).collect()
    }

    /// All trainable parameters in `grad_index` order.  Whoever holds them may change
    /// `out1`'s weights, so the packed copy goes first.
    fn params_vec_mut(&mut self) -> Vec<&mut Matrix> {
        self.packed_out1 = PackedHead::default();
        let layers = [
            &mut self.mlp1,
            &mut self.mlp2,
            &mut self.out1,
            &mut self.out2,
        ];
        layers.into_iter().flat_map(Dense::params_mut).collect()
    }
}

/// Forward-pass cache of one pair for the seed-faithful per-sample reference path (the
/// pre-batching implementation kept as the baseline of the parity tests).
#[cfg(test)]
struct PairCache {
    v1: Matrix,
    v2: Matrix,
    z1: Matrix,
    a1: Matrix,
    z2: Matrix,
    a2: Matrix,
    qvec1: Matrix,
    qvec2: Matrix,
    expanded: Matrix,
    z_out1: Matrix,
    a_out1: Matrix,
    sigmoid_out: Matrix,
}

/// The per-sample reference: the implementation before the ragged-batch engine, with its
/// own training loop — what the parity tests measure [`CrnModel::fit`] against.
#[cfg(test)]
impl CrnModel {
    /// Seed-faithful single-pair forward pass: 1-row matrices end to end, scalar pooling and
    /// `Expand`, the full backward including the input layers' discarded `dL/dx` — exactly
    /// the implementation this repository shipped before the ragged-batch engine.  This is
    /// the *baseline* the parity tests compare the engine against,
    /// so it deliberately does not share the engine's execution path.
    fn forward_pair_reference(&self, v1: &Matrix, v2: &Matrix) -> PairCache {
        let pool = |activated: &Matrix| -> Matrix {
            match self.options.pooling {
                Pooling::Mean => crn_nn::layers::mean_pool(activated),
                Pooling::Sum => {
                    let mut pooled = Matrix::zeros(1, activated.cols());
                    pooled.row_mut(0).copy_from_slice(&activated.column_sums());
                    pooled
                }
            }
        };
        let z1 = self.mlp1.forward_sparse(v1);
        let a1 = relu(&z1);
        let qvec1 = pool(&a1);
        let z2 = self.mlp2.forward_sparse(v2);
        let a2 = relu(&z2);
        let qvec2 = pool(&a2);
        let expanded = match self.options.expand {
            ExpandMode::Full => expand_full(&qvec1, &qvec2),
            ExpandMode::Concat => expand_concat(&qvec1, &qvec2),
        };
        let z_out1 = self.out1.forward_sparse(&expanded);
        let a_out1 = relu(&z_out1);
        let z_out2 = self.out2.forward_sparse(&a_out1);
        let sigmoid_out = sigmoid(&z_out2);
        PairCache {
            v1: v1.clone(),
            v2: v2.clone(),
            z1,
            a1,
            z2,
            a2,
            qvec1,
            qvec2,
            expanded,
            z_out1,
            a_out1,
            sigmoid_out,
        }
    }

    /// Seed-faithful single-pair backward pass (see [`CrnModel::forward_pair_reference`]) of
    /// `g = dL/d sigmoid_out`, accumulating into `grads` (layout: [`grad_index`]).
    fn backward_pair_reference(&self, cache: &PairCache, g: f32, grads: &mut GradientSet) {
        use grad_index::*;
        let grad_z_out2 = sigmoid_backward(&cache.sigmoid_out, &Matrix::from_vec(1, 1, vec![g]));
        let (w, b) = grads.pair_mut(OUT2_W, OUT2_B);
        let grad_a_out1 = self.out2.backward(&cache.a_out1, &grad_z_out2, w, b);
        let grad_z_out1 = relu_backward(&cache.z_out1, &grad_a_out1);
        let (w, b) = grads.pair_mut(OUT1_W, OUT1_B);
        let grad_expanded = self.out1.backward(&cache.expanded, &grad_z_out1, w, b);
        let (grad_qvec1, grad_qvec2) = match self.options.expand {
            ExpandMode::Full => expand_full_backward(&cache.qvec1, &cache.qvec2, &grad_expanded),
            ExpandMode::Concat => expand_concat_backward(&grad_expanded),
        };
        let pool_backward = |num_rows: usize, grad_pooled: &Matrix| -> Matrix {
            match self.options.pooling {
                Pooling::Mean => crn_nn::layers::mean_pool_backward(num_rows, grad_pooled),
                Pooling::Sum => {
                    let mut grad = Matrix::zeros(num_rows, grad_pooled.cols());
                    for r in 0..num_rows {
                        grad.row_mut(r).copy_from_slice(grad_pooled.row(0));
                    }
                    grad
                }
            }
        };
        let grad_a1 = pool_backward(cache.a1.rows(), &grad_qvec1);
        let grad_z1 = relu_backward(&cache.z1, &grad_a1);
        let (w, b) = grads.pair_mut(MLP1_W, MLP1_B);
        let _ = self.mlp1.backward(&cache.v1, &grad_z1, w, b);
        let grad_a2 = pool_backward(cache.a2.rows(), &grad_qvec2);
        let grad_z2 = relu_backward(&cache.z2, &grad_a2);
        let (w, b) = grads.pair_mut(MLP2_W, MLP2_B);
        let _ = self.mlp2.backward(&cache.v2, &grad_z2, w, b);
    }

    /// Reference per-sample training loop: the pre-batching implementation, issuing one
    /// forward and one backward per pair.
    ///
    /// Kept so the parity tests can compare the batched [`CrnModel::fit`] against it.
    fn fit_reference(&mut self, samples: &[ContainmentSample]) -> TrainingHistory {
        let features: Vec<(Matrix, Matrix)> = samples
            .iter()
            .map(|s| self.featurizer.featurize_pair(&s.q1, &s.q2))
            .collect();
        let targets: Vec<f32> = samples.iter().map(|s| s.rate as f32).collect();

        let (train_idx, valid_idx) = train_validation_split(
            samples.len(),
            self.config.validation_fraction,
            self.config.seed,
        );
        let mut adam = Adam::new(self.config.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(7));
        let mut early_stopping = EarlyStopping::new(self.config.patience);
        let mut history = TrainingHistory::default();
        let mut best: Option<CrnModel> = None;

        for epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0f64;
            let mut epoch_samples = 0usize;
            for batch in shuffled_batches(&train_idx, self.config.batch_size, &mut rng) {
                let mut grads = GradientSet::zeros(&self.gradient_shapes());
                for &index in &batch {
                    let (v1, v2) = &features[index];
                    let cache = self.forward_pair_reference(v1, v2);
                    let prediction = cache.sigmoid_out.get(0, 0);
                    let loss =
                        loss_and_grad(self.config.loss, prediction, targets[index], RATE_FLOOR);
                    epoch_loss += loss.loss as f64;
                    epoch_samples += 1;
                    let grad = loss.grad / batch.len() as f32;
                    self.backward_pair_reference(&cache, grad, &mut grads);
                }
                adam.step_with(self.params_vec_mut(), grads.parts());
            }

            let validation_q_error = if valid_idx.is_empty() {
                epoch_loss / epoch_samples.max(1) as f64
            } else {
                let pairs: Vec<(f64, f64)> = valid_idx
                    .iter()
                    .map(|&i| {
                        let (v1, v2) = &features[i];
                        let prediction =
                            self.forward_pair_reference(v1, v2).sigmoid_out.get(0, 0) as f64;
                        (prediction, targets[i] as f64)
                    })
                    .collect();
                mean_q_error(&pairs, RATE_FLOOR as f64)
            };
            let improved = history.record(EpochStats {
                epoch,
                train_loss: epoch_loss / epoch_samples.max(1) as f64,
                validation_q_error,
            });
            if improved {
                best = Some(self.clone());
            }
            if early_stopping.should_stop(!improved) {
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
    use crn_exec::label_containment_pairs;
    use crn_nn::batch::shard_ranges;
    use crn_nn::parallel::{reduce_gradients, ThreadPoolConfig};
    use crn_query::generator::{GeneratorConfig, QueryGenerator};

    fn training_pairs(db: &Database, pairs: usize, seed: u64) -> Vec<ContainmentSample> {
        let mut gen = QueryGenerator::new(db, GeneratorConfig::paper(seed));
        let raw = gen.generate_pairs(pairs / 4 + 5, pairs);
        label_containment_pairs(db, &raw, 4)
    }

    #[test]
    fn untrained_model_outputs_valid_rates() {
        let db = generate_imdb(&ImdbConfig::tiny(10));
        let model = CrnModel::new(&db, TrainConfig::fast_test());
        let q = Query::scan("title");
        let rate = model.predict(&q, &q);
        assert!((0.0..=1.0).contains(&rate));
        assert_eq!(model.name(), "CRN");
        assert!(model.num_params() > 0);
    }

    #[test]
    fn parameter_count_matches_papers_closed_form() {
        // The paper (§3.5.3) counts 2·L·H + 8·H² + 6·H + 1 parameters: two set encoders
        // (L·H + H each), MLPout layer 1 (4H·2H + 2H) and layer 2 (2H·1 + 1).
        let db = generate_imdb(&ImdbConfig::tiny(10));
        let config = TrainConfig {
            hidden_size: 8,
            ..TrainConfig::fast_test()
        };
        let model = CrnModel::new(&db, config);
        let l = model.featurizer().vector_dim();
        let h = 8usize;
        let expected = 2 * l * h + 8 * h * h + 6 * h + 1;
        assert_eq!(model.num_params(), expected);
    }

    #[test]
    fn training_improves_validation_q_error() {
        let db = generate_imdb(&ImdbConfig::tiny(11));
        let samples = training_pairs(&db, 200, 11);
        let mut config = TrainConfig::fast_test();
        config.epochs = 20;
        let mut model = CrnModel::new(&db, config);
        let history = model.fit(&samples);
        assert!(!history.is_empty());
        assert!(
            history.best_validation <= history.epochs[0].validation_q_error,
            "best {} should improve on first {}",
            history.best_validation,
            history.epochs[0].validation_q_error
        );
    }

    #[test]
    fn trained_model_separates_full_and_empty_containment() {
        let db = generate_imdb(&ImdbConfig::tiny(12));
        let samples = training_pairs(&db, 300, 12);
        let mut config = TrainConfig::fast_test();
        config.epochs = 25;
        let mut model = CrnModel::new(&db, config);
        model.fit(&samples);
        // Fully-contained pairs (rate 1.0) should on average get higher predictions than
        // disjoint pairs (rate 0.0).
        let full: Vec<f64> = samples
            .iter()
            .filter(|s| s.rate >= 0.999)
            .take(20)
            .map(|s| model.predict(&s.q1, &s.q2))
            .collect();
        let empty: Vec<f64> = samples
            .iter()
            .filter(|s| s.rate <= 0.001)
            .take(20)
            .map(|s| model.predict(&s.q1, &s.q2))
            .collect();
        if full.len() >= 5 && empty.len() >= 5 {
            let mean_full: f64 = full.iter().sum::<f64>() / full.len() as f64;
            let mean_empty: f64 = empty.iter().sum::<f64>() / empty.len() as f64;
            assert!(
                mean_full > mean_empty,
                "full containment should score higher ({mean_full:.3}) than empty ({mean_empty:.3})"
            );
        }
    }

    #[test]
    fn ablation_variants_run_end_to_end() {
        let db = generate_imdb(&ImdbConfig::tiny(13));
        let samples = training_pairs(&db, 80, 13);
        for options in [
            CrnOptions {
                pooling: Pooling::Sum,
                expand: ExpandMode::Full,
            },
            CrnOptions {
                pooling: Pooling::Mean,
                expand: ExpandMode::Concat,
            },
        ] {
            let mut model = CrnModel::with_options(&db, TrainConfig::fast_test(), options);
            let history = model.fit(&samples);
            assert!(!history.is_empty());
            let rate = model.predict(&samples[0].q1, &samples[0].q2);
            assert!((0.0..=1.0).contains(&rate), "options {options:?}");
        }
    }

    #[test]
    fn prediction_is_deterministic() {
        let db = generate_imdb(&ImdbConfig::tiny(14));
        let samples = training_pairs(&db, 60, 14);
        let mut model = CrnModel::new(&db, TrainConfig::fast_test());
        model.fit(&samples);
        let (q1, q2) = (&samples[0].q1, &samples[0].q2);
        assert_eq!(model.predict(q1, q2), model.predict(q1, q2));
    }

    /// The batched forward pass must agree with per-pair forwards to float tolerance, for
    /// every pooling/expand ablation.
    #[test]
    fn batched_forward_matches_per_pair_forward() {
        let db = generate_imdb(&ImdbConfig::tiny(16));
        let samples = training_pairs(&db, 40, 16);
        for options in [
            CrnOptions::default(),
            CrnOptions {
                pooling: Pooling::Sum,
                expand: ExpandMode::Full,
            },
            CrnOptions {
                pooling: Pooling::Mean,
                expand: ExpandMode::Concat,
            },
        ] {
            let model = CrnModel::with_options(&db, TrainConfig::fast_test(), options);
            let features: Vec<(Matrix, Matrix)> = samples
                .iter()
                .map(|s| model.featurizer.featurize_pair(&s.q1, &s.q2))
                .collect();
            let batch1 = RaggedBatch::from_sets(features.iter().map(|(v1, _)| v1));
            let batch2 = RaggedBatch::from_sets(features.iter().map(|(_, v2)| v2));
            let batched = model.forward_batch(batch1, batch2).sigmoid_out;
            for (index, (v1, v2)) in features.iter().enumerate() {
                let single = model.forward_pair_reference(v1, v2).sigmoid_out.get(0, 0);
                assert!(
                    (batched.get(index, 0) - single).abs() < 1e-5,
                    "options {options:?}, pair {index}: batched {} vs single {single}",
                    batched.get(index, 0)
                );
            }
        }
    }

    /// The batched backward pass must accumulate the same parameter gradients as the
    /// per-sample loop, to 1e-5.
    #[test]
    fn batched_gradients_match_per_sample_accumulation() {
        let db = generate_imdb(&ImdbConfig::tiny(17));
        let samples = training_pairs(&db, 24, 17);
        for options in [
            CrnOptions::default(),
            CrnOptions {
                pooling: Pooling::Sum,
                expand: ExpandMode::Concat,
            },
        ] {
            let model = CrnModel::with_options(&db, TrainConfig::fast_test(), options);
            let features: Vec<(Matrix, Matrix)> = samples
                .iter()
                .map(|s| model.featurizer.featurize_pair(&s.q1, &s.q2))
                .collect();
            let scale = 1.0 / samples.len() as f32;

            // Per-sample accumulation (the seed-faithful reference path).
            let mut reference = GradientSet::zeros(&model.gradient_shapes());
            for (sample, (v1, v2)) in samples.iter().zip(&features) {
                let cache = model.forward_pair_reference(v1, v2);
                let loss = loss_and_grad(
                    crn_nn::LossKind::QError,
                    cache.sigmoid_out.get(0, 0),
                    sample.rate as f32,
                    RATE_FLOOR,
                );
                model.backward_pair_reference(&cache, loss.grad * scale, &mut reference);
            }

            // One batched backward.
            let batch1 = RaggedBatch::from_sets(features.iter().map(|(v1, _)| v1));
            let batch2 = RaggedBatch::from_sets(features.iter().map(|(_, v2)| v2));
            let cache = model.forward_batch(batch1, batch2);
            let mut grad = Matrix::zeros(samples.len(), 1);
            for (index, sample) in samples.iter().enumerate() {
                let loss = loss_and_grad(
                    crn_nn::LossKind::QError,
                    cache.sigmoid_out.get(index, 0),
                    sample.rate as f32,
                    RATE_FLOOR,
                );
                grad.set(index, 0, loss.grad * scale);
            }
            let batched = model.backward_batch(&cache, &grad);

            for (name, index) in [
                ("mlp1.w", grad_index::MLP1_W),
                ("mlp1.b", grad_index::MLP1_B),
                ("mlp2.w", grad_index::MLP2_W),
                ("out1.w", grad_index::OUT1_W),
                ("out2.w", grad_index::OUT2_W),
                ("out2.b", grad_index::OUT2_B),
            ] {
                let (batched, reference) = (&batched.parts()[index], &reference.parts()[index]);
                for (index, (a, b)) in batched.data().iter().zip(reference.data()).enumerate() {
                    // 1e-5 relative tolerance: the batched path re-associates the same f32
                    // sums, so tiny rounding differences scale with the gradient magnitude.
                    assert!(
                        (a - b).abs() < 1e-5 * b.abs().max(1.0),
                        "options {options:?}, {name}[{index}]: batched {a} vs per-sample {b}"
                    );
                }
            }
        }
    }

    /// `predict_batch` must return exactly what per-pair `predict` calls return, in both
    /// containment directions.
    #[test]
    fn predict_batch_matches_sequential_predictions() {
        let db = generate_imdb(&ImdbConfig::tiny(18));
        let samples = training_pairs(&db, 30, 18);
        let mut model = CrnModel::new(&db, TrainConfig::fast_test());
        model.fit(&samples);
        let query = &samples[0].q1;
        let anchors: Vec<&Query> = samples.iter().take(12).map(|s| &s.q2).collect();
        let batched = model.predict_batch(&anchors, query);
        assert_eq!(batched.len(), anchors.len());
        for (anchor, (forward, backward)) in anchors.iter().zip(&batched) {
            assert!((forward - model.predict(anchor, query)).abs() < 1e-5);
            assert!((backward - model.predict(query, anchor)).abs() < 1e-5);
        }
        assert!(model.predict_batch(&[], query).is_empty());
    }

    /// The batched and reference training loops see identical losses on the first epoch and
    /// both produce working models.
    #[test]
    fn fit_and_fit_reference_trace_the_same_first_epoch() {
        let db = generate_imdb(&ImdbConfig::tiny(21));
        let samples = training_pairs(&db, 100, 21);
        let config = TrainConfig {
            epochs: 1,
            ..TrainConfig::fast_test()
        };
        let mut batched = CrnModel::new(&db, config.clone());
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
        let db = generate_imdb(&ImdbConfig::tiny(26));
        let samples = training_pairs(&db, 60, 26);
        let config = TrainConfig {
            epochs: 12,
            learning_rate: 0.01,
            patience: None,
            parallel: ThreadPoolConfig::deterministic(2),
            ..TrainConfig::fast_test()
        };
        let mut model = CrnModel::new(&db, config);
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

    /// Deterministic mode must be **bit-identical** across thread counts: the shard
    /// partition and the gradient-reduction order are canonical, so `threads = 1, 2, 4`
    /// must produce the same per-epoch losses, the same validation trace and the same
    /// trained parameters — not merely close ones.
    #[test]
    fn deterministic_parallel_fit_is_thread_count_invariant() {
        let db = generate_imdb(&ImdbConfig::tiny(22));
        let samples = training_pairs(&db, 120, 22);
        let make_config = |threads: usize| TrainConfig {
            epochs: 2,
            patience: None,
            parallel: ThreadPoolConfig::deterministic(threads),
            ..TrainConfig::fast_test()
        };
        let mut baseline = CrnModel::new(&db, make_config(1));
        let baseline_history = baseline.fit(&samples);
        for threads in [2, 4] {
            let mut model = CrnModel::new(&db, make_config(threads));
            let history = model.fit(&samples);
            assert_eq!(
                history.epochs.len(),
                baseline_history.epochs.len(),
                "threads = {threads}"
            );
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
            for (sample, _) in samples.iter().zip(0..10) {
                assert_eq!(
                    model.predict(&sample.q1, &sample.q2),
                    baseline.predict(&sample.q1, &sample.q2),
                    "threads = {threads}: deterministic predictions must be identical"
                );
            }
            assert_eq!(
                model.mlp1.w, baseline.mlp1.w,
                "threads = {threads}: trained weights must be identical"
            );
        }
    }

    /// The deterministic parallel path must stay pinned to the seed-faithful per-sample
    /// reference: after two epochs at `threads = 1, 2, 4`, losses and predictions agree
    /// with [`CrnModel::fit_reference`] to 1e-5 (relative) — the same reassociation
    /// tolerance the PR-1 parity tests established.
    #[test]
    fn parallel_fit_matches_fit_reference_across_thread_counts() {
        let db = generate_imdb(&ImdbConfig::tiny(23));
        let samples = training_pairs(&db, 120, 23);
        let config = TrainConfig {
            epochs: 2,
            patience: None,
            parallel: ThreadPoolConfig::single_threaded(),
            ..TrainConfig::fast_test()
        };
        let mut reference = CrnModel::new(&db, config.clone());
        let reference_history = reference.fit_reference(&samples);
        let reference_predictions: Vec<f64> = samples
            .iter()
            .take(10)
            .map(|s| reference.predict(&s.q1, &s.q2))
            .collect();
        for threads in [1usize, 2, 4] {
            let mut parallel_config = config.clone();
            parallel_config.parallel = ThreadPoolConfig::deterministic(threads);
            let mut model = CrnModel::new(&db, parallel_config);
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
                let prediction = model.predict(&sample.q1, &sample.q2);
                assert!(
                    (prediction - expected).abs() < 1e-5,
                    "threads = {threads}, pair {index}: prediction {prediction} vs reference {expected}"
                );
            }
        }
    }

    /// The sharded backward (slice → per-shard backward → fixed-order reduction) must
    /// accumulate the same parameter gradients as the per-sample reference loop, to 1e-5
    /// relative — for several shard counts and for both reduction orders.
    #[test]
    fn sharded_gradients_match_per_sample_accumulation() {
        let db = generate_imdb(&ImdbConfig::tiny(24));
        let samples = training_pairs(&db, 24, 24);
        let reference_model = CrnModel::new(&db, TrainConfig::fast_test());
        let features: Vec<(Matrix, Matrix)> = samples
            .iter()
            .map(|s| reference_model.featurizer.featurize_pair(&s.q1, &s.q2))
            .collect();
        let scale = 1.0 / samples.len() as f32;

        // Per-sample accumulation (the seed-faithful reference path).
        let mut reference = GradientSet::zeros(&reference_model.gradient_shapes());
        for (sample, (v1, v2)) in samples.iter().zip(&features) {
            let cache = reference_model.forward_pair_reference(v1, v2);
            let loss = loss_and_grad(
                crn_nn::LossKind::QError,
                cache.sigmoid_out.get(0, 0),
                sample.rate as f32,
                RATE_FLOOR,
            );
            reference_model.backward_pair_reference(&cache, loss.grad * scale, &mut reference);
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
            let model = CrnModel::new(&db, config);
            let (losses, grads) = train::batch_gradients(&model, &samples);
            assert_eq!(losses.len(), samples.len());
            for (name, index) in [
                ("mlp1.w", grad_index::MLP1_W),
                ("mlp1.b", grad_index::MLP1_B),
                ("mlp2.w", grad_index::MLP2_W),
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

    /// Finite-difference check of the full CRN backward pass (including Expand).
    #[test]
    fn gradient_check_full_model() {
        let db = generate_imdb(&ImdbConfig::tiny(15));
        let config = TrainConfig {
            hidden_size: 6,
            ..TrainConfig::fast_test()
        };
        let mut model = CrnModel::new(&db, config);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::paper(15));
        let pairs = gen.generate_pairs(5, 5);
        let (q1, q2) = &pairs[0];
        let (v1, v2) = model.featurizer.featurize_pair(q1, q2);
        let target = 0.35f32;

        // Analytic gradient of the q-error loss with respect to a few weights of mlp1 and out1.
        let cache = model.forward_pair_reference(&v1, &v2);
        let prediction = cache.sigmoid_out.get(0, 0);
        let loss = loss_and_grad(crn_nn::LossKind::QError, prediction, target, RATE_FLOOR);
        let mut grads = GradientSet::zeros(&model.gradient_shapes());
        model.backward_pair_reference(&cache, loss.grad, &mut grads);

        let loss_value = |model: &CrnModel| {
            let p = model.forward_pair_reference(&v1, &v2).sigmoid_out.get(0, 0);
            loss_and_grad(crn_nn::LossKind::QError, p, target, RATE_FLOOR).loss
        };
        let eps = 1e-2f32;
        for (row, col) in [(0usize, 0usize), (3, 2), (7, 5)] {
            let analytic = grads.parts()[grad_index::MLP1_W].get(row, col);
            let original = model.mlp1.w.get(row, col);
            model.mlp1.w.set(row, col, original + eps);
            let plus = loss_value(&model);
            model.mlp1.w.set(row, col, original - eps);
            let minus = loss_value(&model);
            model.mlp1.w.set(row, col, original);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 0.05,
                "mlp1 ({row},{col}): numeric {numeric} vs analytic {analytic}"
            );
        }
        for (row, col) in [(0usize, 0usize), (5, 3)] {
            let analytic = grads.parts()[grad_index::OUT1_W].get(row, col);
            let original = model.out1.w.get(row, col);
            model.out1.w.set(row, col, original + eps);
            let plus = loss_value(&model);
            model.out1.w.set(row, col, original - eps);
            let minus = loss_value(&model);
            model.out1.w.set(row, col, original);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 0.05,
                "out1 ({row},{col}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// The warm-start incremental fit adapts a trained model to a fresh corpus (its
    /// training loss on that corpus drops), runs exactly the requested epochs, and is
    /// deterministic: two clones fine-tuned with cloned Adam states come out bit-identical.
    #[test]
    fn fit_incremental_adapts_and_is_deterministic() {
        let db = generate_imdb(&ImdbConfig::tiny(26));
        let base_samples = training_pairs(&db, 120, 26);
        let mut model = CrnModel::new(&db, TrainConfig::fast_test());
        model.fit(&base_samples);

        // A "fresh feedback" corpus the base fit never saw.
        let fresh = training_pairs(&db, 60, 27);
        let mut adam = Adam::new(model.config().learning_rate);
        let mut tuned = model.clone();
        let history = tuned.fit_incremental(&fresh, &mut adam, 4);
        assert_eq!(history.len(), 4, "no early stopping in incremental mode");
        assert!(adam.step_count > 0, "the caller's Adam state advanced");
        assert!(
            history.epochs.last().unwrap().train_loss < history.epochs[0].train_loss,
            "fine-tuning must reduce the training loss on the fresh corpus \
             (first {}, last {})",
            history.epochs[0].train_loss,
            history.epochs.last().unwrap().train_loss
        );

        // Determinism: same start, same corpus, same Adam state -> bit-identical weights.
        let mut adam_again = Adam::new(model.config().learning_rate);
        let mut tuned_again = model.clone();
        let history_again = tuned_again.fit_incremental(&fresh, &mut adam_again, 4);
        assert_eq!(history.epochs, history_again.epochs);
        assert_eq!(tuned.mlp1.w, tuned_again.mlp1.w);
        assert_eq!(tuned.out2.w, tuned_again.out2.w);
        assert_eq!(adam.step_count, adam_again.step_count);

        // Resuming the same Adam for a second refresh keeps advancing (and reshuffles:
        // the second refresh's first epoch differs from re-running the first).
        let steps_after_first = adam.step_count;
        let second = tuned.fit_incremental(&fresh, &mut adam, 1);
        assert_eq!(second.len(), 1);
        assert!(adam.step_count > steps_after_first);

        // Degenerate inputs are no-ops.
        let mut untouched = model.clone();
        assert!(untouched.fit_incremental(&[], &mut adam, 3).is_empty());
        assert!(untouched.fit_incremental(&fresh, &mut adam, 0).is_empty());
        assert_eq!(untouched.mlp1.w, model.mlp1.w);
    }

    /// Deterministic mode carries over to the incremental fit: at `threads = 1, 2, 4`
    /// the fine-tuned models are bit-identical (same canonical shards, same reduction
    /// order — the online refresh keeps the repository's reproducibility story).
    #[test]
    fn fit_incremental_is_bit_identical_across_thread_counts_in_deterministic_mode() {
        let db = generate_imdb(&ImdbConfig::tiny(28));
        let base_samples = training_pairs(&db, 100, 28);
        let fresh = training_pairs(&db, 50, 29);
        let mut baseline: Option<CrnModel> = None;
        for threads in [1usize, 2, 4] {
            let mut config = TrainConfig::fast_test();
            config.parallel = ThreadPoolConfig::deterministic(threads);
            let mut model = CrnModel::new(&db, config);
            model.fit(&base_samples);
            let mut adam = Adam::new(model.config().learning_rate);
            model.fit_incremental(&fresh, &mut adam, 3);
            match &baseline {
                None => baseline = Some(model),
                Some(reference) => {
                    assert_eq!(
                        model.mlp1.w, reference.mlp1.w,
                        "threads = {threads}: deterministic incremental weights must match"
                    );
                    assert_eq!(model.out1.w, reference.out1.w);
                    assert_eq!(model.out2.w, reference.out2.w);
                    for sample in fresh.iter().take(8) {
                        assert_eq!(
                            model.predict(&sample.q1, &sample.q2),
                            reference.predict(&sample.q1, &sample.q2),
                            "threads = {threads}: deterministic predictions must match"
                        );
                    }
                }
            }
        }
    }

    /// The training step of the parent commit, written out from primitives — what the
    /// packed, strided and fused kernels of the training loop's step must reproduce bit for bit:
    /// features scanned back out of dense one-hot rows, every dense backward product as an
    /// explicit `transpose()` + `matmul` + `add_assign` into a freshly zeroed set per shard,
    /// `reduce_gradients` in canonical order, and an Adam loop that stores what it computes,
    /// subnormal or not, into moments of its own (`adam` keeps only the hyperparameters and
    /// the step count).
    struct ParentTrainer {
        model: CrnModel,
        adam: Adam,
        m: Vec<Matrix>,
        v: Vec<Matrix>,
    }

    impl ParentTrainer {
        /// A fresh optimizer: step 0, zero moments.
        fn new(model: CrnModel) -> Self {
            let mut parent = ParentTrainer {
                model,
                adam: Adam::default(),
                m: Vec::new(),
                v: Vec::new(),
            };
            parent.reset_optimizer();
            parent
        }

        fn reset_optimizer(&mut self) {
            self.adam = Adam::new(self.model.config.learning_rate);
            let zeros = |&(rows, cols): &(usize, usize)| Matrix::zeros(rows, cols);
            self.m = self.model.gradient_shapes().iter().map(zeros).collect();
            self.v = self.m.clone();
        }

        fn featurize(&self, samples: &[ContainmentSample]) -> Vec<(SparseRows, SparseRows)> {
            samples
                .iter()
                .map(|s| {
                    let (v1, v2) = self.model.featurizer.featurize_pair(&s.q1, &s.q2);
                    (SparseRows::from_matrix(&v1), SparseRows::from_matrix(&v2))
                })
                .collect()
        }

        /// `(dL/dW, dL/db, dL/dx)` of one dense layer.
        fn dense_backward(layer: &Dense, x: &Matrix, grad_y: &Matrix) -> (Matrix, Matrix, Matrix) {
            (
                x.transpose().matmul(grad_y),
                Matrix::row_vector(&grad_y.column_sums()),
                grad_y.matmul(&layer.w.transpose()),
            )
        }

        fn shard_gradients(
            &self,
            v1: RaggedBatch,
            v2: RaggedBatch,
            indices: &[usize],
            targets: &[f32],
            batch_scale: f32,
        ) -> (Vec<f32>, GradientSet) {
            use grad_index::*;
            let model = &self.model;
            let pool = model.segment_pool_kind();
            let mut a1 = model.mlp1.forward_ragged(&v1);
            relu_in_place(&mut a1);
            let qvec1 = segment_pool(&a1, v1.offsets(), pool);
            let mut a2 = model.mlp2.forward_ragged(&v2);
            relu_in_place(&mut a2);
            let qvec2 = segment_pool(&a2, v2.offsets(), pool);
            let expanded = model.expand_pairs(&qvec1, &qvec2);
            let mut a_out1 = model.out1.forward(&expanded);
            relu_in_place(&mut a_out1);
            let mut sigmoid_out = model.out2.forward(&a_out1);
            sigmoid_in_place(&mut sigmoid_out);

            let mut losses = Vec::new();
            let mut grad_output = Matrix::zeros(indices.len(), 1);
            for (position, &index) in indices.iter().enumerate() {
                let loss = loss_and_grad(
                    model.config.loss,
                    sigmoid_out.get(position, 0),
                    targets[index],
                    RATE_FLOOR,
                );
                losses.push(loss.loss);
                grad_output.set(position, 0, loss.grad * batch_scale);
            }

            let mut grads = GradientSet::zeros(&model.gradient_shapes());
            let grad_z_out2 = sigmoid_backward(&sigmoid_out, &grad_output);
            let (grad_w, grad_b, mut grad_z_out1) =
                Self::dense_backward(&model.out2, &a_out1, &grad_z_out2);
            grads.part_mut(OUT2_W).add_assign(&grad_w);
            grads.part_mut(OUT2_B).add_assign(&grad_b);
            relu_backward_in_place(&a_out1, &mut grad_z_out1);
            let (grad_w, grad_b, grad_expanded) =
                Self::dense_backward(&model.out1, &expanded, &grad_z_out1);
            grads.part_mut(OUT1_W).add_assign(&grad_w);
            grads.part_mut(OUT1_B).add_assign(&grad_b);
            let (grad_qvec1, grad_qvec2) = expand_full_backward(&qvec1, &qvec2, &grad_expanded);
            let mut grad_z1 = segment_pool_backward(v1.offsets(), &grad_qvec1, pool);
            relu_backward_in_place(&a1, &mut grad_z1);
            let (grad_w, grad_b) = grads.pair_mut(MLP1_W, MLP1_B);
            Dense::accumulate_ragged_weights_only(&v1, &grad_z1, grad_w, grad_b);
            let mut grad_z2 = segment_pool_backward(v2.offsets(), &grad_qvec2, pool);
            relu_backward_in_place(&a2, &mut grad_z2);
            let (grad_w, grad_b) = grads.pair_mut(MLP2_W, MLP2_B);
            Dense::accumulate_ragged_weights_only(&v2, &grad_z2, grad_w, grad_b);
            (losses, grads)
        }

        /// One mini-batch; returns the per-sample losses in batch order.
        fn step(
            &mut self,
            features: &[(SparseRows, SparseRows)],
            targets: &[f32],
            batch: &[usize],
        ) -> Vec<f32> {
            let dim = self.model.featurizer.vector_dim();
            let parallel = self.model.config.parallel;
            assert!(
                parallel.deterministic,
                "the canonical order is what is pinned"
            );
            let batch1 =
                RaggedBatch::from_sparse_sets(dim, batch.iter().map(|&index| &features[index].0));
            let batch2 =
                RaggedBatch::from_sparse_sets(dim, batch.iter().map(|&index| &features[index].1));
            let batch_scale = 1.0 / batch.len() as f32;
            let (mut losses, mut shards) = (Vec::new(), Vec::new());
            for range in shard_ranges(batch.len(), parallel.shard_count(batch.len())) {
                let (shard_losses, grads) = self.shard_gradients(
                    batch1.slice_segments(range.clone()),
                    batch2.slice_segments(range.clone()),
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

        /// `CrnModel::fit`'s loop (no early stopping; best-validation epoch restored).
        fn fit(&mut self, samples: &[ContainmentSample]) {
            let config = self.model.config.clone();
            assert!(config.patience.is_none());
            let dim = self.model.featurizer.vector_dim();
            let features = self.featurize(samples);
            let targets: Vec<f32> = samples.iter().map(|s| s.rate as f32).collect();
            let (train_idx, valid_idx) =
                train_validation_split(samples.len(), config.validation_fraction, config.seed);
            self.reset_optimizer();
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(7));
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
                    let side = |second: bool| {
                        RaggedBatch::from_sparse_sets(
                            dim,
                            chunk.iter().map(|&index| match second {
                                false => &features[index].0,
                                true => &features[index].1,
                            }),
                        )
                    };
                    let out = self
                        .model
                        .forward_batch_inference(&side(false), &side(true));
                    for (position, &index) in chunk.iter().enumerate() {
                        pairs.push((out.get(position, 0) as f64, targets[index] as f64));
                    }
                }
                let stats = EpochStats {
                    epoch,
                    train_loss,
                    validation_q_error: mean_q_error(&pairs, RATE_FLOOR as f64),
                };
                if history.record(stats) {
                    best = Some(self.model.clone());
                }
            }
            self.model = best.expect("the first epoch always improves");
        }

        /// `CrnModel::fit_incremental(samples, adam, 1)`.
        fn fit_incremental(&mut self, samples: &[ContainmentSample]) {
            let features = self.featurize(samples);
            let targets: Vec<f32> = samples.iter().map(|s| s.rate as f32).collect();
            let indices: Vec<usize> = (0..samples.len()).collect();
            let seed = self.model.config.seed;
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_add(self.adam.step_count.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            );
            for batch in shuffled_batches(&indices, self.model.config.batch_size, &mut rng) {
                self.step(&features, &targets, &batch);
            }
        }
    }

    fn subnormal_moments<'a>(moments: impl IntoIterator<Item = &'a Matrix>) -> usize {
        let values = moments.into_iter().flat_map(Matrix::data);
        values.filter(|moment| moment.is_subnormal()).count()
    }

    /// Asserts that `actual`'s weights and biases are `expected`'s, bit for bit.
    fn assert_same_weights(actual: &CrnModel, expected: &CrnModel, what: &str) {
        let layers = [
            ("mlp1", &actual.mlp1, &expected.mlp1),
            ("mlp2", &actual.mlp2, &expected.mlp2),
            ("out1", &actual.out1, &expected.out1),
            ("out2", &actual.out2, &expected.out2),
        ];
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, actual, expected) in layers {
            assert_eq!(bits(&actual.w), bits(&expected.w), "{what}: {name}.w");
            assert_eq!(bits(&actual.b), bits(&expected.b), "{what}: {name}.b");
        }
    }

    /// THE training bit-identity tripwire.  With `after_fit`, `fit` ends at every thread
    /// count on exactly the weights [`ParentTrainer::fit`] ends on; then — from there, or
    /// from the fresh model without `after_fit` — both take `steps` single-batch
    /// `fit_incremental` steps from a fresh optimizer (the parent's zero moments at step 0,
    /// the engine's `Adam::new`) and must end on the same weights again, with no subnormal
    /// moment in the engine's `Adam`.  Without `after_fit` their moments must have parted
    /// ways: the parent sits on its plateau of subnormal moments (the dead cost the engine's
    /// step no longer pays).
    fn assert_training_matches_the_parent_formulation(steps: usize, after_fit: bool) {
        const PAIRS_PER_STEP: usize = 128;
        let db = generate_imdb(&ImdbConfig::tiny(41));
        let samples = training_pairs(&db, 640, 41);
        let config = |threads: usize| TrainConfig {
            hidden_size: 64,
            epochs: 12,
            patience: None,
            seed: 41,
            parallel: ThreadPoolConfig::deterministic(threads),
            ..TrainConfig::default()
        };
        let draw = |step: usize| {
            let from = (step * 37) % (samples.len() - PAIRS_PER_STEP);
            &samples[from..from + PAIRS_PER_STEP]
        };

        let mut parent = ParentTrainer::new(CrnModel::new(&db, config(1)));
        let fitted = after_fit.then(|| {
            parent.fit(&samples);
            parent.model.clone()
        });
        parent.reset_optimizer();
        (0..steps).for_each(|step| parent.fit_incremental(draw(step)));
        if !after_fit {
            let stuck = subnormal_moments(parent.m.iter().chain(&parent.v));
            assert!(
                stuck > 10_000,
                "the parent formulation should be on its subnormal plateau, has {stuck}"
            );
        }

        for threads in [1usize, 2, 4] {
            let mut model = CrnModel::new(&db, config(threads));
            if let Some(fitted) = &fitted {
                model.fit(&samples);
                assert_same_weights(&model, fitted, &format!("threads = {threads}, fit"));
            }
            let mut adam = Adam::new(model.config.learning_rate);
            for step in 0..steps {
                model.fit_incremental(draw(step), &mut adam, 1);
            }
            assert_eq!(adam.step_count, parent.adam.step_count);
            let what = format!("threads = {threads}, {steps} steps");
            assert_same_weights(&model, &parent.model, &what);
            assert_eq!(subnormal_moments(adam.m.iter().chain(&adam.v)), 0, "{what}");
        }
    }

    /// The tripwire over `fit` (48 steps) and then 24 steps from a fresh optimizer: what an
    /// unoptimized `cargo test` affords at 70 ms per step.
    #[test]
    fn training_is_bit_identical_to_the_parent_formulation() {
        assert_training_matches_the_parent_formulation(24, true);
    }

    /// The whole tripwire: 1,000 continuous steps from a fresh model and optimizer, past the
    /// point where the parent's moments go subnormal and stay.  (A `fit` in front would
    /// leave the plateau far from reached at 1,000 steps.)  Minutes unoptimized, seconds
    /// with `--release`.
    #[test]
    #[ignore = "1,000 steps; CI runs it with --release -- --include-ignored"]
    fn training_is_bit_identical_to_the_parent_formulation_down_to_the_subnormal_plateau() {
        assert_training_matches_the_parent_formulation(1_000, false);
    }

    /// A matrix whose stated shape its data cannot fill is refused when its document loads —
    /// alone, or as one layer of a model — instead of panicking later, when serving or a
    /// fine-tune first indexes past its data.
    #[test]
    fn mis_shaped_matrices_are_rejected_at_load() {
        let literal = r#"{"rows":2,"cols":2,"data":[1.0]}"#;
        assert!(serde_json::from_str::<Matrix>(literal).is_err());

        let db = generate_imdb(&ImdbConfig::tiny(34));
        let model = CrnModel::new(&db, TrainConfig::fast_test());
        let text = serde_json::to_string(&model).unwrap();
        assert_eq!(serde_json::from_str::<CrnModel>(&text).unwrap(), model);
        // `out2`'s weights are `2H × 1`: claim one row more than the data holds.
        let at = text.find(r#""out2""#).unwrap();
        let at = at + text[at..].find(r#""rows":"#).unwrap() + r#""rows":"#.len();
        let digits = text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let rows: usize = text[at..at + digits].parse().unwrap();
        assert_eq!(rows, 2 * model.config().hidden_size);
        let edited = format!("{}{}{}", &text[..at], rows + 1, &text[at + digits..]);
        assert!(serde_json::from_str::<CrnModel>(&edited).is_err());
    }

    /// Both containment rates of every (query, anchor) pair, as `predict_group` returns them
    /// without an ε screen: `(anchor index, anchor ⊂% query, query ⊂% anchor)`.
    type GroupRates = Vec<Vec<(usize, f64, f64)>>;

    /// The rates as bit patterns, so that equality is bit-identity.
    fn rate_bits(rates: &GroupRates) -> Vec<Vec<(usize, u64, u64)>> {
        rates
            .iter()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|&(i, x, y)| (i, x.to_bits(), y.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// Every serving answer of `model` over the fixture: `predict` per (anchor, query) pair
    /// in both directions, and the fused, unscreened `predict_group` with freshly prepared
    /// anchors.
    fn serving_answers(
        model: &CrnModel,
        anchors: &[&Query],
        queries: &[&Query],
    ) -> (GroupRates, GroupRates) {
        let per_pair = queries
            .iter()
            .map(|query| {
                anchors
                    .iter()
                    .enumerate()
                    .map(|(i, anchor)| {
                        (
                            i,
                            model.predict(anchor, query),
                            model.predict(query, anchor),
                        )
                    })
                    .collect()
            })
            .collect();
        let prepared = model.prepare_anchors(anchors).expect("anchors prepare");
        let grouped =
            model.predict_group(anchors, queries, Some(prepared.as_ref()), f64::NEG_INFINITY);
        (per_pair, grouped)
    }

    /// The packed head can never go stale: whatever a model answered before, after its
    /// weights moved it answers exactly what a copy rebuilt from its serialized weights (no
    /// packed state at all) answers — and training a clone, which shares the original's
    /// panels, leaves the original's answers untouched.
    #[test]
    fn packed_head_follows_the_weights_through_training_and_clones() {
        let db = generate_imdb(&ImdbConfig::tiny(31));
        let samples = training_pairs(&db, 60, 31);
        let fresh = training_pairs(&db, 40, 32);
        let anchors: Vec<&Query> = samples.iter().take(9).map(|s| &s.q2).collect();
        let queries: Vec<&Query> = fresh.iter().take(3).map(|s| &s.q1).collect();
        let round_trip = |model: &CrnModel| -> CrnModel {
            serde_json::from_str(&serde_json::to_string(model).unwrap()).unwrap()
        };

        let mut model = CrnModel::new(&db, TrainConfig::fast_test());
        model.fit(&samples);
        let before = serving_answers(&model, &anchors, &queries);
        assert!(
            model.packed_out1.0.get().is_some(),
            "serving packs the head"
        );
        assert_eq!(
            round_trip(&model),
            model,
            "the packed cell never breaks equality"
        );
        assert_eq!(
            serving_answers(&round_trip(&model), &anchors, &queries),
            before
        );

        let original = model.clone();
        let mut adam = Adam::new(model.config().learning_rate);
        model.fit_incremental(&fresh, &mut adam, 2);
        assert_ne!(model.out1.w, original.out1.w, "the weights moved");
        let after = serving_answers(&model, &anchors, &queries);
        assert_ne!(after, before, "the answers follow them");
        assert_eq!(
            serving_answers(&round_trip(&model), &anchors, &queries),
            after
        );
        assert_eq!(serving_answers(&original, &anchors, &queries), before);
    }

    /// Resuming the head from stored prefixes never changes a bit: `predict_group` — with
    /// prepared anchor encodings, with none, and with stale ones it must rebuild — equals the
    /// full-reduction `predict` of every pair, in both directions, for every architecture.
    /// Screened by ε it is exactly the pairs of that answer whose `query ⊂% anchor` rate
    /// passes ε, with the same bits: the `anchor ⊂% query` pass over the kept rows alone
    /// computes each of them as the pass over all rows does.  The serving default 0.1 keeps
    /// every pair of this small fixture, so the fixture's median `y` screens too.
    #[test]
    fn predict_group_is_predict_per_pair_bit_for_bit() {
        let db = generate_imdb(&ImdbConfig::tiny(33));
        let samples = training_pairs(&db, 40, 33);
        let anchors: Vec<&Query> = samples.iter().take(11).map(|s| &s.q2).collect();
        let queries: Vec<&Query> = samples.iter().skip(20).take(3).map(|s| &s.q1).collect();
        for expand in [ExpandMode::Full, ExpandMode::Concat] {
            for pooling in [Pooling::Mean, Pooling::Sum] {
                let options = CrnOptions { pooling, expand };
                let mut model = CrnModel::with_options(&db, TrainConfig::fast_test(), options);
                model.fit(&samples);
                let (per_pair, grouped) = serving_answers(&model, &anchors, &queries);
                assert_eq!(
                    rate_bits(&grouped),
                    rate_bits(&per_pair),
                    "{options:?}: prepared"
                );
                let mut ys: Vec<f64> = per_pair.iter().flatten().map(|&(_, _, y)| y).collect();
                ys.sort_by(f64::total_cmp);
                let median_y = ys[ys.len() / 2];
                let prepared = model.prepare_anchors(&anchors).expect("anchors prepare");
                let stale = model
                    .prepare_anchors(&anchors[..4])
                    .expect("anchors prepare");
                for (label, state) in [
                    ("prepared", Some(prepared.as_ref())),
                    ("unprepared", None),
                    ("stale", Some(stale.as_ref())),
                ] {
                    let answer = |epsilon| model.predict_group(&anchors, &queries, state, epsilon);
                    assert_eq!(
                        rate_bits(&answer(f64::NEG_INFINITY)),
                        rate_bits(&per_pair),
                        "{options:?}: {label}"
                    );
                    for epsilon in [0.1, median_y] {
                        let survivors: GroupRates = per_pair
                            .iter()
                            .map(|pairs| {
                                pairs
                                    .iter()
                                    .copied()
                                    .filter(|&(_, _, y)| passes_epsilon(y, epsilon))
                                    .collect()
                            })
                            .collect();
                        assert_eq!(
                            rate_bits(&answer(epsilon)),
                            rate_bits(&survivors),
                            "{options:?}: {label}, ε = {epsilon}"
                        );
                    }
                }
                let kept_at_median = ys.iter().filter(|&&y| passes_epsilon(y, median_y)).count();
                assert!(
                    0 < kept_at_median && kept_at_median < ys.len(),
                    "{options:?}: the median screens out some pairs and keeps others"
                );
            }
        }
    }
}
