//! `crn-nn` — a minimal, dependency-free neural-network stack.
//!
//! The paper's models are small multi-layer perceptrons trained with Adam on a q-error
//! objective (§3.2–3.3).  This crate provides exactly those ingredients:
//!
//! * [`matrix`] — dense row-major `f32` matrices with the handful of products backprop needs;
//! * [`gemm`] — the dense kernels behind them: one row-block micro-kernel per SIMD tier
//!   (AVX-512, AVX2, portable), reading the right operand either row-major
//!   ([`Matrix::matmul`]) or from prepacked 64-byte-aligned panels ([`gemm_packed`]:
//!   inference, and a training step's `g·Wᵀ` over panels packed once per step),
//!   and the left operand in place or transposed in place ([`gemm_transpose_a_into`],
//!   backprop's `xᵀ·g`).  Every tier sums an output element as **one accumulator chain over
//!   the reduction index, in order**, whatever the batch size or layout — which makes
//!   stacking rows, switching layouts and *cutting* the reduction (store the chain state
//!   after `s` steps, resume from it later) all bit-neutral; the serving path of `crn-core`
//!   leans on exactly that, and it is why training through the packed and strided-`A` entry
//!   points ends on the same weights as explicit transposes did;
//! * [`layers`] — fully-connected layers (plain weight and bias matrices), ReLU / sigmoid
//!   activations and set average-pooling, each with an explicit hand-written backward pass (verified against
//!   finite differences in tests);
//! * [`batch`] — the ragged-batch execution engine: variable-sized sets of a whole mini-batch
//!   flattened into one matrix with segment offsets, so dense layers run as one GEMM per
//!   batch, pooling becomes a segment reduction, and the CRN `Expand` combination is
//!   vectorized over all pairs (see the module docs for the design);
//! * [`parallel`] — data-parallel execution: a persistent spawn-once worker pool, detached
//!   per-shard gradient sets and fixed-order (optionally fully deterministic) gradient
//!   reduction;
//! * [`optim`] — the Adam optimizer, the only owner of optimizer state (its moments and
//!   step count): one update kernel behind two gradient sources (a merged set, per-shard
//!   sets summed on the fly on the worker pool), storing subnormal moments as zero;
//! * [`loss`] — the q-error objective (plus MSE / MAE, which §3.2.4 considers and rejects);
//! * [`train`] — the one training loop of both models ([`train::fit`] and
//!   [`train::fit_incremental`], generic over [`Trainable`]), with its train/validation
//!   splitting, mini-batching, early stopping and training history (used to reproduce
//!   Figures 3 and 4).
//!
//! # Example
//!
//! ```
//! use crn_nn::{Dense, Matrix, relu};
//!
//! let layer = Dense::new(4, 8, 1);
//! let x = Matrix::row_vector(&[0.1, 0.2, 0.3, 0.4]);
//! let y = relu(&layer.forward(&x));
//! assert_eq!(y.cols(), 8);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod gemm;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod parallel;
pub mod train;

pub use batch::{
    concat_columns, expand_concat, expand_concat_backward, expand_full, expand_full_backward,
    expand_full_tail, segment_pool, segment_pool_backward, shard_ranges, split_columns,
    RaggedBatch, SegmentPool, SparseRows,
};
pub use gemm::{gemm_packed, gemm_transpose_a_into, Epilogue, PackedWeights};
pub use layers::{
    mean_pool, mean_pool_backward, relu, relu_backward, relu_backward_in_place, relu_in_place,
    sigmoid, sigmoid_backward, sigmoid_in_place, Dense,
};
pub use loss::{loss_and_grad, mean_q_error, q_error, LossKind, LossValue};
pub use matrix::Matrix;
pub use optim::Adam;
pub use parallel::{
    reduce_gradients, GradientSet, ShardGradients, ThreadPoolConfig, WorkerPool,
    DETERMINISTIC_SHARDS,
};
pub use train::{
    shuffled_batches, train_validation_split, EpochStats, TrainConfig, Trainable, TrainingHistory,
};
