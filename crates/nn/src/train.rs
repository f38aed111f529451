//! The one training loop of the CRN and MSCN models.
//!
//! Both models train the same way — Adam, mini-batches, early stopping on a validation split
//! (§3.3: "we use the early stopping technique and stop the training before convergence to
//! avoid over-fitting") — and the paper's CRN-vs-MSCN comparison is fair because they do
//! (§4.1.2).  So the loop exists once, here, generic over [`Trainable`] — the few things in
//! which the two models differ: featurizing a sample, a shard's forward pass, losses and
//! backward pass, a validation chunk's predictions, the weights the backward pass multiplies
//! by, and the parameters in gradient order.
//!
//! The loop owns everything else: featurization on the worker pool, the train/validation
//! split and seeded shuffling, sharding each mini-batch over [`ShardGradients`] and applying
//! the shards with [`Adam::step_sharded`], validation chunks on the pool, early stopping and
//! the best-epoch restore.  Its scratch — the shard gradient sets and the backward panels —
//! is kept by the caller's [`Adam`] between runs and reused while the model's shapes and
//! shard count stay the same, so a one-batch [`fit_incremental`] allocates none of it.  It
//! runs on two schedules:
//!
//! * [`fit`] — a fresh [`Adam`] over [`TrainConfig::epochs`] epochs of the training split,
//!   early stopping on the validation split and restoring the best epoch's model;
//! * [`fit_incremental`] — the warm-start fine-tune: the caller's [`Adam`] over a fixed
//!   number of epochs of the whole corpus, with neither validation nor model selection.
//!
//! In deterministic mode ([`ThreadPoolConfig::deterministic`]) both are bit-identical across
//! thread counts.  Also here: hyperparameters, training history, splitting and
//! mini-batching.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::batch::shard_ranges;
use crate::gemm::PackedWeights;
use crate::loss::{mean_q_error, LossKind};
use crate::matrix::Matrix;
use crate::optim::Adam;
use crate::parallel::{
    reduce_gradients, GradientSet, ShardGradients, ThreadPoolConfig, WorkerPool,
};

/// Hyperparameters of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Hidden layer size `H` (the paper sweeps this in Figure 3 and settles on 512; the
    /// reproduction defaults to a smaller value so CPU training stays fast).
    pub hidden_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the paper's default is 128, §3.5).
    pub batch_size: usize,
    /// Adam learning rate (the paper's default is 0.001, §3.5).
    pub learning_rate: f32,
    /// Training objective.
    pub loss: LossKind,
    /// Fraction of samples held out for validation (the paper uses 80/20, §3.1.2).
    pub validation_fraction: f64,
    /// Early-stopping patience: training stops after this many epochs without improvement of
    /// the validation metric. `None` disables early stopping.
    pub patience: Option<usize>,
    /// Random seed for parameter initialization and batch shuffling.
    pub seed: u64,
    /// Data-parallel epoch execution: worker-thread count and deterministic-reduction mode
    /// (see [`crate::parallel`] for the shard-pool design and determinism contract).  The
    /// shuffling, split and initialization seeds are unaffected by this — only how each
    /// mini-batch's forward/backward is sharded.
    ///
    /// Never serialized: the pool shape belongs to the *machine* running the training, not
    /// to a persisted model (a model saved on a 32-core box must not pin 32 workers when
    /// reloaded on a laptop), and skipping it keeps model files from before this field
    /// loadable.  Deserialized configs fall back to [`ThreadPoolConfig::from_env`].
    #[serde(skip)]
    pub parallel: ThreadPoolConfig,
}

/// Equality over the *persisted training recipe* only: `parallel` is machine-local
/// execution state (serde-skipped, refilled from the environment on deserialization), so
/// including it would make config equality depend on the host's `THREADS` setting rather
/// than the hyperparameters.
impl PartialEq for TrainConfig {
    fn eq(&self, other: &Self) -> bool {
        self.hidden_size == other.hidden_size
            && self.epochs == other.epochs
            && self.batch_size == other.batch_size
            && self.learning_rate == other.learning_rate
            && self.loss == other.loss
            && self.validation_fraction == other.validation_fraction
            && self.patience == other.patience
            && self.seed == other.seed
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            hidden_size: 64,
            epochs: 40,
            batch_size: 128,
            learning_rate: 0.001,
            loss: LossKind::QError,
            validation_fraction: 0.2,
            patience: Some(8),
            seed: 42,
            // Environment-driven (`THREADS` / `DETERMINISTIC`), single-threaded when unset —
            // this is how the CI thread-matrix job pushes the whole suite through the
            // parallel engine without touching every call site.
            parallel: ThreadPoolConfig::from_env(),
        }
    }
}

impl TrainConfig {
    /// A configuration tuned for fast unit tests.
    pub fn fast_test() -> Self {
        TrainConfig {
            hidden_size: 16,
            epochs: 10,
            batch_size: 32,
            patience: Some(4),
            ..TrainConfig::default()
        }
    }
}

/// Record of one epoch: index, training loss, validation metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss of the epoch.
    pub train_loss: f64,
    /// Mean validation q-error after the epoch.
    pub validation_q_error: f64,
}

/// The history of a training run (used to reproduce the convergence plot, Figure 4).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Per-epoch statistics in order.
    pub epochs: Vec<EpochStats>,
    /// Index of the epoch with the best validation metric.
    pub best_epoch: usize,
    /// Best validation metric observed.
    pub best_validation: f64,
}

impl TrainingHistory {
    /// Records an epoch and returns `true` if it improved on the best validation metric.
    pub fn record(&mut self, stats: EpochStats) -> bool {
        let improved = self.epochs.is_empty() || stats.validation_q_error < self.best_validation;
        if improved {
            self.best_epoch = stats.epoch;
            self.best_validation = stats.validation_q_error;
        }
        self.epochs.push(stats);
        improved
    }

    /// Number of epochs actually run.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Returns true when no epoch has been recorded.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }
}

/// Splits sample indices into a training set and a validation set.
///
/// The split is deterministic for a given seed and keeps at least one sample on each side
/// whenever there are at least two samples.
pub fn train_validation_split(
    num_samples: usize,
    validation_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    let mut indices: Vec<usize> = (0..num_samples).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let mut validation_size = ((num_samples as f64) * validation_fraction).round() as usize;
    if num_samples >= 2 {
        validation_size = validation_size.clamp(1, num_samples - 1);
    } else {
        validation_size = 0;
    }
    let validation = indices.split_off(num_samples - validation_size);
    (indices, validation)
}

/// Yields mini-batches of indices, reshuffled each epoch.
pub fn shuffled_batches(indices: &[usize], batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut shuffled = indices.to_vec();
    shuffled.shuffle(rng);
    shuffled
        .chunks(batch_size.max(1))
        .map(|chunk| chunk.to_vec())
        .collect()
}

/// What the training loop needs from a model: everything in which CRN and MSCN training
/// differ.  Every method but [`params_vec_mut`](Trainable::params_vec_mut) leaves the model
/// untouched: the shards of a mini-batch run concurrently against the same model.
pub trait Trainable: Clone + Sync {
    /// A labelled training sample.
    type Sample: Sync;
    /// One sample's features, computed once per run, before the first epoch.
    type Features: Send + Sync;

    /// Added to [`TrainConfig::seed`] to seed [`fit`]'s mini-batch shuffling.
    const SHUFFLE_SEED_OFFSET: u64;
    /// The floor under validation predictions and targets (the q-error is undefined at 0).
    const FLOOR: f32;

    /// The training configuration.
    fn config(&self) -> &TrainConfig;
    /// Featurizes one sample (pure: the loop featurizes on the worker pool).
    fn featurize(&self, sample: &Self::Sample) -> Self::Features;
    /// The sample's label.
    fn target(sample: &Self::Sample) -> f32;
    /// One shard of a mini-batch, the samples `shard` of `features`: the batched forward
    /// pass, each sample's loss against `targets[index]` with `dL/d output` scaled by
    /// `batch_scale` (`1 /` the mini-batch size), and the batched backward pass into
    /// `grads` (layout: [`params_vec_mut`](Trainable::params_vec_mut) order).  `panels` are
    /// the [`backward_weights`](Trainable::backward_weights), each packed transposed.
    /// Returns the per-sample losses in shard order.
    fn train_shard(
        &self,
        panels: &[PackedWeights],
        features: &[Self::Features],
        targets: &[f32],
        shard: &[usize],
        batch_scale: f32,
        grads: &mut GradientSet,
    ) -> Vec<f32>;
    /// Inference over the samples `chunk` of `features`: one prediction per sample, in the
    /// units of [`target`](Trainable::target).
    fn predict_chunk(&self, features: &[Self::Features], chunk: &[usize]) -> Vec<f64>;
    /// The weights whose transposes the backward pass multiplies by (`dL/dx = g·Wᵀ`), in
    /// the order [`train_shard`](Trainable::train_shard) receives their panels.
    fn backward_weights(&self) -> Vec<&Matrix>;
    /// The `(rows, cols)` of every parameter, in [`params_vec_mut`](Trainable::params_vec_mut)
    /// order.
    fn gradient_shapes(&self) -> Vec<(usize, usize)>;
    /// Every trainable weight tensor, in the order of the gradient sets.
    fn params_vec_mut(&mut self) -> Vec<&mut Matrix>;
}

/// Trains `model` on `samples`: a fresh [`Adam`] over [`TrainConfig::epochs`] epochs of the
/// training split, early stopping on the validation split (`validation_fraction`,
/// `patience`), and the model of the best validation epoch restored at the end.  Returns the
/// per-epoch history (Figures 3 and 4).  The loop's scratch goes with the optimizer.
pub fn fit<M: Trainable>(model: &mut M, samples: &[M::Sample]) -> TrainingHistory {
    let config = model.config();
    let split = train_validation_split(samples.len(), config.validation_fraction, config.seed);
    let mut adam = Adam::new(config.learning_rate);
    let epochs = config.epochs;
    let shuffle_seed = config.seed.wrapping_add(M::SHUFFLE_SEED_OFFSET);
    run(model, samples, &mut adam, epochs, shuffle_seed, Some(split))
}

/// Fine-tunes `model` on `samples` for exactly `epochs` epochs of the whole corpus,
/// resuming `adam` (its moments and step count continue where its earlier fine-tunes of
/// this model left them; a fresh `Adam` starts from zero moments).  No
/// validation split, early stopping or best-epoch restore: the recorded
/// `validation_q_error` is the epoch's mean training loss.  The shuffling is seeded from
/// the config seed and `adam`'s step count, so every refresh reshuffles differently and the
/// whole trajectory stays reproducible.  The loop's scratch stays in `adam` for the next
/// call.  Empty `samples` or `epochs == 0` are a no-op.
pub fn fit_incremental<M: Trainable>(
    model: &mut M,
    samples: &[M::Sample],
    adam: &mut Adam,
    epochs: usize,
) -> TrainingHistory {
    if samples.is_empty() || epochs == 0 {
        return TrainingHistory::default();
    }
    let step_seed = adam.step_count.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let shuffle_seed = model.config().seed.wrapping_add(step_seed);
    run(model, samples, adam, epochs, shuffle_seed, None)
}

/// The mean q-error of `model` over the validation split [`fit`] makes of `samples`,
/// computed by the validation pass of the loop (`0` when the split is empty).
pub fn validation_q_error<M: Trainable>(model: &M, samples: &[M::Sample]) -> f64 {
    let config = model.config();
    let (_, validation) =
        train_validation_split(samples.len(), config.validation_fraction, config.seed);
    Corpus::new(model, samples).mean_q_error(model, &validation)
}

/// The summed gradient of one mini-batch made of all of `samples`, exactly as the loop
/// computes it under the model's [`ThreadPoolConfig`] and reduced in the order
/// [`Adam::step_sharded`] sums it, with the per-sample losses in sample order: what the
/// models' parity tests compare against their per-sample references.
pub fn batch_gradients<M: Trainable>(model: &M, samples: &[M::Sample]) -> (Vec<f32>, GradientSet) {
    let corpus = Corpus::new(model, samples);
    let mut scratch = Scratch::new(model);
    let batch: Vec<usize> = (0..samples.len()).collect();
    let (losses, shard_count) = scratch.run_shards(model, &corpus, &batch);
    let sets = scratch.shards.sets(shard_count).into_iter().cloned();
    let deterministic = model.config().parallel.deterministic;
    let merged = reduce_gradients(sets.collect(), deterministic).expect("at least one shard");
    (losses, merged)
}

/// The training loop: `epochs` epochs of `adam` steps over mini-batches shuffled from
/// `shuffle_seed`.  `split` is [`fit`]'s `(train, validation)` split, with early stopping on
/// the config's patience and the best epoch's model restored; without one
/// ([`fit_incremental`]) every sample trains, each epoch's validation metric is its mean
/// training loss, and the last epoch's model is kept.
fn run<M: Trainable>(
    model: &mut M,
    samples: &[M::Sample],
    adam: &mut Adam,
    epochs: usize,
    shuffle_seed: u64,
    split: Option<(Vec<usize>, Vec<usize>)>,
) -> TrainingHistory {
    let select_best = split.is_some();
    let (train, validation) = split.unwrap_or_else(|| ((0..samples.len()).collect(), Vec::new()));
    let config = model.config().clone();
    let corpus = Corpus::new(&*model, samples);
    let mut scratch = Scratch::reuse_or_new(adam.scratch.0.take(), &*model);
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    let patience = config.patience.filter(|_| select_best);
    let mut history = TrainingHistory::default();
    let mut best: Option<M> = None;

    for epoch in 0..epochs {
        let mut epoch_loss = 0.0f64;
        let mut epoch_samples = 0usize;
        for batch in shuffled_batches(&train, config.batch_size, &mut rng) {
            let (losses, shard_count) = scratch.run_shards(&*model, &corpus, &batch);
            for loss in losses {
                epoch_loss += loss as f64;
                epoch_samples += 1;
            }
            adam.step_sharded(
                model.params_vec_mut(),
                &scratch.shards.sets(shard_count),
                config.parallel.deterministic,
                &corpus.workers,
            );
        }
        let train_loss = epoch_loss / epoch_samples.max(1) as f64;
        let validation_q_error = if validation.is_empty() {
            train_loss
        } else {
            corpus.mean_q_error(&*model, &validation)
        };
        let improved = history.record(EpochStats {
            epoch,
            train_loss,
            validation_q_error,
        });
        if improved && select_best {
            best = Some(model.clone());
        }
        if patience.is_some_and(|p| epoch - history.best_epoch >= p) {
            break;
        }
    }
    adam.scratch.0 = Some(scratch);
    if let Some(best) = best {
        *model = best;
    }
    history
}

/// A featurized corpus and the worker pool of the run: one persistent handle for every
/// featurization shard, mini-batch, optimizer pass and validation chunk
/// ([`WorkerPool::shared`]).
struct Corpus<M: Trainable> {
    features: Vec<M::Features>,
    targets: Vec<f32>,
    workers: WorkerPool,
}

impl<M: Trainable> Corpus<M> {
    /// Featurizes `samples` on the pool.  Featurization is pure and `run_over_ranges`
    /// returns the shards in range order, so the result never depends on the thread count.
    fn new(model: &M, samples: &[M::Sample]) -> Self {
        let parallel = model.config().parallel;
        let workers = parallel.worker_pool();
        let ranges = shard_ranges(samples.len(), parallel.threads);
        let features = workers
            .run_over_ranges(&ranges, |range| {
                let shard = &samples[range];
                shard.iter().map(|s| model.featurize(s)).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        Corpus {
            features,
            targets: samples.iter().map(M::target).collect(),
            workers,
        }
    }

    /// The validation pass: the mean q-error of `model` over the samples `validation`.
    /// Chunks are fixed by the batch size, never by the thread count, so every chunk's
    /// inference is the same for every pool configuration; only their scheduling spreads
    /// across the workers.
    fn mean_q_error(&self, model: &M, validation: &[usize]) -> f64 {
        let chunks: Vec<&[usize]> = validation
            .chunks(model.config().batch_size.max(1))
            .collect();
        let per_chunk: Vec<Vec<(f64, f64)>> = self.workers.run_sharded(chunks.len(), |shard| {
            let chunk = chunks[shard];
            let predictions = model.predict_chunk(&self.features, chunk);
            let targets = chunk.iter().map(|&index| self.targets[index] as f64);
            predictions.into_iter().zip(targets).collect()
        });
        let pairs: Vec<(f64, f64)> = per_chunk.into_iter().flatten().collect();
        mean_q_error(&pairs, M::FLOOR as f64)
    }
}

/// What the loop keeps from one mini-batch to the next: the backward pass's weight panels
/// and one gradient set per shard, kept by the caller's [`Adam`] from one run to the next.
/// No batch reads what an earlier one left in it: the panels are packed anew before every
/// batch, and each set is zeroed by the shard that starts on it.
pub(crate) struct Scratch {
    panels: Vec<PackedWeights>,
    shards: ShardGradients,
}

/// The [`Scratch`] an [`Adam`] keeps between runs of the loop.  It carries no state, so a
/// clone starts without it, and equality and `Debug` ignore it.
#[derive(Default)]
pub(crate) struct KeptScratch(Option<Scratch>);

impl Clone for KeptScratch {
    fn clone(&self) -> Self {
        KeptScratch(None)
    }
}

impl PartialEq for KeptScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for KeptScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("..")
    }
}

impl Scratch {
    /// Zeroed panels and shard sets for `model`: [`Scratch::run_shards`] packs the panels.
    fn new<M: Trainable>(model: &M) -> Self {
        Scratch {
            panels: model
                .backward_weights()
                .into_iter()
                .map(|weights| PackedWeights::zeroed(weights.cols(), weights.rows()))
                .collect(),
            shards: ShardGradients::new(&model.gradient_shapes(), &model.config().parallel),
        }
    }

    /// `kept` if its panels and shard sets have the shapes and the shard count [`Scratch::new`]
    /// would give `model`, else a new scratch.
    fn reuse_or_new<M: Trainable>(kept: Option<Scratch>, model: &M) -> Self {
        let Some(mut scratch) = kept else {
            return Scratch::new(model);
        };
        let panels = scratch
            .panels
            .iter()
            .map(|panels| (panels.cols(), panels.rows()));
        let weights = model.backward_weights().into_iter();
        let parallel = &model.config().parallel;
        if panels.eq(weights.map(|weights| (weights.rows(), weights.cols())))
            && scratch.shards.fits(&model.gradient_shapes(), parallel)
        {
            scratch
        } else {
            Scratch::new(model)
        }
    }

    /// The data-parallel part of the mini-batch `batch`: packs the panels from the model's
    /// current weights once, cuts the batch at sample boundaries into the config's shards,
    /// and runs [`Trainable::train_shard`] per shard on the pool, each into its own gradient
    /// set.  Returns the per-sample losses in batch order and how many shards ran (their sets
    /// are `self.shards.sets(count)`, in shard order).
    fn run_shards<M: Trainable>(
        &mut self,
        model: &M,
        corpus: &Corpus<M>,
        batch: &[usize],
    ) -> (Vec<f32>, usize) {
        for (panels, weights) in self.panels.iter_mut().zip(model.backward_weights()) {
            panels.repack_transposed(weights);
        }
        let Scratch { panels, shards } = &*self;
        let batch_scale = 1.0 / batch.len() as f32;
        let parallel = model.config().parallel;
        let ranges = shard_ranges(batch.len(), parallel.shard_count(batch.len()));
        let losses = corpus.workers.run_sharded(ranges.len(), |shard| {
            model.train_shard(
                panels,
                &corpus.features,
                &corpus.targets,
                &batch[ranges[shard].clone()],
                batch_scale,
                &mut shards.start(shard),
            )
        });
        (losses.into_iter().flatten().collect(), ranges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{relu, relu_backward, Dense};
    use crate::loss::loss_and_grad;

    const TOY_INPUTS: usize = 6;

    /// A two-layer regression MLP: the smallest [`Trainable`] whose backward pass reads its
    /// panels.
    #[derive(Clone)]
    struct Toy {
        config: TrainConfig,
        hidden: Dense,
        out: Dense,
    }

    impl Toy {
        fn new(parallel: ThreadPoolConfig) -> Self {
            Toy {
                config: TrainConfig {
                    batch_size: 16,
                    loss: LossKind::Mse,
                    parallel,
                    ..TrainConfig::fast_test()
                },
                hidden: Dense::new(TOY_INPUTS, 8, 1),
                out: Dense::new(8, 1, 2),
            }
        }

        /// `count` samples of `y = 1 + Σ x / 4` over seeded inputs in `[-1, 1)`.
        fn samples(count: usize) -> Vec<(Vec<f32>, f32)> {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(9);
            (0..count)
                .map(|_| {
                    let x: Vec<f32> = (0..TOY_INPUTS)
                        .map(|_| rng.gen_range(-1.0f64..1.0) as f32)
                        .collect();
                    let y = 1.0 + x.iter().sum::<f32>() / 4.0;
                    (x, y)
                })
                .collect()
        }

        /// The input rows, hidden pre-activations, hidden activations and outputs of `rows`.
        fn forward(&self, features: &[Vec<f32>], rows: &[usize]) -> [Matrix; 4] {
            let data = rows.iter().flat_map(|&row| features[row].iter().copied());
            let x = Matrix::from_vec(rows.len(), TOY_INPUTS, data.collect());
            let z = self.hidden.forward(&x);
            let a = relu(&z);
            let y = self.out.forward(&a);
            [x, z, a, y]
        }
    }

    impl Trainable for Toy {
        type Sample = (Vec<f32>, f32);
        type Features = Vec<f32>;

        const SHUFFLE_SEED_OFFSET: u64 = 1;
        const FLOOR: f32 = 1e-3;

        fn config(&self) -> &TrainConfig {
            &self.config
        }

        fn featurize(&self, sample: &Self::Sample) -> Vec<f32> {
            sample.0.clone()
        }

        fn target(sample: &Self::Sample) -> f32 {
            sample.1
        }

        fn train_shard(
            &self,
            panels: &[PackedWeights],
            features: &[Vec<f32>],
            targets: &[f32],
            shard: &[usize],
            batch_scale: f32,
            grads: &mut GradientSet,
        ) -> Vec<f32> {
            let [x, z, a, y] = self.forward(features, shard);
            let mut grad_y = Matrix::zeros(shard.len(), 1);
            let mut losses = Vec::with_capacity(shard.len());
            for (row, &index) in shard.iter().enumerate() {
                let loss = loss_and_grad(LossKind::Mse, y.get(row, 0), targets[index], 0.0);
                losses.push(loss.loss);
                grad_y.set(row, 0, loss.grad * batch_scale);
            }
            let (grad_w, grad_b) = grads.pair_mut(2, 3);
            let grad_a = Dense::backward_into(&panels[0], &a, &grad_y, grad_w, grad_b);
            let (grad_w, grad_b) = grads.pair_mut(0, 1);
            self.hidden
                .backward(&x, &relu_backward(&z, &grad_a), grad_w, grad_b);
            losses
        }

        fn predict_chunk(&self, features: &[Vec<f32>], chunk: &[usize]) -> Vec<f64> {
            let [.., y] = self.forward(features, chunk);
            y.data().iter().map(|&value| value as f64).collect()
        }

        fn backward_weights(&self) -> Vec<&Matrix> {
            vec![&self.out.w]
        }

        fn gradient_shapes(&self) -> Vec<(usize, usize)> {
            let layers = [&self.hidden, &self.out];
            layers.into_iter().flat_map(Dense::grad_shapes).collect()
        }

        fn params_vec_mut(&mut self) -> Vec<&mut Matrix> {
            let layers = [&mut self.hidden, &mut self.out];
            layers.into_iter().flat_map(Dense::params_mut).collect()
        }
    }

    /// The bits of the toy's weights and of `adam`'s moments, then `adam`'s step count.
    fn trajectory_bits(model: &Toy, adam: &Adam) -> Vec<Vec<u64>> {
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits() as u64).collect();
        let weights = [&model.hidden.w, &model.hidden.b, &model.out.w, &model.out.b];
        let tensors = weights.into_iter().chain(&adam.m).chain(&adam.v);
        tensors.map(bits).chain([vec![adam.step_count]]).collect()
    }

    /// Where the data of every tensor of every shard set `adam` keeps lives (all of them: an
    /// allocator may hand a freed block straight back to the next allocation of its size).
    fn kept_shard_data(adam: &mut Adam, parallel: &ThreadPoolConfig) -> Vec<*const f32> {
        let scratch = adam
            .scratch
            .0
            .as_mut()
            .expect("the run left its scratch in adam");
        let sets = scratch.shards.sets(parallel.shard_count(usize::MAX));
        let parts = sets.into_iter().flat_map(GradientSet::parts);
        parts.map(|part| part.data().as_ptr()).collect()
    }

    /// The caller's `Adam` keeps the loop's scratch: its second `fit_incremental` allocates
    /// no shard set and ends on the bits of the same call on a clone, whose scratch is empty
    /// (so it builds a fresh one).  Moved to a model with another pool shape, the same `Adam`
    /// rebuilds its scratch and still matches its clone.  A clone equals its original.
    #[test]
    fn training_is_bit_identical_when_the_adam_keeps_its_scratch() {
        let samples = Toy::samples(96);
        let deterministic = ThreadPoolConfig::deterministic(2);
        let mut model = Toy::new(deterministic);
        let mut adam = Adam::default();
        fit_incremental(&mut model, &samples, &mut adam, 1);
        assert_eq!(adam.clone(), adam);
        assert_eq!(format!("{:?}", adam.clone()), format!("{adam:?}"));
        let kept = kept_shard_data(&mut adam, &deterministic);

        let (mut twin, mut twin_adam) = (model.clone(), adam.clone());
        assert!(
            twin_adam.scratch.0.is_none(),
            "a clone starts without scratch"
        );
        fit_incremental(&mut twin, &samples, &mut twin_adam, 1);
        fit_incremental(&mut model, &samples, &mut adam, 1);
        assert_eq!(kept_shard_data(&mut adam, &deterministic), kept);
        assert_eq!(
            trajectory_bits(&model, &adam),
            trajectory_bits(&twin, &twin_adam)
        );

        let threads = ThreadPoolConfig {
            threads: 3,
            deterministic: false,
        };
        model.config.parallel = threads;
        let (mut twin, mut twin_adam) = (model.clone(), adam.clone());
        fit_incremental(&mut twin, &samples, &mut twin_adam, 2);
        fit_incremental(&mut model, &samples, &mut adam, 2);
        let shapes = model.gradient_shapes();
        let shards = &mut adam.scratch.0.as_mut().expect("kept").shards;
        assert!(shards.fits(&shapes, &threads) && !shards.fits(&shapes, &deterministic));
        assert_eq!(
            trajectory_bits(&model, &adam),
            trajectory_bits(&twin, &twin_adam)
        );
        assert_eq!(adam.step_count, (1 + 1 + 2) * 96 / 16, "epochs × batches");
    }

    #[test]
    fn split_is_deterministic_and_disjoint() {
        let (train_a, val_a) = train_validation_split(100, 0.2, 7);
        let (train_b, val_b) = train_validation_split(100, 0.2, 7);
        assert_eq!(train_a, train_b);
        assert_eq!(val_a, val_b);
        assert_eq!(train_a.len(), 80);
        assert_eq!(val_a.len(), 20);
        let mut all: Vec<usize> = train_a.iter().chain(val_a.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_handles_tiny_sample_counts() {
        let (train, val) = train_validation_split(1, 0.2, 1);
        assert_eq!(train.len(), 1);
        assert!(val.is_empty());
        let (train, val) = train_validation_split(2, 0.9, 1);
        assert_eq!(train.len(), 1);
        assert_eq!(val.len(), 1);
        let (train, val) = train_validation_split(0, 0.2, 1);
        assert!(train.is_empty() && val.is_empty());
    }

    #[test]
    fn batches_cover_all_indices() {
        let indices: Vec<usize> = (0..10).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let batches = shuffled_batches(&indices, 3, &mut rng);
        assert_eq!(batches.len(), 4);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, indices);
    }

    #[test]
    fn history_tracks_best_epoch() {
        let mut history = TrainingHistory::default();
        assert!(history.is_empty());
        assert!(history.record(EpochStats {
            epoch: 0,
            train_loss: 5.0,
            validation_q_error: 4.0
        }));
        assert!(!history.record(EpochStats {
            epoch: 1,
            train_loss: 4.0,
            validation_q_error: 4.5
        }));
        assert!(history.record(EpochStats {
            epoch: 2,
            train_loss: 3.0,
            validation_q_error: 3.5
        }));
        assert_eq!(history.best_epoch, 2);
        assert_eq!(history.best_validation, 3.5);
        assert_eq!(history.len(), 3);
    }

    #[test]
    fn config_equality_ignores_the_machine_local_pool_shape() {
        let a = TrainConfig::default();
        let mut b = a.clone();
        b.parallel = crate::parallel::ThreadPoolConfig::deterministic(8);
        assert_eq!(a, b, "parallel is execution state, not a hyperparameter");
        b.seed = a.seed + 1;
        assert_ne!(a, b);
    }

    #[test]
    fn default_config_matches_paper_defaults() {
        let config = TrainConfig::default();
        assert_eq!(config.batch_size, 128);
        assert!((config.learning_rate - 0.001).abs() < 1e-9);
        assert_eq!(config.loss, LossKind::QError);
        assert!((config.validation_fraction - 0.2).abs() < 1e-9);
    }
}
