//! The Adam optimizer.
//!
//! The paper trains both CRN and MSCN with Adam (§3.3, citing Kingma & Ba).  The implementation
//! follows the original algorithm with bias-corrected moment estimates.
//!
//! # The moment contract
//!
//! A moment estimate whose magnitude is below [`f32::MIN_POSITIVE`] is **stored as `0.0`**
//! (`|m|, |v| < f32::MIN_POSITIVE ⇒ 0`), on every CPU alike — a select in the update kernel,
//! not a floating-point control mode.
//!
//! Why: a parameter whose gradient is exactly zero from some step on (a dead ReLU column, an
//! `Expand` input that is always zero — about half of CRN's `out1` weights) has its first
//! moment decay by `β₁` per step until it is subnormal, and there it stays: `0.9 × 2⁻¹⁴⁹`
//! rounds back to `2⁻¹⁴⁹`.  Every operation on a subnormal costs a microcode assist, so ≈ 650
//! steps after the gradients died the optimizer step ran 30× slower, for the rest of the
//! model's life (a caller that resumes its `Adam` across `fit_incremental` calls carries
//! them along).  Such a moment cannot move a weight: `lr · m / (1 − β₁ᵗ) / ε ≤ 1.2e-32` per
//! step, far below half an ulp of any weight it is subtracted from, and a subnormal second
//! moment adds `√v̂ ≤ 3.5e-18` to an `ε` of `1e-8`.
//!
//! # The update kernel
//!
//! [`Adam::step_with`] and [`Adam::step_sharded`] differ only in where the gradient of an
//! element comes from — a merged [`GradientSet`]'s tensor, or the per-shard sets summed on
//! the fly — and both apply it through the same per-element kernel.  Both take the weights
//! to update; the moments are the optimizer's own ([`Adam::m`], [`Adam::v`]), sized from
//! those weights on the first step.  A model carries its weights and nothing else.

use crate::matrix::Matrix;
use crate::parallel::{lock_ignoring_poison, GradientSet, WorkerPool};
use std::sync::Mutex;

/// Adam optimizer state and hyperparameters: everything an optimizer step reads besides
/// the weights and their gradients.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate (the paper's default is `0.001`, §3.5).
    pub learning_rate: f32,
    /// Exponential decay rate of the first moment.
    pub beta1: f32,
    /// Exponential decay rate of the second moment.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub epsilon: f32,
    /// Number of optimizer steps taken so far (used for bias correction).
    pub step_count: u64,
    /// First-moment estimates, one per weight tensor in the order the steps receive them.
    /// Empty until the first step sizes them (zeroed) from the weights.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, laid out like [`Adam::m`].
    pub v: Vec<Matrix>,
}

/// Elements of one [`Adam::step_sharded`] work item: large enough that handing it out costs
/// nothing next to updating it, small enough that CRN's `out1.w` (131,072 elements at
/// `H = 128`) splits into more items than there are workers.
const RANGE: usize = 16 * 1024;
/// Elements whose shard sum is formed before the update kernel consumes it — a stack buffer
/// that stays in L1 between the two.
const BLOCK: usize = 1024;

/// One work item of [`Adam::step_sharded`]: a range of one parameter tensor.
struct ParamRange<'a> {
    /// Index of the tensor among the parameters (and inside every shard's gradient set).
    part: usize,
    /// Offset of the range inside the tensor.
    start: usize,
    value: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
}

impl Adam {
    /// Creates an Adam optimizer with the paper's default hyperparameters.
    pub fn new(learning_rate: f32) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Performs one update step of `params` against `grads` (one matrix per parameter, in
    /// the same order).
    ///
    /// # Panics
    /// Panics if `grads` does not match the parameters in arity or element counts, or the
    /// moments of earlier steps do not match the parameters' shapes.
    pub fn step_with(&mut self, params: Vec<&mut Matrix>, grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "one gradient per parameter");
        let (mut ms, mut vs) = self.take_moments(&params);
        let (bias1, bias2) = self.advance();
        for (((value, grad), m), v) in params.into_iter().zip(grads).zip(&mut ms).zip(&mut vs) {
            self.update(
                value.data_mut(),
                m.data_mut(),
                v.data_mut(),
                grad.data(),
                bias1,
                bias2,
            );
        }
        (self.m, self.v) = (ms, vs);
    }

    /// The tail of a data-parallel mini-batch in one pass: per element, the shards'
    /// gradients are summed in the fixed order of
    /// [`reduce_gradients`](crate::parallel::reduce_gradients) (canonical left fold when
    /// `deterministic`, the doubling-stride tree otherwise) and the sum goes straight into
    /// the update kernel — bit-identical to `reduce_gradients` followed by
    /// [`Adam::step_with`], without materializing the merged set.  The parameters are cut
    /// into ranges that `workers` updates concurrently; an element's arithmetic does not
    /// depend on which range it falls in, so the result is the same for every thread count.
    ///
    /// # Panics
    /// Panics if `shards` is empty, a shard does not match the parameters in arity or
    /// element counts, or the moments of earlier steps do not match the parameters' shapes.
    pub fn step_sharded(
        &mut self,
        params: Vec<&mut Matrix>,
        shards: &[&GradientSet],
        deterministic: bool,
        workers: &WorkerPool,
    ) {
        assert!(!shards.is_empty(), "at least one shard of gradients");
        for shard in shards {
            assert_eq!(shard.len(), params.len(), "one gradient per parameter");
        }
        let (mut ms, mut vs) = self.take_moments(&params);
        let (bias1, bias2) = self.advance();
        let mut ranges = Vec::new();
        for (part, ((value, m), v)) in params.into_iter().zip(&mut ms).zip(&mut vs).enumerate() {
            for shard in shards {
                assert_eq!(
                    shard.parts()[part].len(),
                    value.len(),
                    "gradient shape mismatch"
                );
            }
            let chunks = value
                .data_mut()
                .chunks_mut(RANGE)
                .zip(m.data_mut().chunks_mut(RANGE))
                .zip(v.data_mut().chunks_mut(RANGE));
            for (index, ((value, m), v)) in chunks.enumerate() {
                // Each range is taken by exactly one worker; the mutex is what lets a
                // shared closure hand out its `&mut` slices.
                ranges.push(Mutex::new(ParamRange {
                    part,
                    start: index * RANGE,
                    value,
                    m,
                    v,
                }));
            }
        }
        let adam = &*self;
        workers.run_sharded(ranges.len(), |index| {
            let mut range = lock_ignoring_poison(&ranges[index]);
            let ParamRange {
                part,
                start,
                value,
                m,
                v,
            } = &mut *range;
            let mut sum = [0.0f32; BLOCK];
            for at in (0..value.len()).step_by(BLOCK) {
                let end = value.len().min(at + BLOCK);
                let sum = &mut sum[..end - at];
                sum_shards(shards, *part, *start + at, deterministic, sum);
                adam.update(
                    &mut value[at..end],
                    &mut m[at..end],
                    &mut v[at..end],
                    sum,
                    bias1,
                    bias2,
                );
            }
        });
        drop(ranges);
        (self.m, self.v) = (ms, vs);
    }

    /// Takes the moments out of the optimizer for one step over `params`: zeroed to the
    /// parameters' shapes on the first step, checked against them on every later one.
    fn take_moments(&mut self, params: &[&mut Matrix]) -> (Vec<Matrix>, Vec<Matrix>) {
        if self.m.is_empty() && self.v.is_empty() {
            let zeros = |param: &&mut Matrix| Matrix::zeros(param.rows(), param.cols());
            self.m = params.iter().map(zeros).collect();
            self.v = params.iter().map(zeros).collect();
        }
        let fits = |moments: &[Matrix]| {
            moments.len() == params.len()
                && moments.iter().zip(params).all(|(moment, param)| {
                    (moment.rows(), moment.cols()) == (param.rows(), param.cols())
                })
        };
        assert!(
            fits(&self.m) && fits(&self.v),
            "optimizer moments do not match the parameters"
        );
        (std::mem::take(&mut self.m), std::mem::take(&mut self.v))
    }

    /// Advances the step counter and returns the bias-correction denominators of the new
    /// step (shared prologue of the step variants).
    fn advance(&mut self) -> (f32, f32) {
        self.step_count += 1;
        let t = self.step_count as f32;
        (1.0 - self.beta1.powf(t), 1.0 - self.beta2.powf(t))
    }

    /// The Adam update of one run of elements against their gradients — the one kernel
    /// behind every step variant, and where the moment contract (module docs) is applied.
    fn update(
        &self,
        values: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grads: &[f32],
        bias1: f32,
        bias2: f32,
    ) {
        assert!(
            values.len() == grads.len() && m.len() == grads.len() && v.len() == grads.len(),
            "gradient shape mismatch"
        );
        for (((value, m), v), &g) in values.iter_mut().zip(m).zip(v).zip(grads) {
            *m = flush_subnormal(self.beta1 * *m + (1.0 - self.beta1) * g);
            *v = flush_subnormal(self.beta2 * *v + (1.0 - self.beta2) * g * g);
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *value -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

/// `0.0` for a subnormal (or zero) `x`, else `x` — compiles to a compare and a select.
#[inline]
fn flush_subnormal(x: f32) -> f32 {
    if x.abs() < f32::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

/// `out = Σ shards[·].parts()[part][at..at + out.len()]`, associated exactly as
/// [`reduce_gradients`](crate::parallel::reduce_gradients) associates it.
fn sum_shards(
    shards: &[&GradientSet],
    part: usize,
    at: usize,
    deterministic: bool,
    out: &mut [f32],
) {
    let end = at + out.len();
    let block = |shard: usize| &shards[shard].parts()[part].data()[at..end];
    if deterministic {
        out.copy_from_slice(block(0));
        for shard in 1..shards.len() {
            for (sum, &g) in out.iter_mut().zip(block(shard)) {
                *sum += g;
            }
        }
    } else {
        sum_tree(
            &block,
            0,
            shards.len().next_power_of_two(),
            shards.len(),
            out,
        );
    }
}

/// The doubling-stride tree over shards `first..first + span` (those below `count`):
/// the left half's sum plus the right half's, a lone left half passing through.
fn sum_tree<'a>(
    block: &impl Fn(usize) -> &'a [f32],
    first: usize,
    span: usize,
    count: usize,
    out: &mut [f32],
) {
    if span == 1 {
        out.copy_from_slice(block(first));
        return;
    }
    let half = span / 2;
    sum_tree(block, first, half, count, out);
    if first + half < count {
        let mut right = [0.0f32; BLOCK];
        let right = &mut right[..out.len()];
        sum_tree(block, first + half, half, count, right);
        for (sum, &g) in out.iter_mut().zip(right.iter()) {
            *sum += g;
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new(0.001)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn adam_moves_parameters_against_the_gradient() {
        let mut param = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let grad = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let mut adam = Adam::new(0.1);
        assert!(
            adam.m.is_empty() && adam.v.is_empty(),
            "no moments before a step"
        );
        adam.step_with(vec![&mut param], std::slice::from_ref(&grad));
        // A positive gradient decreases the value, a negative gradient increases it.
        assert!(param.get(0, 0) < 1.0);
        assert!(param.get(0, 1) > -1.0);
        // The first step sized the optimizer's moments from the weights.
        assert_eq!((adam.m.len(), adam.v.len()), (1, 1));
        assert_eq!((adam.m[0].rows(), adam.m[0].cols()), (1, 2));
        assert_eq!(adam.step_count, 1);
    }

    #[test]
    fn adam_converges_on_a_quadratic() {
        // Minimize f(x) = (x - 3)^2 starting from 0.
        let mut param = Matrix::from_vec(1, 1, vec![0.0]);
        let mut adam = Adam::new(0.05);
        for _ in 0..2000 {
            let x = param.get(0, 0);
            let grad = Matrix::from_vec(1, 1, vec![2.0 * (x - 3.0)]);
            adam.step_with(vec![&mut param], &[grad]);
        }
        assert!((param.get(0, 0) - 3.0).abs() < 1e-2);
    }

    /// `step_with` is the textbook Adam step (bias-corrected moments, away from the
    /// subnormal range), bit for bit: weights, moments and step count over several steps.
    #[test]
    fn step_with_matches_step_exactly() {
        let mut param = Matrix::from_vec(1, 3, vec![0.4, -0.8, 1.5]);
        let mut expected = param.data().to_vec();
        let (mut m, mut v) = ([0.0f32; 3], [0.0f32; 3]);
        let mut adam = Adam::new(0.01);
        for step in 0..5 {
            let grads = Matrix::from_vec(1, 3, vec![0.3 * step as f32, -0.2, 0.05]);
            adam.step_with(vec![&mut param], std::slice::from_ref(&grads));
            let t = (step + 1) as f32;
            let (bias1, bias2) = (1.0 - 0.9f32.powf(t), 1.0 - 0.999f32.powf(t));
            for (i, &g) in grads.data().iter().enumerate() {
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g;
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g;
                expected[i] -= 0.01 * (m[i] / bias1) / ((v[i] / bias2).sqrt() + 1e-8);
            }
        }
        assert_eq!(param.data(), expected.as_slice());
        assert_eq!(adam.m[0].data(), m.as_slice());
        assert_eq!(adam.v[0].data(), v.as_slice());
        assert_eq!(adam.step_count, 5);
    }

    #[test]
    #[should_panic(expected = "one gradient per parameter")]
    fn step_with_rejects_arity_mismatch() {
        let mut param = Matrix::zeros(1, 2);
        Adam::default().step_with(vec![&mut param], &[]);
    }

    /// Moments belong to the weights their first step sized them from: stepping other
    /// shapes with them is refused, not silently mixed.
    #[test]
    #[should_panic(expected = "optimizer moments do not match the parameters")]
    fn step_with_rejects_moments_of_other_weights() {
        let mut adam = Adam::default();
        let mut param = Matrix::zeros(1, 2);
        adam.step_with(vec![&mut param], &[Matrix::zeros(1, 2)]);
        let mut other = Matrix::zeros(2, 1);
        adam.step_with(vec![&mut other], &[Matrix::zeros(2, 1)]);
    }

    /// The moment contract: a first moment stuck at the smallest subnormal (where `0.9 · m`
    /// rounds back to `m` forever) is stored as zero by the next step, and the step does not
    /// move the parameter — the flush changes no weight.
    #[test]
    fn subnormal_moments_are_stored_as_zero_and_move_nothing() {
        let stuck = f32::from_bits(1);
        assert_eq!(0.9 * stuck, stuck, "the plateau the contract removes");
        let mut param = Matrix::from_vec(1, 3, vec![0.5, -0.25, 1.0e-20]);
        let mut adam = Adam {
            m: vec![Matrix::from_vec(1, 3, vec![stuck, -stuck, stuck])],
            v: vec![Matrix::from_vec(1, 3, vec![0.0, stuck, 1.0e-3])],
            ..Adam::default()
        };
        let before = param.clone();
        adam.step_with(vec![&mut param], &[Matrix::zeros(1, 3)]);
        assert_eq!(adam.m[0].data(), &[0.0, 0.0, 0.0]);
        assert_eq!(adam.v[0].data()[..2], [0.0, 0.0]);
        assert!(adam.v[0].data()[2] > 9.0e-4, "normal moments just decay");
        assert_eq!(param, before);
    }

    /// The fused pass is `reduce_gradients` followed by `step_with`, bit for bit — in both
    /// reduction orders, at every thread count, for tensors on both sides of the range and
    /// block sizes, over several steps (so the moments it leaves behind are compared too).
    #[test]
    fn step_sharded_is_reduce_then_step_with() {
        use crate::parallel::reduce_gradients;
        let shapes = [(3, RANGE), (1, BLOCK + 7), (5, 1), (1, 1)];
        let bits = |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
        for shard_count in [1usize, 3, 8] {
            for deterministic in [true, false] {
                for threads in [1usize, 2, 4] {
                    let mut fused: Vec<Matrix> = shapes
                        .iter()
                        .map(|&(rows, cols)| Matrix::xavier_seeded(rows, cols, 5))
                        .collect();
                    let mut reference = fused.clone();
                    let (mut adam_fused, mut adam_reference) = (Adam::new(0.01), Adam::new(0.01));
                    let workers = WorkerPool::new(threads);
                    for step in 0..3u64 {
                        let shards: Vec<GradientSet> = (0..shard_count as u64)
                            .map(|shard| {
                                let mut set = GradientSet::zeros(&shapes);
                                for (part, &(rows, cols)) in shapes.iter().enumerate() {
                                    let seed = step * 1_000 + shard * 10 + part as u64;
                                    *set.part_mut(part) = Matrix::xavier_seeded(rows, cols, seed);
                                }
                                set
                            })
                            .collect();
                        adam_fused.step_sharded(
                            fused.iter_mut().collect(),
                            &shards.iter().collect::<Vec<_>>(),
                            deterministic,
                            &workers,
                        );
                        let merged = reduce_gradients(shards, deterministic).expect("non-empty");
                        adam_reference.step_with(reference.iter_mut().collect(), merged.parts());
                    }
                    let what =
                        format!("{shard_count} shards, det {deterministic}, {threads} threads");
                    assert_eq!(adam_fused, adam_reference, "{what}");
                    let tensors = |weights: &[Matrix], adam: &Adam| -> Vec<Vec<u32>> {
                        weights
                            .iter()
                            .chain(&adam.m)
                            .chain(&adam.v)
                            .map(bits)
                            .collect()
                    };
                    assert_eq!(
                        tensors(&fused, &adam_fused),
                        tensors(&reference, &adam_reference),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_gradient_leaves_parameters_nearly_unchanged() {
        let mut param = Matrix::from_vec(1, 2, vec![0.5, 0.25]);
        let before = param.clone();
        let mut adam = Adam::default();
        adam.step_with(vec![&mut param], &[Matrix::zeros(1, 2)]);
        for (a, b) in before.data().iter().zip(param.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
