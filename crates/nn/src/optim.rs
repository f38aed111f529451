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
//! model's life (a long-lived `crn-online` controller resumes its moments across
//! refreshes).  Such a moment cannot move a weight: `lr · m / (1 − β₁ᵗ) / ε ≤ 1.2e-32` per
//! step, far below half an ulp of any weight it is subtracted from, and a subnormal second
//! moment adds `√v̂ ≤ 3.5e-18` to an `ε` of `1e-8`.
//!
//! # The update kernel
//!
//! [`Adam::step`], [`Adam::step_with`] and [`Adam::step_sharded`] differ in where the
//! gradient of an element comes from — the parameter's own accumulator, a merged
//! [`GradientSet`]'s tensor, or the per-shard sets summed on the fly — and all apply it
//! through the same per-element kernel.

use crate::layers::Param;
use crate::matrix::Matrix;
use crate::parallel::{lock_ignoring_poison, GradientSet, WorkerPool};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Adam optimizer state and hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        }
    }

    /// Performs one update step over the given parameters, consuming their accumulated
    /// gradients (which are cleared afterwards).
    pub fn step(&mut self, params: Vec<&mut Param>) {
        let (bias1, bias2) = self.advance();
        for param in params {
            let Param { value, grad, m, v } = param;
            self.update(
                value.data_mut(),
                m.data_mut(),
                v.data_mut(),
                grad.data(),
                bias1,
                bias2,
            );
            grad.fill_zero();
        }
    }

    /// Performs one update step reading the gradients from `grads` (one matrix per
    /// parameter, in the same order) instead of the parameters' own accumulators, which are
    /// left unchanged.  The update arithmetic is identical to [`Adam::step`] — only the
    /// gradient source differs.
    ///
    /// # Panics
    /// Panics if `grads` does not match the parameters in arity or element counts.
    pub fn step_with(&mut self, params: Vec<&mut Param>, grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "one gradient per parameter");
        let (bias1, bias2) = self.advance();
        for (param, grad) in params.into_iter().zip(grads) {
            self.update(
                param.value.data_mut(),
                param.m.data_mut(),
                param.v.data_mut(),
                grad.data(),
                bias1,
                bias2,
            );
        }
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
    /// Panics if `shards` is empty or a shard does not match the parameters in arity or
    /// element counts.
    pub fn step_sharded(
        &mut self,
        params: Vec<&mut Param>,
        shards: &[&GradientSet],
        deterministic: bool,
        workers: &WorkerPool,
    ) {
        assert!(!shards.is_empty(), "at least one shard of gradients");
        for shard in shards {
            assert_eq!(shard.len(), params.len(), "one gradient per parameter");
        }
        let (bias1, bias2) = self.advance();
        let mut ranges = Vec::new();
        for (part, param) in params.into_iter().enumerate() {
            for shard in shards {
                assert_eq!(
                    shard.parts()[part].len(),
                    param.value.len(),
                    "gradient shape mismatch"
                );
            }
            let Param { value, m, v, .. } = param;
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
        let mut param = Param::new(Matrix::from_vec(1, 2, vec![1.0, -1.0]));
        param.grad = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let mut adam = Adam::new(0.1);
        adam.step(vec![&mut param]);
        // A positive gradient decreases the value, a negative gradient increases it.
        assert!(param.value.get(0, 0) < 1.0);
        assert!(param.value.get(0, 1) > -1.0);
        // Gradients are cleared after the step.
        assert_eq!(param.grad.data(), &[0.0, 0.0]);
        assert_eq!(adam.step_count, 1);
    }

    #[test]
    fn adam_converges_on_a_quadratic() {
        // Minimize f(x) = (x - 3)^2 starting from 0.
        let mut param = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::new(0.05);
        for _ in 0..2000 {
            let x = param.value.get(0, 0);
            param.grad = Matrix::from_vec(1, 1, vec![2.0 * (x - 3.0)]);
            adam.step(vec![&mut param]);
        }
        assert!((param.value.get(0, 0) - 3.0).abs() < 1e-2);
    }

    /// `step_with` over external gradients must produce bit-identical parameters, moments
    /// and step count as `step` over accumulated gradients — it is the same update, the
    /// data-parallel engine only changes where the gradients live.
    #[test]
    fn step_with_matches_step_exactly() {
        let mut via_grad = Param::new(Matrix::from_vec(1, 3, vec![0.4, -0.8, 1.5]));
        let mut via_set = via_grad.clone();
        let mut adam_a = Adam::new(0.01);
        let mut adam_b = Adam::new(0.01);
        for step in 0..5 {
            let grads = Matrix::from_vec(1, 3, vec![0.3 * step as f32, -0.2, 0.05]);
            via_grad.grad = grads.clone();
            adam_a.step(vec![&mut via_grad]);
            adam_b.step_with(vec![&mut via_set], std::slice::from_ref(&grads));
        }
        assert_eq!(via_grad.value, via_set.value);
        assert_eq!(via_grad.m, via_set.m);
        assert_eq!(via_grad.v, via_set.v);
        assert_eq!(adam_a.step_count, adam_b.step_count);
        // step_with leaves the accumulator untouched.
        assert_eq!(via_set.grad.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one gradient per parameter")]
    fn step_with_rejects_arity_mismatch() {
        let mut param = Param::new(Matrix::zeros(1, 2));
        Adam::default().step_with(vec![&mut param], &[]);
    }

    /// The moment contract: a first moment stuck at the smallest subnormal (where `0.9 · m`
    /// rounds back to `m` forever) is stored as zero by the next step, and the step does not
    /// move the parameter — the flush changes no weight.
    #[test]
    fn subnormal_moments_are_stored_as_zero_and_move_nothing() {
        let stuck = f32::from_bits(1);
        assert_eq!(0.9 * stuck, stuck, "the plateau the contract removes");
        let mut param = Param::new(Matrix::from_vec(1, 3, vec![0.5, -0.25, 1.0e-20]));
        param.m = Matrix::from_vec(1, 3, vec![stuck, -stuck, stuck]);
        param.v = Matrix::from_vec(1, 3, vec![0.0, stuck, 1.0e-3]);
        let before = param.value.clone();
        let mut adam = Adam::default();
        adam.step_with(vec![&mut param], &[Matrix::zeros(1, 3)]);
        assert_eq!(param.m.data(), &[0.0, 0.0, 0.0]);
        assert_eq!(param.v.data()[..2], [0.0, 0.0]);
        assert!(param.v.data()[2] > 9.0e-4, "normal moments just decay");
        assert_eq!(param.value, before);
    }

    /// The fused pass is `reduce_gradients` followed by `step_with`, bit for bit — in both
    /// reduction orders, at every thread count, for tensors on both sides of the range and
    /// block sizes, over several steps (so the moments it leaves behind are compared too).
    #[test]
    fn step_sharded_is_reduce_then_step_with() {
        use crate::parallel::reduce_gradients;
        let shapes = [(3, RANGE), (1, BLOCK + 7), (5, 1), (1, 1)];
        for shard_count in [1usize, 3, 8] {
            for deterministic in [true, false] {
                for threads in [1usize, 2, 4] {
                    let mut fused: Vec<Param> = shapes
                        .iter()
                        .map(|&(rows, cols)| Param::new(Matrix::xavier_seeded(rows, cols, 5)))
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
                    assert_eq!(adam_fused, adam_reference);
                    for (a, b) in fused.iter().zip(&reference) {
                        let what =
                            format!("{shard_count} shards, det {deterministic}, {threads} threads");
                        for (x, y) in [(&a.value, &b.value), (&a.m, &b.m), (&a.v, &b.v)] {
                            let bits = |m: &Matrix| -> Vec<u32> {
                                m.data().iter().map(|v| v.to_bits()).collect()
                            };
                            assert_eq!(bits(x), bits(y), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_gradient_leaves_parameters_nearly_unchanged() {
        let mut param = Param::new(Matrix::from_vec(1, 2, vec![0.5, 0.25]));
        let before = param.value.clone();
        let mut adam = Adam::default();
        adam.step(vec![&mut param]);
        for (a, b) in before.data().iter().zip(param.value.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
