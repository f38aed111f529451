//! Ragged-batch execution: many variable-sized sets through one GEMM.
//!
//! The CRN and MSCN models consume *sets* of vectors — one set per query (CRN) or three sets
//! per query (MSCN) — and different queries have different set sizes.  Training with
//! mini-batches of 128 (paper §3.5) and the Cnt2Crd technique's per-anchor evaluation
//! (§5.3, Figure 8) therefore used to issue hundreds of tiny 1-sample matrix products per
//! step.  This module replaces that with a **ragged batch**: the sets of a whole mini-batch
//! are flattened into one tall matrix plus a segment-offset table, so that
//!
//! * every dense layer runs once per mini-batch as a `(Σnᵢ×d)·(d×H)` GEMM instead of `B`
//!   separate `(nᵢ×d)·(d×H)` products,
//! * pooling becomes a segment reduction ([`segment_pool`]) producing one `(B×H)` matrix,
//! * the paper's `Expand` combination (§3.2.3) and its gradient are vectorized over all `B`
//!   pairs at once ([`expand_full`] / [`expand_full_backward`]).
//!
//! The backward pass mirrors each step; gradients are *mathematically identical* to the
//! per-sample accumulation the models used before (the same sums, reassociated), which the
//! parity tests in `crn-core` and `crn-estimators` verify to 1e-5.
//!
//! Segment conventions: `offsets` has length `num_segments() + 1`, `offsets[0] == 0`,
//! `offsets[i] <= offsets[i+1]`, and `offsets.last() == rows.rows()`.  Empty segments are
//! legal (MSCN queries without joins) and pool to a zero row, matching the models' previous
//! empty-set handling.

use crate::matrix::Matrix;

/// A batch of variable-sized vector sets, flattened row-major with segment offsets.
///
/// When the packed rows are sparse enough (one-hot featurized query vectors are ~97% zeros),
/// a CSR view is built at packing time so the set encoders can iterate non-zeros directly
/// instead of scanning the dense rows — see [`RaggedBatch::sparse`].
#[derive(Debug, Clone, PartialEq)]
pub struct RaggedBatch {
    /// Dense flattened rows.  Empty (0×d) for CSR-only batches built by
    /// [`RaggedBatch::from_sparse_sets`] — consumers that can use [`RaggedBatch::sparse`]
    /// never touch it.
    rows: Matrix,
    offsets: Vec<usize>,
    sparse: Option<SparseRows>,
    num_rows: usize,
    dim: usize,
}

/// A compressed-sparse-rows view of a ragged batch's flattened rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    /// Row start positions into `columns` / `values` (`num_rows + 1` entries).
    row_offsets: Vec<u32>,
    /// Column index of each non-zero.
    columns: Vec<u32>,
    /// Value of each non-zero.
    values: Vec<f32>,
}

impl SparseRows {
    /// A view of no rows, with room for `rows` rows and `non_zeros` entries — the start of a
    /// featurizer that emits CSR rows directly ([`SparseRows::push_row`]).
    pub fn with_capacity(rows: usize, non_zeros: usize) -> SparseRows {
        let mut row_offsets = Vec::with_capacity(rows + 1);
        row_offsets.push(0);
        SparseRows {
            row_offsets,
            columns: Vec::with_capacity(non_zeros),
            values: Vec::with_capacity(non_zeros),
        }
    }

    /// Appends the row whose non-zeros are `entries` — `(column, value)` in ascending column
    /// order, the order [`SparseRows::from_matrix`] finds them in (it decides the `f32`
    /// summation order of every consumer).  Zero values are dropped, as `from_matrix` drops
    /// them.
    pub fn push_row(&mut self, entries: &[(usize, f32)]) {
        debug_assert!(entries.windows(2).all(|pair| pair[0].0 < pair[1].0));
        for &(column, value) in entries {
            if value != 0.0 {
                self.columns.push(column as u32);
                self.values.push(value);
            }
        }
        self.row_offsets.push(self.columns.len() as u32);
    }

    /// Builds the CSR view of a dense row-major matrix (used per sample, once, before the
    /// epoch loop — mini-batches then concatenate these via
    /// [`RaggedBatch::from_sparse_sets`]).
    pub fn from_matrix(rows: &Matrix) -> SparseRows {
        let nnz = rows.data().iter().filter(|v| **v != 0.0).count();
        let mut row_offsets = Vec::with_capacity(rows.rows() + 1);
        let mut columns = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_offsets.push(0);
        for r in 0..rows.rows() {
            for (col, &v) in rows.row(r).iter().enumerate() {
                if v != 0.0 {
                    columns.push(col as u32);
                    values.push(v);
                }
            }
            row_offsets.push(columns.len() as u32);
        }
        SparseRows {
            row_offsets,
            columns,
            values,
        }
    }

    /// Builds the CSR view of a dense row-major matrix, or `None` when more than
    /// `max_density` of the entries are non-zero (the dense kernels win there).
    fn from_dense(rows: &Matrix, max_density: f64) -> Option<SparseRows> {
        let total = rows.len();
        if total == 0 {
            return None;
        }
        let nnz = rows.data().iter().filter(|v| **v != 0.0).count();
        if (nnz as f64) > (total as f64) * max_density {
            return None;
        }
        Some(SparseRows::from_matrix(rows))
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// The `(column, value)` non-zeros of one row.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.row_offsets[r] as usize;
        let end = self.row_offsets[r + 1] as usize;
        self.columns[start..end]
            .iter()
            .map(|&c| c as usize)
            .zip(self.values[start..end].iter().copied())
    }

    /// Total number of stored non-zeros.
    pub fn num_non_zeros(&self) -> usize {
        self.columns.len()
    }
}

/// Rows sparser than this get a CSR view at packing time (featurized one-hot rows sit far
/// below it; dense activations far above).
const CSR_DENSITY_THRESHOLD: f64 = 0.25;

impl RaggedBatch {
    /// Creates a ragged batch from a flattened row matrix and its segment offsets.
    ///
    /// # Panics
    /// Panics if the offsets are not monotonically non-decreasing from `0` to `rows.rows()`.
    pub fn new(rows: Matrix, offsets: Vec<usize>) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert_eq!(
            *offsets.last().expect("non-empty"),
            rows.rows(),
            "offsets must end at the total row count"
        );
        let sparse = SparseRows::from_dense(&rows, CSR_DENSITY_THRESHOLD);
        let (num_rows, dim) = (rows.rows(), rows.cols());
        RaggedBatch {
            rows,
            offsets,
            sparse,
            num_rows,
            dim,
        }
    }

    /// Builds a CSR-only ragged batch by concatenating pre-computed per-set sparse rows —
    /// the zero-copy packing the training loops use: features are converted to
    /// [`SparseRows`] once before the epoch loop, and assembling a mini-batch only copies
    /// the (few) non-zeros instead of the dense rows.
    ///
    /// The dense [`RaggedBatch::rows`] view is left empty; every consumer of such a batch
    /// must go through [`RaggedBatch::sparse`] (the set-encoder paths all do).
    pub fn from_sparse_sets<'a>(
        dim: usize,
        sets: impl IntoIterator<Item = &'a SparseRows>,
    ) -> Self {
        let mut offsets = vec![0usize];
        let mut row_offsets = vec![0u32];
        let mut columns = Vec::new();
        let mut values = Vec::new();
        for set in sets {
            let base = *row_offsets.last().expect("non-empty");
            for r in 0..set.num_rows() {
                row_offsets.push(base + set.row_offsets[r + 1]);
            }
            columns.extend_from_slice(&set.columns);
            values.extend_from_slice(&set.values);
            offsets.push(offsets.last().expect("non-empty") + set.num_rows());
        }
        let num_rows = *offsets.last().expect("non-empty");
        RaggedBatch {
            rows: Matrix::zeros(0, dim),
            offsets,
            sparse: Some(SparseRows {
                row_offsets,
                columns,
                values,
            }),
            num_rows,
            dim,
        }
    }

    /// Packs a sequence of per-query set matrices (each `nᵢ × d`) into one ragged batch.
    ///
    /// # Panics
    /// Panics if the sets disagree on the vector dimension `d`.
    pub fn from_sets<'a>(sets: impl IntoIterator<Item = &'a Matrix>) -> Self {
        let sets: Vec<&Matrix> = sets.into_iter().collect();
        let dim = sets.first().map_or(0, |m| m.cols());
        let total_rows: usize = sets.iter().map(|m| m.rows()).sum();
        let mut data = Vec::with_capacity(total_rows * dim);
        let mut offsets = Vec::with_capacity(sets.len() + 1);
        offsets.push(0);
        for set in &sets {
            assert_eq!(set.cols(), dim, "all sets must share the vector dimension");
            data.extend_from_slice(set.data());
            offsets.push(offsets.last().expect("non-empty") + set.rows());
        }
        RaggedBatch::new(Matrix::from_vec(total_rows, dim, data), offsets)
    }

    /// [`RaggedBatch::from_sets`] with the CSR view built **unconditionally**, independent
    /// of batch density.
    ///
    /// The serving layer packs featurized query/anchor sets with this: those rows are the
    /// one-hot regime where the CSR path wins anyway, and — unlike the density-routed
    /// [`RaggedBatch::from_sets`] — the chosen execution path (and therefore the f32
    /// summation order per row) is a structural constant, not a function of which subset of
    /// rows happens to share a batch.  That invariance is what lets sharded serving split an
    /// anchor set arbitrarily and stay bit-identical to the unsharded scan.
    pub fn from_sets_csr<'a>(sets: impl IntoIterator<Item = &'a Matrix>) -> Self {
        let mut batch = RaggedBatch::from_sets(sets);
        if batch.sparse.is_none() {
            batch.sparse = Some(SparseRows::from_matrix(&batch.rows));
        }
        batch
    }

    /// Packs `copies` repetitions of one set (used to broadcast a single query against a
    /// batch of anchors in the Cnt2Crd serving path).
    pub fn from_repeated(set: &Matrix, copies: usize) -> Self {
        let mut data = Vec::with_capacity(set.len() * copies);
        let mut offsets = Vec::with_capacity(copies + 1);
        offsets.push(0);
        for i in 0..copies {
            data.extend_from_slice(set.data());
            offsets.push((i + 1) * set.rows());
        }
        RaggedBatch::new(
            Matrix::from_vec(set.rows() * copies, set.cols(), data),
            offsets,
        )
    }

    /// Number of sets (segments) in the batch.
    pub fn num_segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of flattened rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The shared vector dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The flattened `(Σnᵢ × d)` row matrix.
    ///
    /// Empty (0×d) for CSR-only batches from [`RaggedBatch::from_sparse_sets`]; check
    /// [`RaggedBatch::sparse`] first.
    pub fn rows(&self) -> &Matrix {
        &self.rows
    }

    /// The segment offset table (`num_segments() + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Number of rows of segment `i`.
    pub fn segment_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The CSR view of the flattened rows, when they were sparse enough at packing time.
    pub fn sparse(&self) -> Option<&SparseRows> {
        self.sparse.as_ref()
    }

    /// Extracts the sub-batch of the segments in `range` — the shard primitive of the
    /// data-parallel training engine.
    ///
    /// Shards cut strictly at segment boundaries (a segment-pool reduction never straddles
    /// two shards), row data and segment offsets are rebased to the shard, and the storage
    /// form is preserved: a CSR-only batch ([`RaggedBatch::from_sparse_sets`]) yields
    /// CSR-only shards by slicing the non-zeros, a dense batch yields dense shards.
    /// Concatenating the shards of [`RaggedBatch::split_shards`] therefore reproduces the
    /// original batch exactly (pinned by the proptest invariants).
    ///
    /// # Panics
    /// Panics if `range` exceeds [`RaggedBatch::num_segments`].
    pub fn slice_segments(&self, range: std::ops::Range<usize>) -> RaggedBatch {
        assert!(
            range.start <= range.end && range.end <= self.num_segments(),
            "segment range {range:?} out of bounds for {} segments",
            self.num_segments()
        );
        let row_start = self.offsets[range.start];
        let row_end = self.offsets[range.end];
        let offsets: Vec<usize> = self.offsets[range.start..=range.end]
            .iter()
            .map(|&offset| offset - row_start)
            .collect();
        if let Some(sparse) = self.sparse.as_ref().filter(|_| self.rows.rows() == 0) {
            // CSR-only batch: slice the non-zeros directly, keeping the shard CSR-only so
            // the set encoders take the same sparse path they would for the whole batch.
            let nnz_start = sparse.row_offsets[row_start] as usize;
            let nnz_end = sparse.row_offsets[row_end] as usize;
            let row_offsets: Vec<u32> = sparse.row_offsets[row_start..=row_end]
                .iter()
                .map(|&offset| offset - nnz_start as u32)
                .collect();
            RaggedBatch {
                rows: Matrix::zeros(0, self.dim),
                offsets,
                sparse: Some(SparseRows {
                    row_offsets,
                    columns: sparse.columns[nnz_start..nnz_end].to_vec(),
                    values: sparse.values[nnz_start..nnz_end].to_vec(),
                }),
                num_rows: row_end - row_start,
                dim: self.dim,
            }
        } else {
            let data = self.rows.data()[row_start * self.dim..row_end * self.dim].to_vec();
            RaggedBatch::new(
                Matrix::from_vec(row_end - row_start, self.dim, data),
                offsets,
            )
        }
    }

    /// Splits the batch into at most `num_shards` canonical contiguous shards (see
    /// [`shard_ranges`] for the partition and [`RaggedBatch::slice_segments`] for the
    /// slicing guarantees).
    pub fn split_shards(&self, num_shards: usize) -> Vec<RaggedBatch> {
        shard_ranges(self.num_segments(), num_shards)
            .into_iter()
            .map(|range| self.slice_segments(range))
            .collect()
    }
}

/// The canonical partition of `num_items` consecutive items into at most `num_shards`
/// contiguous, non-empty, near-even ranges (the first `num_items % shards` ranges hold one
/// extra item).
///
/// The partition is a pure function of `(num_items, num_shards)` — this is what makes
/// deterministic-mode training independent of scheduling: the shard boundaries, and hence
/// every per-shard f32 sum, depend only on the batch and the shard count.
pub fn shard_ranges(num_items: usize, num_shards: usize) -> Vec<std::ops::Range<usize>> {
    if num_items == 0 || num_shards == 0 {
        return Vec::new();
    }
    let shards = num_shards.min(num_items);
    let base = num_items / shards;
    let extra = num_items % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for shard in 0..shards {
        let len = base + usize::from(shard < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, num_items);
    ranges
}

/// How a segment of transformed element vectors is reduced to one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentPool {
    /// Average over the segment rows (the paper's choice, §3.2.2).
    Mean,
    /// Sum over the segment rows (ablation).
    Sum,
}

/// Reduces each segment of `values` to one row: `(Σnᵢ × d) -> (B × d)`.
///
/// Empty segments produce a zero row (the models' established empty-set encoding).
///
/// # Panics
/// Panics if `offsets` does not describe `values` (see [`RaggedBatch::new`] conventions).
pub fn segment_pool(values: &Matrix, offsets: &[usize], pool: SegmentPool) -> Matrix {
    assert_eq!(
        *offsets.last().expect("offsets non-empty"),
        values.rows(),
        "offsets must cover the value rows"
    );
    let num_segments = offsets.len() - 1;
    let mut out = Matrix::zeros(num_segments, values.cols());
    for segment in 0..num_segments {
        let (start, end) = (offsets[segment], offsets[segment + 1]);
        if start == end {
            continue;
        }
        let out_row = out.row_mut(segment);
        for row in start..end {
            for (acc, &v) in out_row.iter_mut().zip(values.row(row)) {
                *acc += v;
            }
        }
        if pool == SegmentPool::Mean {
            let scale = 1.0 / (end - start) as f32;
            for acc in out_row.iter_mut() {
                *acc *= scale;
            }
        }
    }
    out
}

/// Backward pass of [`segment_pool`]: scatters each pooled-row gradient back over its
/// segment rows (scaled by `1/nᵢ` for the mean).
pub fn segment_pool_backward(offsets: &[usize], grad_pooled: &Matrix, pool: SegmentPool) -> Matrix {
    assert_eq!(
        grad_pooled.rows(),
        offsets.len() - 1,
        "one pooled gradient row per segment"
    );
    let total_rows = *offsets.last().expect("offsets non-empty");
    let mut grad = Matrix::zeros(total_rows, grad_pooled.cols());
    for segment in 0..grad_pooled.rows() {
        let (start, end) = (offsets[segment], offsets[segment + 1]);
        if start == end {
            continue;
        }
        let scale = match pool {
            SegmentPool::Mean => 1.0 / (end - start) as f32,
            SegmentPool::Sum => 1.0,
        };
        for row in start..end {
            for (g, &o) in grad.row_mut(row).iter_mut().zip(grad_pooled.row(segment)) {
                *g = o * scale;
            }
        }
    }
    grad
}

/// The paper's `Expand` combination, vectorized over a batch:
/// `(B×H, B×H) -> (B×4H)` with layout `[v1, v2, |v1 − v2|, v1 ⊙ v2]` per row (§3.2.3).
///
/// # Panics
/// Panics if the two inputs disagree in shape.
pub fn expand_full(q1: &Matrix, q2: &Matrix) -> Matrix {
    assert_eq!(q1.rows(), q2.rows(), "expand inputs must pair up");
    assert_eq!(q1.cols(), q2.cols(), "expand inputs must share the width");
    let (batch, hidden) = (q1.rows(), q1.cols());
    let mut out = Matrix::zeros(batch, 4 * hidden);
    for row in 0..batch {
        let (head, tail) = out.row_mut(row).split_at_mut(hidden);
        head.copy_from_slice(q1.row(row));
        expand_full_tail(q1.row(row), q2.row(row), tail);
    }
    out
}

/// The columns of one [`expand_full`] row after its leading `v1` block:
/// `out (3H) = [v2, |v1 − v2|, v1 ⊙ v2]`.  Serving writes only these — the head's sum over
/// the `v1` block is computed once per anchor or query, not once per pair.
///
/// # Panics
/// Panics if `v1` and `v2` differ in length or `out` is not three times as long.
pub fn expand_full_tail(v1: &[f32], v2: &[f32], out: &mut [f32]) {
    let hidden = v1.len();
    assert_eq!(v2.len(), hidden, "expand inputs must share the width");
    assert_eq!(out.len(), 3 * hidden, "expand tail is three blocks wide");
    let (copy, rest) = out.split_at_mut(hidden);
    let (abs_diff, product) = rest.split_at_mut(hidden);
    copy.copy_from_slice(v2);
    let pairs = v1.iter().zip(v2);
    for ((abs_diff, product), (&a, &b)) in abs_diff.iter_mut().zip(product).zip(pairs) {
        *abs_diff = (a - b).abs();
        *product = a * b;
    }
}

/// Backward pass of [`expand_full`]: maps `dL/d expanded (B×4H)` to
/// `(dL/d q1, dL/d q2)`, both `(B×H)`.
///
/// The sub-gradient of `|a − b|` at `a == b` is taken as 0, matching the scalar
/// implementation the models used before batching.
pub fn expand_full_backward(q1: &Matrix, q2: &Matrix, grad: &Matrix) -> (Matrix, Matrix) {
    let (batch, hidden) = (q1.rows(), q1.cols());
    assert_eq!(grad.rows(), batch);
    assert_eq!(grad.cols(), 4 * hidden);
    let mut grad1 = Matrix::zeros(batch, hidden);
    let mut grad2 = Matrix::zeros(batch, hidden);
    for row in 0..batch {
        let left = q1.row(row);
        let right = q2.row(row);
        let grad_row = grad.row(row);
        for i in 0..hidden {
            let (a, b) = (left[i], right[i]);
            let g_a = grad_row[i];
            let g_b = grad_row[hidden + i];
            let g_abs = grad_row[2 * hidden + i];
            let g_prod = grad_row[3 * hidden + i];
            let sign = if a > b {
                1.0
            } else if a < b {
                -1.0
            } else {
                0.0
            };
            grad1.set(row, i, g_a + g_abs * sign + g_prod * b);
            grad2.set(row, i, g_b - g_abs * sign + g_prod * a);
        }
    }
    (grad1, grad2)
}

/// Plain concatenation `(B×H, B×H) -> (B×2H)` (the `Expand` ablation).
pub fn expand_concat(q1: &Matrix, q2: &Matrix) -> Matrix {
    assert_eq!(q1.rows(), q2.rows(), "concat inputs must pair up");
    assert_eq!(q1.cols(), q2.cols(), "concat inputs must share the width");
    let (batch, hidden) = (q1.rows(), q1.cols());
    let mut out = Matrix::zeros(batch, 2 * hidden);
    for row in 0..batch {
        out.row_mut(row)[..hidden].copy_from_slice(q1.row(row));
        out.row_mut(row)[hidden..].copy_from_slice(q2.row(row));
    }
    out
}

/// Backward pass of [`expand_concat`].
pub fn expand_concat_backward(grad: &Matrix) -> (Matrix, Matrix) {
    assert_eq!(grad.cols() % 2, 0, "concat gradient width must be even");
    let (batch, hidden) = (grad.rows(), grad.cols() / 2);
    let mut grad1 = Matrix::zeros(batch, hidden);
    let mut grad2 = Matrix::zeros(batch, hidden);
    for row in 0..batch {
        grad1.row_mut(row).copy_from_slice(&grad.row(row)[..hidden]);
        grad2.row_mut(row).copy_from_slice(&grad.row(row)[hidden..]);
    }
    (grad1, grad2)
}

/// Horizontal concatenation of equal-height blocks: `[(B×d₁), (B×d₂), ...] -> (B×Σdⱼ)`
/// (used by MSCN to join its three pooled set representations).
pub fn concat_columns(blocks: &[&Matrix]) -> Matrix {
    let batch = blocks.first().map_or(0, |m| m.rows());
    let total: usize = blocks.iter().map(|m| m.cols()).sum();
    let mut out = Matrix::zeros(batch, total);
    for row in 0..batch {
        let out_row = out.row_mut(row);
        let mut cursor = 0;
        for block in blocks {
            assert_eq!(block.rows(), batch, "all blocks must share the batch size");
            out_row[cursor..cursor + block.cols()].copy_from_slice(block.row(row));
            cursor += block.cols();
        }
    }
    out
}

/// Splits a `(B×Σdⱼ)` gradient back into per-block gradients of the given widths.
pub fn split_columns(grad: &Matrix, widths: &[usize]) -> Vec<Matrix> {
    assert_eq!(
        widths.iter().sum::<usize>(),
        grad.cols(),
        "widths must cover the gradient columns"
    );
    let mut blocks: Vec<Matrix> = widths
        .iter()
        .map(|&w| Matrix::zeros(grad.rows(), w))
        .collect();
    for row in 0..grad.rows() {
        let grad_row = grad.row(row);
        let mut cursor = 0;
        for (block, &width) in blocks.iter_mut().zip(widths) {
            block
                .row_mut(row)
                .copy_from_slice(&grad_row[cursor..cursor + width]);
            cursor += width;
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{mean_pool, mean_pool_backward};

    fn ragged_fixture() -> RaggedBatch {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::zeros(0, 3);
        let c = Matrix::from_vec(1, 3, vec![7.0, 8.0, 9.0]);
        RaggedBatch::from_sets([&a, &b, &c])
    }

    #[test]
    fn packing_preserves_rows_and_offsets() {
        let batch = ragged_fixture();
        assert_eq!(batch.num_segments(), 3);
        assert_eq!(batch.num_rows(), 3);
        assert_eq!(batch.dim(), 3);
        assert_eq!(batch.offsets(), &[0, 2, 2, 3]);
        assert_eq!(batch.segment_len(0), 2);
        assert_eq!(batch.segment_len(1), 0);
        assert_eq!(batch.rows().row(2), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn repeated_packing_broadcasts_one_set() {
        let set = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let batch = RaggedBatch::from_repeated(&set, 3);
        assert_eq!(batch.num_segments(), 3);
        assert_eq!(batch.num_rows(), 6);
        assert_eq!(batch.rows().row(4), &[1.0, 2.0]);
        assert_eq!(batch.offsets(), &[0, 2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "share the vector dimension")]
    fn packing_rejects_mismatched_dims() {
        let a = Matrix::zeros(1, 3);
        let b = Matrix::zeros(1, 4);
        let _ = RaggedBatch::from_sets([&a, &b]);
    }

    #[test]
    #[should_panic(expected = "end at the total row count")]
    fn new_rejects_inconsistent_offsets() {
        let _ = RaggedBatch::new(Matrix::zeros(3, 2), vec![0, 1]);
    }

    #[test]
    fn segment_pool_matches_per_set_mean_pool() {
        let batch = ragged_fixture();
        let pooled = segment_pool(batch.rows(), batch.offsets(), SegmentPool::Mean);
        assert_eq!(
            pooled.row(0),
            mean_pool(&Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])).row(0)
        );
        assert_eq!(
            pooled.row(1),
            &[0.0, 0.0, 0.0],
            "empty segment pools to zero"
        );
        assert_eq!(pooled.row(2), &[7.0, 8.0, 9.0]);
        let summed = segment_pool(batch.rows(), batch.offsets(), SegmentPool::Sum);
        assert_eq!(summed.row(0), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn segment_pool_backward_matches_per_set_backward() {
        let batch = ragged_fixture();
        let grad_pooled = Matrix::from_vec(3, 3, vec![3.0; 9]);
        let grad = segment_pool_backward(batch.offsets(), &grad_pooled, SegmentPool::Mean);
        // Segment 0 (2 rows): the per-set backward distributes 3.0 / 2 per row.
        let reference = mean_pool_backward(2, &Matrix::from_vec(1, 3, vec![3.0; 3]));
        assert_eq!(grad.row(0), reference.row(0));
        assert_eq!(grad.row(1), reference.row(1));
        // Segment 2 (1 row): gradient passes through unscaled.
        assert_eq!(grad.row(2), &[3.0, 3.0, 3.0]);
        let grad_sum = segment_pool_backward(batch.offsets(), &grad_pooled, SegmentPool::Sum);
        assert_eq!(grad_sum.row(0), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn expand_full_matches_manual_layout_and_gradient() {
        let q1 = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 0.5]);
        let q2 = Matrix::from_vec(2, 2, vec![3.0, 1.0, 0.5, -0.5]);
        let expanded = expand_full(&q1, &q2);
        assert_eq!(expanded.row(0), &[1.0, -2.0, 3.0, 1.0, 2.0, 3.0, 3.0, -2.0]);
        assert_eq!(
            expanded.row(1),
            &[0.5, 0.5, 0.5, -0.5, 0.0, 1.0, 0.25, -0.25]
        );

        // Finite-difference check of the backward pass.
        let grad_out = Matrix::from_vec(2, 8, (1..=16).map(|v| v as f32 / 8.0).collect());
        let (g1, g2) = expand_full_backward(&q1, &q2, &grad_out);
        let loss = |q1: &Matrix, q2: &Matrix| -> f32 {
            expand_full(q1, q2)
                .data()
                .iter()
                .zip(grad_out.data())
                .map(|(v, g)| v * g)
                .sum()
        };
        let eps = 1e-3f32;
        for (row, col) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
            for (which, analytic) in [(&q1, &g1), (&q2, &g2)] {
                let mut plus = (*which).clone();
                plus.set(row, col, which.get(row, col) + eps);
                let mut minus = (*which).clone();
                minus.set(row, col, which.get(row, col) - eps);
                let (lp, lm) = if std::ptr::eq(which, &q1) {
                    (loss(&plus, &q2), loss(&minus, &q2))
                } else {
                    (loss(&q1, &plus), loss(&q1, &minus))
                };
                let numeric = (lp - lm) / (2.0 * eps);
                // Skip points that straddle the |a-b| kink (row 1 has a == b in column 1).
                if (q1.get(row, col) - q2.get(row, col)).abs() > 2.0 * eps {
                    assert!(
                        (numeric - analytic.get(row, col)).abs() < 1e-2,
                        "({row},{col}): numeric {numeric} vs analytic {}",
                        analytic.get(row, col)
                    );
                }
            }
        }
    }

    #[test]
    fn concat_expand_round_trips_gradients() {
        let q1 = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let q2 = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let cat = expand_concat(&q1, &q2);
        assert_eq!(cat.row(0), &[1.0, 2.0, 5.0, 6.0]);
        let (g1, g2) = expand_concat_backward(&cat);
        assert_eq!(g1, q1);
        assert_eq!(g2, q2);
    }

    #[test]
    fn shard_ranges_partition_canonically() {
        assert_eq!(shard_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(shard_ranges(4, 4), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(shard_ranges(2, 5), vec![0..1, 1..2], "capped by item count");
        assert_eq!(shard_ranges(5, 1), vec![0..5]);
        assert!(shard_ranges(0, 3).is_empty());
        assert!(shard_ranges(3, 0).is_empty());
    }

    #[test]
    fn slice_segments_preserves_rows_and_empty_segments() {
        let batch = ragged_fixture(); // segments of 2, 0, 1 rows
        let head = batch.slice_segments(0..2);
        assert_eq!(head.num_segments(), 2);
        assert_eq!(head.num_rows(), 2);
        assert_eq!(head.offsets(), &[0, 2, 2]);
        assert_eq!(head.rows().row(1), &[4.0, 5.0, 6.0]);
        let tail = batch.slice_segments(2..3);
        assert_eq!(tail.num_segments(), 1);
        assert_eq!(tail.rows().row(0), &[7.0, 8.0, 9.0]);
        let empty = batch.slice_segments(1..1);
        assert_eq!(empty.num_segments(), 0);
        assert_eq!(empty.num_rows(), 0);
    }

    #[test]
    fn split_shards_of_csr_batch_stays_csr() {
        let a = Matrix::from_vec(2, 4, vec![0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]);
        let b = Matrix::from_vec(1, 4, vec![0.0, 0.0, 3.0, 0.0]);
        let sparse: Vec<SparseRows> = [&a, &b].map(SparseRows::from_matrix).to_vec();
        let batch = RaggedBatch::from_sparse_sets(4, sparse.iter());
        let shards = batch.split_shards(2);
        assert_eq!(shards.len(), 2);
        for shard in &shards {
            assert!(shard.sparse().is_some(), "CSR-only shards stay CSR-only");
            assert_eq!(shard.rows().rows(), 0);
        }
        let nz: Vec<(usize, f32)> = shards[1].sparse().unwrap().row(0).collect();
        assert_eq!(nz, vec![(2, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_segments_rejects_out_of_range() {
        let _ = ragged_fixture().slice_segments(0..4);
    }

    #[test]
    fn column_concat_and_split_are_inverses() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let joined = concat_columns(&[&a, &b]);
        assert_eq!(joined.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(joined.row(1), &[2.0, 5.0, 6.0]);
        let split = split_columns(&joined, &[1, 2]);
        assert_eq!(split[0], a);
        assert_eq!(split[1], b);
    }
}

#[cfg(test)]
mod shard_proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a random ragged shape: per-segment row counts (empty segments included) and
    /// random row values.
    fn random_sets(seed: u64) -> Vec<Matrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_segments = rng.gen_range(0..12usize);
        let dim = rng.gen_range(1..7usize);
        (0..num_segments)
            .map(|_| {
                let rows = rng.gen_range(0..5usize);
                let data = (0..rows * dim)
                    .map(|_| rng.gen_range(-2.0f32..2.0))
                    .collect();
                Matrix::from_vec(rows, dim, data)
            })
            .collect()
    }

    /// Checks the shard invariants for one batch: the partition is exhaustive and ordered,
    /// no segment (and hence no segment-pool boundary) straddles two shards, and
    /// concatenating the shards reproduces the original batch's offsets and row data.
    fn assert_shards_reassemble(batch: &RaggedBatch, num_shards: usize) -> Result<(), String> {
        let shards = batch.split_shards(num_shards);
        let ranges = shard_ranges(batch.num_segments(), num_shards);
        prop_assert_eq!(shards.len(), ranges.len());

        let mut segment_lens = Vec::new();
        let mut rows_seen = 0usize;
        for (shard, range) in shards.iter().zip(&ranges) {
            prop_assert_eq!(shard.num_segments(), range.len());
            prop_assert_eq!(shard.dim(), batch.dim());
            prop_assert_eq!(shard.offsets()[0], 0usize);
            // Segment boundaries survive intact: each shard segment is exactly one
            // original segment, in order.
            for i in 0..shard.num_segments() {
                segment_lens.push(shard.segment_len(i));
            }
            rows_seen += shard.num_rows();
        }
        let original_lens: Vec<usize> = (0..batch.num_segments())
            .map(|i| batch.segment_len(i))
            .collect();
        prop_assert_eq!(segment_lens, original_lens);
        prop_assert_eq!(rows_seen, batch.num_rows());

        // Row data round-trips: walk the shards in order and compare against the original
        // flattened rows (through the CSR view for CSR-only shards).
        let densify = |b: &RaggedBatch| -> Vec<f32> {
            match b.sparse() {
                Some(sparse) if b.rows().rows() == 0 => {
                    let mut data = vec![0.0f32; b.num_rows() * b.dim()];
                    for r in 0..b.num_rows() {
                        for (col, value) in sparse.row(r) {
                            data[r * b.dim() + col] = value;
                        }
                    }
                    data
                }
                _ => b.rows().data().to_vec(),
            }
        };
        let reassembled: Vec<f32> = shards.iter().flat_map(&densify).collect();
        prop_assert_eq!(reassembled, densify(batch));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Dense batches: for random ragged shapes and shard counts, concatenating the
        /// shards reproduces the original batch and segments never straddle a shard.
        #[test]
        fn dense_shards_reassemble(seed in 0u64..10_000, num_shards in 1usize..10) {
            let sets = random_sets(seed);
            if sets.is_empty() {
                let batch = RaggedBatch::from_sets(std::iter::empty::<&Matrix>());
                prop_assert!(batch.split_shards(num_shards).is_empty());
            } else {
                let batch = RaggedBatch::from_sets(sets.iter());
                assert_shards_reassemble(&batch, num_shards)?;
            }
        }

        /// CSR-only batches (the training loop's packing): same invariants, and the shards
        /// must stay CSR-only.
        #[test]
        fn sparse_shards_reassemble(seed in 10_000u64..20_000, num_shards in 1usize..10) {
            let sets = random_sets(seed);
            if sets.is_empty() {
                return Ok(());
            }
            let dim = sets[0].cols();
            let sparse_sets: Vec<SparseRows> =
                sets.iter().map(SparseRows::from_matrix).collect();
            let batch = RaggedBatch::from_sparse_sets(dim, sparse_sets.iter());
            for shard in batch.split_shards(num_shards) {
                prop_assert!(shard.sparse().is_some());
            }
            assert_shards_reassemble(&batch, num_shards)?;
        }

        /// Sharding then segment-pooling each shard equals pooling the whole batch: the
        /// invariant the data-parallel forward pass relies on.
        #[test]
        fn shard_pooling_matches_whole_batch_pooling(seed in 20_000u64..30_000, num_shards in 1usize..10) {
            let sets = random_sets(seed);
            if sets.is_empty() {
                return Ok(());
            }
            let batch = RaggedBatch::from_sets(sets.iter());
            let whole = segment_pool(batch.rows(), batch.offsets(), SegmentPool::Mean);
            let mut segment = 0usize;
            for shard in batch.split_shards(num_shards) {
                let pooled = segment_pool(shard.rows(), shard.offsets(), SegmentPool::Mean);
                for row in 0..pooled.rows() {
                    prop_assert_eq!(pooled.row(row), whole.row(segment));
                    segment += 1;
                }
            }
            prop_assert_eq!(segment, batch.num_segments());
        }
    }
}
