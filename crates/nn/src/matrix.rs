//! A minimal dense row-major matrix type.
//!
//! The CRN and MSCN models are small multi-layer perceptrons (a few hundred units), so one
//! unblocked row-major `f32` matrix type is entirely sufficient; its dense product runs
//! through the register-blocked kernels of [`crate::gemm`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(data: &[f32]) -> Self {
        Matrix::from_vec(1, data.len(), data.to_vec())
    }

    /// Xavier/Glorot-uniform initialization, the standard choice for ReLU/sigmoid MLPs.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Deterministic Xavier initialization from a seed.
    pub fn xavier_seeded(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::xavier(rows, cols, &mut rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row.
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of one row.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix multiplication `self (m×k) * other (k×n) -> (m×n)` — the dense kernel, and the
    /// strided entry point of [`crate::gemm`]: for a right operand that is multiplied once.
    /// Weights that many products share — inference's, and a training step's across its
    /// shards — are multiplied as [`PackedWeights`](crate::gemm::PackedWeights) through
    /// [`gemm_packed`](crate::gemm::gemm_packed) instead, with bit-identical results.
    ///
    /// Runs the row-block micro-kernel of the best SIMD tier the CPU has (AVX-512, else
    /// AVX2+FMA, else portable loops): blocks of up to 8 (4) rows keep their slice of the
    /// output in registers over the whole reduction and share every load of `other` — the
    /// mechanism that makes one `(B×d)·(d×H)` GEMM over a ragged batch several times faster
    /// than `B` per-sample products, each of which would re-stream the weight matrix from
    /// cache.  The block height is generic, so the last `m % 8` rows run the same body as a
    /// full block.
    ///
    /// The kernel is branch-free: an earlier version skipped zero left entries inside the
    /// inner loop, but benchmarking showed the check costs ~7% on dense activations (the
    /// common case for this kernel) while only paying off on sparse inputs — use
    /// [`Matrix::matmul_sparse`] when the left operand is known to be mostly zeros.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::gemm::gemm_strided(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        out
    }

    /// Matrix multiplication `self (m×k) * other (k×n) -> (m×n)` — the sparsity-aware kernel.
    ///
    /// Identical contract to [`Matrix::matmul`], but zero left entries skip the inner loop.
    /// Benchmarked on this workspace's shapes (`nn_kernels/matmul_*` in the `primitives`
    /// bench): the skip only wins when the left operand is one-hot featurized query vectors
    /// (~3 non-zeros per row, ~1.4× faster than the SIMD dense kernel); on post-ReLU
    /// activations (~50% zeros) the unpredictable branch makes it ~5× *slower*, and on dense
    /// inputs ~7× slower.  The models therefore route only featurized one-hot rows here
    /// (via [`crate::batch::RaggedBatch`]'s CSR view or this kernel) and every activation
    /// through the branch-free SIMD kernel.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul_sparse(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(other_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self^T (k×m) * other (k×n) -> (m×n)`, without materializing the transpose.
    ///
    /// Keeps the zero-skip: every call site feeds `self` with layer *inputs* during backprop
    /// (`dW = x^T·g`), which are one-hot feature rows or post-ReLU activations — the sparse
    /// regimes where the skip measures faster (see [`Matrix::matmul_sparse`]).  For dense
    /// operands of batched shapes use [`crate::gemm::gemm_transpose_a_into`].
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul dimension mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let left_row = self.row(k);
            let right_row = other.row(k);
            for (i, &a) in left_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(right_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self (m×k) * other^T (n×k) -> (m×n)`, without materializing the transpose.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose dimension mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let left_row = self.row(i);
            for j in 0..other.rows {
                let right_row = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in left_row.iter().zip(right_row) {
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Explicit transpose, in 32×32 tiles: both the rows read and the rows written of a tile
    /// stay in L1, where an untiled row-by-row loop misses on every strided write.
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for tile_row in (0..self.rows).step_by(TILE) {
            let row_end = self.rows.min(tile_row + TILE);
            for tile_col in (0..self.cols).step_by(TILE) {
                let col_end = self.cols.min(tile_col + TILE);
                for i in tile_row..row_end {
                    let source = &self.data[i * self.cols + tile_col..i * self.cols + col_end];
                    for (j, &value) in (tile_col..col_end).zip(source) {
                        out.data[j * self.rows + i] = value;
                    }
                }
            }
        }
        out
    }

    /// Adds a row vector (broadcast over rows), e.g. a bias.
    ///
    /// # Panics
    /// Panics if the bias length does not match the number of columns.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for i in 0..self.rows {
            for (v, &b) in self.row_mut(i).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Element-wise addition of another matrix (in place).
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales all elements (in place).
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Sets every element to zero (used to reset accumulated gradients).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of each column, returned as a vector of length `cols`.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(i)) {
                *s += v;
            }
        }
        sums
    }

    /// Mean of all rows, returned as a single-row matrix (used for set average-pooling).
    pub fn row_mean(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        let sums = self.column_sums();
        for (o, s) in out.row_mut(0).iter_mut().zip(sums) {
            *o = s / self.rows as f32;
        }
        out
    }

    /// Frobenius norm (used in tests and for diagnostics).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl Deserialize for Matrix {
    /// Loads a matrix only if its document's `rows × cols` is exactly its data length, so a
    /// mis-shaped matrix in a saved model or frame fails at load instead of panicking later.
    fn from_content(content: &serde::content::Content) -> Result<Self, serde::de::Error> {
        let rows = usize::from_content(content.field("rows")?)?;
        let cols = usize::from_content(content.field("cols")?)?;
        let data = Vec::<f32>::from_content(content.field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::de::Error::custom(format!(
                "a {rows}×{cols} matrix cannot hold {} values",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols(), m.len()), (2, 3, 6));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert!(!m.is_empty());
        let r = Matrix::row_vector(&[1.0, 2.0]);
        assert_eq!((r.rows(), r.cols()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn sparse_kernel_matches_dense_kernel() {
        // Dense, post-ReLU-like and one-hot left operands must all give identical products.
        let b = Matrix::xavier_seeded(6, 5, 21);
        let mut left_variants = vec![Matrix::xavier_seeded(4, 6, 20)];
        let mut relu_like = Matrix::xavier_seeded(4, 6, 22);
        for v in relu_like.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        left_variants.push(relu_like);
        let mut one_hot = Matrix::zeros(4, 6);
        for r in 0..4 {
            one_hot.set(r, (r * 5) % 6, 1.0);
        }
        left_variants.push(one_hot);
        for a in left_variants {
            let dense = a.matmul(&b);
            let sparse = a.matmul_sparse(&b);
            // The kernels may differ in FMA contraction, so compare to float tolerance.
            for (x, y) in dense.data().iter().zip(sparse.data()) {
                assert!((x - y).abs() < 1e-6, "dense {x} vs sparse {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::xavier_seeded(4, 3, 1);
        let b = Matrix::xavier_seeded(4, 5, 2);
        let c = Matrix::xavier_seeded(5, 3, 3);
        // a^T * b == transpose(a).matmul(b)
        let expected = a.transpose().matmul(&b);
        for (x, y) in expected.data().iter().zip(a.transpose_matmul(&b).data()) {
            assert!((x - y).abs() < 1e-5);
        }
        // a * c^T == a.matmul(transpose(c))
        let expected = a.matmul(&c.transpose());
        for (x, y) in expected.data().iter().zip(a.matmul_transpose(&c).data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// Shapes on both sides of the tile size, against the definition.
    #[test]
    fn tiled_transpose_moves_every_element() {
        for (rows, cols) in [(1, 1), (3, 70), (32, 32), (33, 31), (70, 65)] {
            let m = Matrix::xavier_seeded(rows, cols, (rows * 100 + cols) as u64);
            let t = m.transpose();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(t.get(j, i).to_bits(), m.get(i, j).to_bits());
                }
            }
        }
    }

    /// The dispatched kernel (SIMD where available) must match a plain reference product on
    /// shapes that exercise every register-block remainder combination.
    #[test]
    fn blocked_kernel_matches_reference_on_remainder_shapes() {
        let reference = |a: &Matrix, b: &Matrix| -> Matrix {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for j in 0..b.cols() {
                    let mut acc = 0.0f32;
                    for p in 0..a.cols() {
                        acc += a.get(i, p) * b.get(p, j);
                    }
                    out.set(i, j, acc);
                }
            }
            out
        };
        // m covers {<MR, =MR, MR+r}, n covers {<8, <NR, =NR, NR+r}, k odd/even.
        for (m, k, n) in [
            (1, 7, 5),
            (3, 8, 16),
            (4, 91, 64),
            (5, 13, 17),
            (8, 10, 33),
            (13, 24, 91),
            (128, 91, 64),
        ] {
            let a = Matrix::xavier_seeded(m, k, (m * 31 + n) as u64);
            let b = Matrix::xavier_seeded(k, n, (n * 17 + k) as u64);
            let expected = reference(&a, &b);
            let actual = a.matmul(&b);
            for (index, (x, y)) in expected.data().iter().zip(actual.data()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-4 * x.abs().max(1.0),
                    "({m}x{k}x{n})[{index}]: reference {x} vs kernel {y}"
                );
            }
        }
    }

    #[test]
    fn broadcast_and_elementwise_helpers() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
        let other = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        m.add_assign(&other);
        assert_eq!(m.data(), &[12.0, 23.0, 14.0, 25.0]);
        m.scale(0.5);
        assert_eq!(m.data(), &[6.0, 11.5, 7.0, 12.5]);
        m.fill_zero();
        assert_eq!(m.data(), &[0.0; 4]);
    }

    #[test]
    fn column_sums_and_row_mean() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.column_sums(), vec![5.0, 7.0, 9.0]);
        let mean = m.row_mean();
        assert_eq!(mean.data(), &[2.5, 3.5, 4.5]);
        let empty = Matrix::zeros(0, 3);
        assert_eq!(empty.row_mean().data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn xavier_initialization_is_bounded_and_seeded() {
        let a = Matrix::xavier_seeded(10, 20, 7);
        let b = Matrix::xavier_seeded(10, 20, 7);
        assert_eq!(a, b);
        let limit = (6.0 / 30.0f32).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= limit));
        assert!(a.norm() > 0.0);
    }

    proptest! {
        #[test]
        fn prop_matmul_is_associative_with_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let m = Matrix::xavier_seeded(rows, cols, seed);
            let mut identity = Matrix::zeros(cols, cols);
            for i in 0..cols {
                identity.set(i, i, 1.0);
            }
            let result = m.matmul(&identity);
            for (a, b) in m.data().iter().zip(result.data()) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_transpose_is_involutive(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let m = Matrix::xavier_seeded(rows, cols, seed);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_row_mean_is_bounded_by_extremes(rows in 1usize..8, cols in 1usize..6, seed in 0u64..1000) {
            let m = Matrix::xavier_seeded(rows, cols, seed);
            let mean = m.row_mean();
            for c in 0..cols {
                let col_values: Vec<f32> = (0..rows).map(|r| m.get(r, c)).collect();
                let lo = col_values.iter().cloned().fold(f32::INFINITY, f32::min);
                let hi = col_values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(mean.get(0, c) >= lo - 1e-6 && mean.get(0, c) <= hi + 1e-6);
            }
        }
    }

    #[test]
    fn deserialize_rejects_a_shape_its_data_cannot_fill() {
        use serde::content::Content;
        let matrix = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(Matrix::from_content(&matrix.to_content()).unwrap(), matrix);
        let document = |rows: u64, cols: u64, len: usize| {
            Content::Map(vec![
                ("rows".into(), Content::UInt(rows)),
                ("cols".into(), Content::UInt(cols)),
                ("data".into(), Content::Seq(vec![Content::Float(1.0); len])),
            ])
        };
        for (rows, cols, len) in [(2, 2, 1), (0, 3, 1), (1 << 32, 1 << 32, 0)] {
            let result = Matrix::from_content(&document(rows, cols, len));
            assert!(result.is_err(), "{rows}×{cols} with {len} values");
        }
    }
}
