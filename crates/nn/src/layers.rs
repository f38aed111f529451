//! Dense layers and activations with hand-written backpropagation.
//!
//! The two networks in the paper (the CRN set encoders + `MLPout`, and the MSCN set modules +
//! output MLP) are compositions of the exact same primitives: fully-connected layers, ReLU,
//! sigmoid and average pooling.  Rather than shipping a generic autograd, each primitive
//! exposes an explicit `forward` and `backward`, and the models compose them; a
//! finite-difference gradient check in this crate's tests guards the hand-written derivatives.

use crate::batch::RaggedBatch;
use crate::gemm::{gemm_packed, gemm_transpose_a_into, Epilogue, PackedWeights};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A fully-connected layer `y = x W + b`.
///
/// `W` has shape `(input_dim, output_dim)` and `b` has shape `(1, output_dim)`; inputs are
/// batches of row vectors `(batch, input_dim)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix.
    pub w: Matrix,
    /// Bias row vector.
    pub b: Matrix,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights and zero bias.
    pub fn new(input_dim: usize, output_dim: usize, seed: u64) -> Self {
        Dense {
            w: Matrix::xavier_seeded(input_dim, output_dim, seed),
            b: Matrix::zeros(1, output_dim),
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass: `x (batch×in) -> (batch×out)`, for dense inputs.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(self.b.row(0));
        y
    }

    /// Forward pass for inputs known to be mostly zeros (one-hot featurized query vectors,
    /// post-ReLU activations) — same result as [`Dense::forward`] through the zero-skipping
    /// kernel ([`Matrix::matmul_sparse`]).
    pub fn forward_sparse(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul_sparse(&self.w);
        y.add_row_broadcast(self.b.row(0));
        y
    }

    /// Backward pass: accumulates `dL/dW = x^T · grad_y` into `grad_w` and
    /// `dL/db = Σ_batch grad_y` into `grad_b`, and returns `dL/dx = grad_y · W^T` — the
    /// naive products, kept as the independent path the per-sample references run.
    pub fn backward(
        &self,
        x: &Matrix,
        grad_y: &Matrix,
        grad_w: &mut Matrix,
        grad_b: &mut Matrix,
    ) -> Matrix {
        grad_w.add_assign(&x.transpose_matmul(grad_y));
        grad_b.add_assign(&Matrix::row_vector(&grad_y.column_sums()));
        grad_y.matmul_transpose(&self.w)
    }

    /// Backward pass for dense operands of batched shapes, into caller-provided gradient
    /// buffers: accumulates `dL/dW = xᵀ·grad_y` into `grad_w` ([`gemm_transpose_a_into`]: `x`
    /// is read in place) and `dL/db` into `grad_b`, and returns `dL/dx = grad_y·Wᵀ` as one
    /// product over `transposed`, the layer's weights from
    /// [`PackedWeights::pack_transposed`].  The layer itself is not needed: every shard of a
    /// mini-batch runs this against the same panels into its own
    /// [`crate::parallel::GradientSet`].
    pub fn backward_into(
        transposed: &PackedWeights,
        x: &Matrix,
        grad_y: &Matrix,
        grad_w: &mut Matrix,
        grad_b: &mut Matrix,
    ) -> Matrix {
        gemm_transpose_a_into(x, grad_y, grad_w);
        grad_b.add_assign(&Matrix::row_vector(&grad_y.column_sums()));
        gemm_packed(
            grad_y.data(),
            grad_y.rows(),
            transposed,
            0..transposed.rows(),
            None,
            Epilogue::None,
        )
    }

    /// Forward pass over a ragged batch of featurized set rows: iterates the CSR non-zeros
    /// directly when the batch carries them (each row becomes `b + Σ val·W[col]`, a handful
    /// of vector AXPYs instead of a full dense-row scan), falling back to the zero-skipping
    /// dense kernel otherwise.
    pub fn forward_ragged(&self, batch: &RaggedBatch) -> Matrix {
        match batch.sparse() {
            Some(sparse) => {
                let out_dim = self.output_dim();
                let bias = self.b.row(0);
                let mut y = Matrix::zeros(batch.num_rows(), out_dim);
                for r in 0..batch.num_rows() {
                    let y_row = y.row_mut(r);
                    y_row.copy_from_slice(bias);
                    for (col, val) in sparse.row(r) {
                        for (o, &w) in y_row.iter_mut().zip(self.w.row(col)) {
                            *o += val * w;
                        }
                    }
                }
                y
            }
            // No CSR view means the rows were judged too dense for it — so route through
            // the blocked dense kernel, not the zero-skip one.
            None => self.forward(batch.rows()),
        }
    }

    /// The weight half of an *input* layer's backward pass over a ragged batch (one-hot
    /// featurized query vectors): accumulates `dL/dW` by scattering each non-zero input
    /// against its gradient row (CSR when available) into `grad_w`, and `dL/db` into
    /// `grad_b` — typically a shard's private [`crate::parallel::GradientSet`].  The
    /// `dL/dx` product is skipped: nothing is upstream of an input layer, and that
    /// discarded product is the single largest term of the set encoders' backward cost.
    pub fn accumulate_ragged_weights_only(
        batch: &RaggedBatch,
        grad_y: &Matrix,
        grad_w: &mut Matrix,
        grad_b: &mut Matrix,
    ) {
        match batch.sparse() {
            Some(sparse) => {
                debug_assert_eq!(grad_y.rows(), batch.num_rows());
                for r in 0..batch.num_rows() {
                    let grad_row = grad_y.row(r);
                    for (col, val) in sparse.row(r) {
                        for (o, &g) in grad_w.row_mut(col).iter_mut().zip(grad_row) {
                            *o += val * g;
                        }
                    }
                }
                let bias_grad = Matrix::row_vector(&grad_y.column_sums());
                grad_b.add_assign(&bias_grad);
            }
            // No CSR view ⇒ dense rows ⇒ dense transpose kernel for the weight gradient.
            None => {
                gemm_transpose_a_into(batch.rows(), grad_y, grad_w);
                let bias_grad = Matrix::row_vector(&grad_y.column_sums());
                grad_b.add_assign(&bias_grad);
            }
        }
    }

    /// The `(rows, cols)` shapes of the layer's parameters in `[W, b]` order — the building
    /// block models use to size their [`crate::parallel::GradientSet`]s.
    pub fn grad_shapes(&self) -> [(usize, usize); 2] {
        [
            (self.w.rows(), self.w.cols()),
            (self.b.rows(), self.b.cols()),
        ]
    }

    /// The layer's weights and bias, in `[W, b]` order (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.b]
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// ReLU activation: forward pass.
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    relu_in_place(&mut out);
    out
}

/// ReLU applied in place — the allocation-free form the batched engine uses (the
/// pre-activations are consumed: the activation itself serves as the backward mask, since
/// `a == 0 ⇔ z ≤ 0`).  Written branch-free (`max`) — a sign branch on activation data
/// mispredicts ~50% of the time and measured ~10× slower on batch-sized tensors.
pub fn relu_in_place(x: &mut Matrix) {
    for v in x.data_mut() {
        *v = v.max(0.0);
    }
}

/// ReLU activation: backward pass. `pre_activation` is the input that was fed to [`relu`] —
/// or, equivalently, the *output* of [`relu`] (the mask `x ≤ 0` is identical for both, since
/// the activation is zero exactly where the pre-activation was non-positive).
pub fn relu_backward(pre_activation: &Matrix, grad_out: &Matrix) -> Matrix {
    let mut grad = grad_out.clone();
    relu_backward_in_place(pre_activation, &mut grad);
    grad
}

/// In-place form of [`relu_backward`]: masks `grad` directly (no allocation).  The mask is
/// applied as a 0/1 multiply — branch-free and vectorizable, unlike a sign test on
/// unpredictable activation data.
pub fn relu_backward_in_place(pre_activation: &Matrix, grad: &mut Matrix) {
    assert_eq!(pre_activation.rows(), grad.rows());
    assert_eq!(pre_activation.cols(), grad.cols());
    for (g, &x) in grad.data_mut().iter_mut().zip(pre_activation.data()) {
        *g *= (x > 0.0) as u8 as f32;
    }
}

/// Sigmoid activation: forward pass.
pub fn sigmoid(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    sigmoid_in_place(&mut out);
    out
}

/// Sigmoid applied in place (allocation-free form for the batched engine).
pub fn sigmoid_in_place(x: &mut Matrix) {
    for v in x.data_mut() {
        *v = 1.0 / (1.0 + (-*v).exp());
    }
}

/// Sigmoid activation: backward pass. `activated` is the **output** of [`sigmoid`].
pub fn sigmoid_backward(activated: &Matrix, grad_out: &Matrix) -> Matrix {
    assert_eq!(activated.rows(), grad_out.rows());
    assert_eq!(activated.cols(), grad_out.cols());
    let mut grad = grad_out.clone();
    for (g, &y) in grad.data_mut().iter_mut().zip(activated.data()) {
        *g *= y * (1.0 - y);
    }
    grad
}

/// Average pooling over the rows of a set representation: `(n×d) -> (1×d)`.
///
/// This is the paper's set aggregation (§3.2.2): the representative vector of a query is the
/// *average* of the transformed element vectors (average rather than sum, to generalize over
/// different set sizes).
pub fn mean_pool(x: &Matrix) -> Matrix {
    x.row_mean()
}

/// Backward pass of [`mean_pool`]: distributes the output gradient equally over the rows.
pub fn mean_pool_backward(num_rows: usize, grad_out: &Matrix) -> Matrix {
    assert_eq!(grad_out.rows(), 1, "mean_pool output is a single row");
    let mut grad = Matrix::zeros(num_rows, grad_out.cols());
    if num_rows == 0 {
        return grad;
    }
    let scale = 1.0 / num_rows as f32;
    for r in 0..num_rows {
        for (g, &o) in grad.row_mut(r).iter_mut().zip(grad_out.row(0)) {
            *g = o * scale;
        }
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_matches_manual_computation() {
        let mut layer = Dense::new(2, 2, 1);
        layer.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        layer.b = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
        assert_eq!(layer.input_dim(), 2);
        assert_eq!(layer.output_dim(), 2);
        assert_eq!(layer.num_params(), 6);
    }

    #[test]
    fn dense_backward_accumulates_gradients() {
        let mut layer = Dense::new(2, 1, 3);
        layer.w = Matrix::from_vec(2, 1, vec![1.0, -1.0]);
        layer.b = Matrix::zeros(1, 1);
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let grad_y = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
        let (mut grad_w, mut grad_b) = (Matrix::zeros(2, 1), Matrix::zeros(1, 1));
        let grad_x = layer.backward(&x, &grad_y, &mut grad_w, &mut grad_b);
        // dL/dW = x^T grad_y = [[4], [6]]
        assert_eq!(grad_w.data(), &[4.0, 6.0]);
        // dL/db = sum of grad_y = 2
        assert_eq!(grad_b.data(), &[2.0]);
        // dL/dx = grad_y W^T = [[1, -1], [1, -1]]
        assert_eq!(grad_x.data(), &[1.0, -1.0, 1.0, -1.0]);
        // A second pass adds to the buffers.
        layer.backward(&x, &grad_y, &mut grad_w, &mut grad_b);
        assert_eq!(grad_w.data(), &[8.0, 12.0]);
        assert_eq!(grad_b.data(), &[4.0]);
    }

    #[test]
    fn relu_and_backward() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let y = relu(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let grad = relu_backward(&x, &Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]));
        assert_eq!(grad.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sigmoid_and_backward() {
        let x = Matrix::from_vec(1, 3, vec![-10.0, 0.0, 10.0]);
        let y = sigmoid(&x);
        assert!(y.get(0, 0) < 1e-4);
        assert!((y.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(y.get(0, 2) > 1.0 - 1e-4);
        let grad = sigmoid_backward(&y, &Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]));
        // Derivative peaks at 0.25 for input 0 and vanishes at the saturated ends.
        assert!((grad.get(0, 1) - 0.25).abs() < 1e-6);
        assert!(grad.get(0, 0) < 1e-4 && grad.get(0, 2) < 1e-4);
    }

    #[test]
    fn mean_pool_and_backward() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let pooled = mean_pool(&x);
        assert_eq!(pooled.data(), &[2.0, 3.0]);
        let grad = mean_pool_backward(2, &Matrix::from_vec(1, 2, vec![4.0, 8.0]));
        assert_eq!(grad.data(), &[2.0, 4.0, 2.0, 4.0]);
        assert_eq!(mean_pool_backward(0, &Matrix::zeros(1, 2)).rows(), 0);
    }

    /// Finite-difference gradient check of a two-layer network with ReLU and sigmoid:
    /// the analytic gradients produced by the hand-written backward passes must match
    /// numerical differentiation of the loss.
    #[test]
    fn gradient_check_dense_relu_dense_sigmoid() {
        let mut l1 = Dense::new(3, 4, 11);
        let mut l2 = Dense::new(4, 1, 12);
        let [mut grad_w1, mut grad_b1, mut grad_w2, mut grad_b2] =
            [(3, 4), (1, 4), (4, 1), (1, 1)].map(|(rows, cols)| Matrix::zeros(rows, cols));
        let x = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.7, 0.1, 0.5, -0.4]);
        let target = [0.3f32, 0.8];

        // Forward + backward once to collect analytic gradients.
        let forward = |l1: &Dense, l2: &Dense| -> (Matrix, Matrix, Matrix, Matrix) {
            let z1 = l1.forward(&x);
            let a1 = relu(&z1);
            let z2 = l2.forward(&a1);
            let y = sigmoid(&z2);
            (z1, a1, z2, y)
        };
        let loss_of = |y: &Matrix| -> f32 {
            // Simple squared error loss.
            y.data()
                .iter()
                .zip(target.iter())
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f32>()
                / y.rows() as f32
        };

        let (z1, a1, _z2, y) = forward(&l1, &l2);
        // dL/dy for the squared error above.
        let mut grad_y = Matrix::zeros(y.rows(), y.cols());
        #[allow(clippy::needless_range_loop)]
        for i in 0..y.rows() {
            grad_y.set(i, 0, 2.0 * (y.get(i, 0) - target[i]) / y.rows() as f32);
        }
        let grad_z2 = sigmoid_backward(&y, &grad_y);
        let grad_a1 = l2.backward(&a1, &grad_z2, &mut grad_w2, &mut grad_b2);
        let grad_z1 = relu_backward(&z1, &grad_a1);
        let _ = l1.backward(&x, &grad_z1, &mut grad_w1, &mut grad_b1);

        // Numerically check a handful of weights from both layers.
        let epsilon = 1e-2f32;
        let check = |layer_sel: usize,
                     row: usize,
                     col: usize,
                     analytic: f32,
                     l1: &mut Dense,
                     l2: &mut Dense| {
            let read = |l1: &Dense, l2: &Dense| {
                let (_, _, _, y) = forward(l1, l2);
                loss_of(&y)
            };
            let bump = |l1: &mut Dense, l2: &mut Dense, delta: f32| {
                let target = if layer_sel == 0 { &mut l1.w } else { &mut l2.w };
                let old = target.get(row, col);
                target.set(row, col, old + delta);
            };
            bump(l1, l2, epsilon);
            let plus = read(l1, l2);
            bump(l1, l2, -2.0 * epsilon);
            let minus = read(l1, l2);
            bump(l1, l2, epsilon);
            let numeric = (plus - minus) / (2.0 * epsilon);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "gradient mismatch at layer {layer_sel} ({row},{col}): numeric {numeric} vs analytic {analytic}"
            );
        };

        for (row, col) in [(0usize, 0usize), (1, 2), (2, 3)] {
            let analytic = grad_w1.get(row, col);
            check(0, row, col, analytic, &mut l1, &mut l2);
        }
        for (row, col) in [(0usize, 0usize), (3, 0)] {
            let analytic = grad_w2.get(row, col);
            check(1, row, col, analytic, &mut l1, &mut l2);
        }
    }
}
