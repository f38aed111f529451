//! The dense GEMM kernels: one row-block micro-kernel per SIMD tier behind four entry points.
//!
//! * [`Matrix::matmul`](crate::matrix::Matrix::matmul) — `A·B`, both row-major.
//! * [`gemm_packed`] — `A·W` with `W` prepacked ([`PackedWeights::pack`]): inference, whose
//!   weights never change between model swaps.
//! * [`gemm_packed`] over [`PackedWeights::pack_transposed`] — `A·Wᵀ` (backprop's
//!   `dL/dx = g·Wᵀ`): the transpose happens while packing, once per training step.
//! * [`gemm_transpose_a_into`] — `C += Aᵀ·B` (backprop's `dL/dW = xᵀ·g`): `A` is read in
//!   place through an element stride and the product lands in the caller's accumulator.
//!
//! # The chain-order contract
//!
//! Every tier computes one output element as **one** accumulator chain over the reduction
//! index, in order:
//!
//! ```text
//! acc = init[i][j];  for p in k_range { acc = acc + a[i][p] · b[p][j] };  c[i][j] = epilogue(acc)
//! ```
//!
//! (one fused multiply-add per step on the AVX-512 and AVX2 tiers, an unfused multiply and
//! add on the portable tier).  The chain of an element never depends on how many rows share
//! its block, on which column strip it sits in, or on where `B` lives in memory — so
//!
//! * stacking more rows into one call is bit-neutral (what lets serving fuse a group of
//!   queries into one head batch),
//! * the packed and the strided layout give bit-identical results — as do an `A` read through
//!   strides and a materialized `Aᵀ`, and panels packed from `W` transposed and panels packed
//!   from a materialized `Wᵀ`: the kernels see the same `a[i][p]` and `b[p][j]` either way —
//! * accumulating into a `C` that holds zeros is the chain from zero, and
//! * the chain can be **cut**: running `k_range = 0..s` from zeros, keeping the `f32` chain
//!   state, and continuing over `s..k` from that state performs exactly the operations of
//!   the uncut chain.  `crn-core` uses this to compute the first `H` steps of the
//!   containment head once per anchor (and once per query) instead of once per pair.
//!
//! # The micro-kernel
//!
//! A block of `R` rows × one column strip (32 columns on AVX-512, 16 on AVX2) lives in
//! registers across the whole reduction; each step loads the strip's `B` row once and feeds
//! it to `R` independent FMA chains.  `R` is a const generic (`1..=8` on AVX-512, `1..=4`
//! on AVX2), so the `m % 8` (`m % 4`) tail rows of a call — *all* rows of a 4-anchor serving
//! call — share their `B` loads exactly like a full block; there is no one-row remainder
//! loop.  Loads and stores are lane-masked, so the last strip of any width runs the same
//! body.  `B` is addressed through a row stride and a panel stride, which is all that
//! differs between the two layouts; `A` through a row stride and an element stride, which is
//! all that differs between `A` and `Aᵀ`.
//!
//! One-column outputs (the models' scalar heads) are the exception to the chain contract on
//! the row-major entry points: `matmul` and `gemm_transpose_a_into` compute them as per-row
//! dot products with four partial sums (`gemv_single_column`).
//!
//! # The packed layout
//!
//! [`PackedWeights`] cuts a `k×n` matrix into `⌈n/32⌉` panels of 32 columns; a panel stores
//! its `k` rows back to back (`p`-major, 128 bytes per row, the last panel zero-padded) in
//! 64-byte-aligned storage.  A strip's reduction therefore walks one contiguous,
//! cache-line-aligned stream instead of `k` rows `4n` bytes apart that straddle cache lines
//! wherever `malloc` put the matrix (measured for ISSUE 13 on the `512×256` head: 176 GFLOP/s
//! with a 64-byte-aligned `B`, 133 at offsets 16/32/48).  The layout does not depend on the SIMD
//! tier; the portable, AVX2 and AVX-512 kernels all read it.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::matrix::Matrix;
use std::ops::Range;

/// Columns per packed panel: two 16-lane AVX-512 vectors, or two 16-column AVX2 strips.
const PANEL: usize = 32;

/// What a kernel applies to a finished accumulator chain before storing it.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the chain state as is.
    None,
    /// Store `max(acc + bias[j], 0)` — a dense layer's bias and ReLU fused into the store.
    BiasRelu(&'a [f32]),
}

/// Floats per [`CacheLine`].
const LINE: usize = 16;

/// One cache line of packed weights.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct CacheLine([f32; LINE]);

/// A `k×n` weight matrix repacked for [`gemm_packed`] (layout: see the module docs).
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    /// `⌈cols/32⌉` panels × `rows` panel rows × 2 lines.
    lines: Vec<CacheLine>,
}

impl std::fmt::Debug for PackedWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedWeights({}x{})", self.rows, self.cols)
    }
}

impl PackedWeights {
    /// Zeroed panels for a `rows×cols` matrix.
    pub(crate) fn zeroed(rows: usize, cols: usize) -> Self {
        let lines = cols.div_ceil(PANEL) * rows * (PANEL / LINE);
        PackedWeights {
            rows,
            cols,
            lines: vec![CacheLine([0.0; LINE]); lines],
        }
    }

    /// Packs a row-major weight matrix (one pass over it).  The panels are a copy: whoever
    /// changes the weights packs again.
    pub fn pack(weights: &Matrix) -> Self {
        let (rows, cols) = (weights.rows(), weights.cols());
        let mut packed = PackedWeights::zeroed(rows, cols);
        // (`max(1)`: a matrix without rows has no lines, and `chunks_mut(0)` panics.)
        let lines_per_panel = (rows * (PANEL / LINE)).max(1);
        for (panel, panel_lines) in packed.lines.chunks_mut(lines_per_panel).enumerate() {
            let columns = panel * PANEL..cols.min((panel + 1) * PANEL);
            for (p, row_lines) in panel_lines.chunks_mut(PANEL / LINE).enumerate() {
                let source = &weights.row(p)[columns.clone()];
                for (line, chunk) in row_lines.iter_mut().zip(source.chunks(LINE)) {
                    line.0[..chunk.len()].copy_from_slice(chunk);
                }
            }
        }
        packed
    }

    /// Packs `weightsᵀ`: the panels [`PackedWeights::pack`] would build from
    /// `weights.transpose()`, without materializing it.
    pub fn pack_transposed(weights: &Matrix) -> Self {
        let mut packed = PackedWeights::zeroed(weights.cols(), weights.rows());
        packed.repack_transposed(weights);
        packed
    }

    /// [`PackedWeights::pack_transposed`] into the existing panels — what a training step does
    /// with the weights its optimizer just moved.  A panel is 32 rows of
    /// `weights` turned on their side; it is built from 32×16 tiles, read row by row into a
    /// stack buffer and written out column by column, so both sides move whole cache lines.
    ///
    /// # Panics
    /// Panics if `weightsᵀ` does not have the packed shape.
    pub fn repack_transposed(&mut self, weights: &Matrix) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(
            (weights.cols(), weights.rows()),
            (rows, cols),
            "shape changed"
        );
        let lines_per_panel = (rows * (PANEL / LINE)).max(1);
        for (panel, panel_lines) in self.lines.chunks_mut(lines_per_panel).enumerate() {
            let first_column = panel * PANEL;
            let width = (cols - first_column).min(PANEL);
            // Rows of the tile past `width` stay zero: the last panel's padding.
            let mut tile = [[0.0f32; LINE]; PANEL];
            for (step, tile_lines) in panel_lines.chunks_mut(LINE * (PANEL / LINE)).enumerate() {
                let first_row = step * LINE;
                let depth = tile_lines.len() / (PANEL / LINE);
                for (tile_row, column) in tile.iter_mut().zip(first_column..first_column + width) {
                    let source = &weights.row(column)[first_row..first_row + depth];
                    tile_row[..depth].copy_from_slice(source);
                }
                for (p, row_lines) in tile_lines.chunks_mut(PANEL / LINE).enumerate() {
                    for (line, tile_rows) in row_lines.iter_mut().zip(tile.chunks(LINE)) {
                        for (slot, tile_row) in line.0.iter_mut().zip(tile_rows) {
                            *slot = tile_row[p];
                        }
                    }
                }
            }
        }
    }

    /// Reduction dimension `k` of the packed matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Output dimension `n` of the packed matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The panels as one flat slice, starting on a 64-byte boundary.
    fn floats(&self) -> &[f32] {
        // SAFETY: `CacheLine` is `repr(C)` over `[f32; LINE]` — 64 bytes, alignment 64, no
        // padding — so `lines` is `lines.len() * LINE` contiguous initialized `f32`s, and
        // the borrow of `self` keeps the allocation alive and unaliased by writers.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast(), self.lines.len() * LINE) }
    }
}

/// `epilogue(init + a · W[k_range])` — the inference GEMM.
///
/// `a` is `rows × k_range.len()` row-major and multiplies rows `k_range` of the packed
/// matrix; `init` is the `rows × n` chain state to continue from (`None`: zeros) and is
/// returned holding the result.  See the module docs for the chain-order contract that makes
/// a cut reduction (`0..s` into `init`, then `s..k`) bit-identical to the uncut one.
///
/// # Panics
/// Panics if `k_range` leaves the packed matrix or `a`, `init` or the bias disagree with the
/// shapes above.
pub fn gemm_packed(
    a: &[f32],
    rows: usize,
    packed: &PackedWeights,
    k_range: Range<usize>,
    init: Option<Matrix>,
    epilogue: Epilogue<'_>,
) -> Matrix {
    assert!(
        k_range.start <= k_range.end && k_range.end <= packed.rows,
        "k_range {k_range:?} outside the {} packed rows",
        packed.rows
    );
    let (accumulate, mut c) = match init {
        Some(init) => (true, init),
        None => (false, Matrix::zeros(rows, packed.cols)),
    };
    assert_eq!(
        (c.rows(), c.cols()),
        (rows, packed.cols),
        "init shape mismatch"
    );
    execute(
        Tier::for_width(packed.cols),
        Task {
            a: AView::row_major(a, k_range.len()),
            b: BView {
                data: &packed.floats()[k_range.start * PANEL..],
                row_stride: PANEL,
                panel_stride: packed.rows * PANEL,
            },
            c: c.data_mut(),
            m: rows,
            depth: k_range.len(),
            n: packed.cols,
            accumulate,
            epilogue,
        },
    );
    c
}

/// `c (k×n) += aᵀ · b` for row-major `a (m×k)` and `b (m×n)` — a dense layer's weight
/// gradient `xᵀ·g`, accumulated where the caller sums it.  Every element continues one chain
/// from what `c` holds over the `m` rows in order (module docs), so into a zeroed `c` this is
/// bit-identical to `a.transpose().matmul(b)`.
///
/// # Panics
/// Panics if the shapes disagree.
pub fn gemm_transpose_a_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(
        b.rows(),
        m,
        "aᵀ·b: a is {m}x{k} but b has {} rows",
        b.rows()
    );
    assert_eq!((c.rows(), c.cols()), (k, n), "aᵀ·b: c must be {k}x{n}");
    let a_transposed = AView {
        data: a.data(),
        row_stride: 1,
        step: k,
    };
    if n == 1 {
        gemv_single_column(a_transposed, b.data(), c.data_mut(), m, true);
        return;
    }
    execute(
        Tier::for_width(n),
        Task {
            a: a_transposed,
            b: BView {
                data: b.data(),
                row_stride: n,
                panel_stride: PANEL,
            },
            c: c.data_mut(),
            m: k,
            depth: m,
            n,
            accumulate: true,
            epilogue: Epilogue::None,
        },
    );
}

/// `c (m×n) = a (m×k) · b (k×n)`, all row-major; whatever `c` held is overwritten.
pub(crate) fn gemm_strided(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    if n == 1 {
        // Thin output (the models' scalar heads): per-row dot products with unrolled
        // accumulators beat both the strided scalar loop and 1-lane SIMD.
        assert_eq!((a.len(), b.len(), c.len()), (m * k, k, m));
        gemv_single_column(AView::row_major(a, k), b, c, k, false);
        return;
    }
    execute(
        Tier::for_width(n),
        Task {
            a: AView::row_major(a, k),
            b: BView {
                data: b,
                row_stride: n,
                panel_stride: PANEL,
            },
            c,
            m,
            depth: k,
            n,
            accumulate: false,
            epilogue: Epilogue::None,
        },
    );
}

/// `c (m×1) = a (m×k) · b (k×1)`, or `c += …` with `accumulate`: four independent
/// accumulator chains per row, summed, then the `k % 4` tail — and only then `c`.
fn gemv_single_column(a: AView<'_>, b: &[f32], c: &mut [f32], k: usize, accumulate: bool) {
    assert!(b.len() >= k && a.data.len() >= a.extent(c.len(), k));
    let unrolled = k / 4 * 4;
    for (i, out) in c.iter_mut().enumerate() {
        let at = |p: usize| a.data[i * a.row_stride + p * a.step];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let mut p = 0;
        while p < unrolled {
            s0 += at(p) * b[p];
            s1 += at(p + 1) * b[p + 1];
            s2 += at(p + 2) * b[p + 2];
            s3 += at(p + 3) * b[p + 3];
            p += 4;
        }
        let mut sum = (s0 + s1) + (s2 + s3);
        for (q, &b_q) in b.iter().enumerate().take(k).skip(unrolled) {
            sum += at(q) * b_q;
        }
        *out = if accumulate { *out + sum } else { sum };
    }
}

/// Where a kernel finds `A[i][p]`: `data[i * row_stride + p * step]`.
///
/// A row-major `m×depth` matrix is `row_stride = depth, step = 1`; the transpose of a
/// row-major `depth×m` matrix, read in place, is `row_stride = 1, step = m`.
#[derive(Clone, Copy)]
struct AView<'a> {
    data: &'a [f32],
    row_stride: usize,
    step: usize,
}

impl<'a> AView<'a> {
    fn row_major(data: &'a [f32], depth: usize) -> Self {
        AView {
            data,
            row_stride: depth,
            step: 1,
        }
    }

    /// One past the last float of an `m × depth` view (0 for an empty one).
    fn extent(&self, m: usize, depth: usize) -> usize {
        match (m, depth) {
            (0, _) | (_, 0) => 0,
            _ => (m - 1) * self.row_stride + (depth - 1) * self.step + 1,
        }
    }
}

/// Where a kernel finds `B[p][j]`:
/// `data[(j / PANEL) * panel_stride + p * row_stride + j % PANEL]`.
///
/// A row-major `k×n` matrix is `row_stride = n, panel_stride = PANEL` (the formula collapses
/// to `p·n + j`); [`PackedWeights`] is `row_stride = PANEL, panel_stride = k·PANEL`.
#[derive(Clone, Copy)]
struct BView<'a> {
    data: &'a [f32],
    row_stride: usize,
    panel_stride: usize,
}

impl BView<'_> {
    /// Offset of `B[0][j]` in `data`.
    fn column_offset(&self, j: usize) -> usize {
        (j / PANEL) * self.panel_stride + j % PANEL
    }
}

/// One GEMM call, the same for every tier and both `B` layouts:
/// `c = epilogue((accumulate ? c : 0) + a · b)` with `a` an `m×depth` view and `c` `m×n`
/// row-major.
struct Task<'a> {
    a: AView<'a>,
    b: BView<'a>,
    c: &'a mut [f32],
    m: usize,
    depth: usize,
    n: usize,
    /// `false`: the chains start from zero and `c`'s contents are ignored (overwrite is
    /// "init of zeros"); `true`: they start from what `c` holds.  One contract for all tiers.
    accumulate: bool,
    epilogue: Epilogue<'a>,
}

/// The instruction set a kernel is written for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Portable `ikj` loops (unfused multiply-add).
    Scalar,
    /// AVX2 + FMA, 4-row × 16-column blocks.
    Avx2,
    /// AVX-512F, 8-row × 32-column blocks.
    Avx512,
}

impl Tier {
    /// Whether this CPU can run the tier's kernel.
    fn supported(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The tier a product with `n` output columns runs on here — the same rule for both
    /// layouts, so packed and strided results agree bit for bit on every host.  Outputs
    /// narrower than a quarter vector stay on the portable loops.
    fn for_width(n: usize) -> Tier {
        use std::sync::OnceLock;
        static BEST: OnceLock<Tier> = OnceLock::new();
        let best = *BEST.get_or_init(|| {
            [Tier::Avx512, Tier::Avx2]
                .into_iter()
                .find(|tier| tier.supported())
                .unwrap_or(Tier::Scalar)
        });
        match best {
            Tier::Avx512 if n >= 4 => Tier::Avx512,
            Tier::Avx2 if n >= 8 => Tier::Avx2,
            _ => Tier::Scalar,
        }
    }
}

/// Runs one task on one tier's kernel.  The entry points pick the tier with
/// [`Tier::for_width`]; the kernel tests call every supported tier directly.
///
/// # Panics
/// Panics if the operand slices are shorter than the task's shapes require, or the CPU
/// lacks the tier's instructions — the checks the kernels' unsafe code relies on.
fn execute(tier: Tier, task: Task<'_>) {
    let (m, depth, n) = (task.m, task.depth, task.n);
    assert!(
        task.a.data.len() >= task.a.extent(m, depth),
        "a is shorter than m x depth"
    );
    assert_eq!(task.c.len(), m * n, "c must be m x n");
    if let Epilogue::BiasRelu(bias) = task.epilogue {
        assert_eq!(bias.len(), n, "bias must have one entry per column");
    }
    if m == 0 || n == 0 {
        return;
    }
    // One past the last float any kernel reads: row `depth - 1` of the last (possibly
    // partial) column strip.
    let last_panel = (n - 1) / PANEL;
    let b_extent = match depth {
        0 => 0,
        _ => {
            last_panel * task.b.panel_stride
                + (depth - 1) * task.b.row_stride
                + (n - last_panel * PANEL)
        }
    };
    assert!(task.b.data.len() >= b_extent, "b is shorter than depth x n");
    assert!(tier.supported(), "{tier:?} kernels need CPU support");
    match tier {
        Tier::Scalar => scalar_gemm(task),
        // SAFETY: the tier's CPU features were just checked, and the asserts above are the
        // bounds the kernels' pointer arithmetic stays within (`# Safety` of each).
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { avx2::gemm(task) },
        // SAFETY: as for AVX2.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { avx512::gemm(task) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("unsupported tiers were rejected above"),
    }
}

/// ReLU as the SIMD `max(x, 0)` computes it: `+0.0` for negatives, `-0.0` and NaN.
#[inline]
fn relu_scalar(value: f32) -> f32 {
    if value > 0.0 {
        value
    } else {
        0.0
    }
}

/// The portable kernel: `ikj` loops, one unfused multiply-add per chain step.
fn scalar_gemm(task: Task<'_>) {
    let Task {
        a,
        b,
        c,
        m,
        depth,
        n,
        accumulate,
        epilogue,
    } = task;
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        if !accumulate {
            c_row.fill(0.0);
        }
        for p in 0..depth {
            let scale = a.data[i * a.row_stride + p * a.step];
            for (strip, c_strip) in c_row.chunks_mut(PANEL).enumerate() {
                let start = strip * b.panel_stride + p * b.row_stride;
                let b_strip = &b.data[start..start + c_strip.len()];
                for (o, &v) in c_strip.iter_mut().zip(b_strip) {
                    *o += scale * v;
                }
            }
        }
        if let Epilogue::BiasRelu(bias) = epilogue {
            for (o, &bias) in c_row.iter_mut().zip(bias) {
                *o = relu_scalar(*o + bias);
            }
        }
    }
}

/// What one register block needs, shared by the AVX2 and AVX-512 micro-kernels: `a`, `b`,
/// `c` and `bias` point at the block's first row / the strip's first column.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Block {
    a: *const f32,
    /// Rows of `a` are `lda` floats apart, the steps of a row `a_step`.
    lda: usize,
    a_step: usize,
    b: *const f32,
    ldb: usize,
    depth: usize,
    c: *mut f32,
    ldc: usize,
    accumulate: bool,
    /// Null for [`Epilogue::None`].
    bias: *const f32,
}

#[cfg(target_arch = "x86_64")]
impl Block {
    /// The block of `task` at row `i`, column `j`.
    ///
    /// # Safety
    /// `i < m`, `j < n`, and the task passed [`execute`]'s length checks.
    unsafe fn at(task: &mut Task<'_>, i: usize, j: usize) -> Block {
        // SAFETY: with `i < m` and `j < n` every `add` below stays inside its slice — `c`
        // is `m × n`, the bias has `n` entries.  `a` and `b` are only known to reach row `i`
        // / column `j` when `depth > 0` (an empty reduction reads neither), so their offsets
        // are `wrapping_add`s the kernel never dereferences in that case.
        unsafe {
            Block {
                a: task.a.data.as_ptr().wrapping_add(i * task.a.row_stride),
                lda: task.a.row_stride,
                a_step: task.a.step,
                b: task.b.data.as_ptr().wrapping_add(task.b.column_offset(j)),
                ldb: task.b.row_stride,
                depth: task.depth,
                c: task.c.as_mut_ptr().add(i * task.n + j),
                ldc: task.n,
                accumulate: task.accumulate,
                bias: match task.epilogue {
                    Epilogue::None => std::ptr::null(),
                    Epilogue::BiasRelu(bias) => bias.as_ptr().add(j),
                },
            }
        }
    }
}

/// Calls `$kernel::<R, $vectors>` for a runtime block height `R` out of the listed ones.
#[cfg(target_arch = "x86_64")]
macro_rules! with_block_height {
    ($rows:expr, $kernel:ident, $vectors:literal, $args:tt, [$($height:literal)*]) => {
        match $rows {
            $($height => $kernel::<$height, $vectors> $args,)*
            other => unreachable!("block height {other}"),
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Block, Task, PANEL};
    use std::arch::x86_64::*;

    /// Rows per full register block: 8 rows × 2 vectors = sixteen ZMM accumulators.
    const MR: usize = 8;
    /// Rows per chunk (a multiple of `MR`): a chunk's slice of `a` — 512 KB at the head's
    /// `4H = 512` — has to survive in L2 from one column strip to the next; unchunked, a
    /// 4,000-row serving batch streams `a` from L3 once per strip (117 vs 137 GFLOP/s).
    const MC: usize = 256;

    /// # Safety
    /// Requires AVX-512F and a task that passed `execute`'s length checks.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm(mut task: Task<'_>) {
        // Column strips outside row blocks: a strip of `b` is read by every block while it
        // is hot.  A chunk's rows of `a` are re-read once per strip, hence the chunking.
        for chunk in (0..task.m).step_by(MC) {
            let chunk_end = task.m.min(chunk + MC);
            let mut j = 0;
            while j < task.n {
                let width = (task.n - j).min(PANEL);
                let masks = [lanes(width), lanes(width.saturating_sub(16))];
                let mut i = chunk;
                while i < chunk_end {
                    let rows = (chunk_end - i).min(MR);
                    // SAFETY: `i < m`, `j < n` and the task passed `execute`'s checks (this
                    // function's contract), so the block's rows `i..i + rows` and its
                    // `width` columns from `j` — the lanes `masks` leaves live — lie inside
                    // the checked slices, which is what the micro-kernel requires;
                    // AVX-512F likewise.
                    unsafe {
                        let block = Block::at(&mut task, i, j);
                        if width > 16 {
                            with_block_height!(rows, micro_kernel, 2, (block, masks, width == PANEL), [1 2 3 4 5 6 7 8]);
                        } else {
                            with_block_height!(rows, micro_kernel, 1, (block, masks, false), [1 2 3 4 5 6 7 8]);
                        }
                    }
                    i += rows;
                }
                j += width;
            }
        }
    }

    /// Mask of the first `count` (at most 16) lanes.
    fn lanes(count: usize) -> __mmask16 {
        ((1u32 << count.min(16)) - 1) as __mmask16
    }

    /// THE AVX-512 micro-kernel: `R` rows × `V` 16-lane vectors of `c` stay in registers
    /// over the whole reduction; every step loads the strip's `b` row once and issues
    /// `R·V` independent FMAs.  Lane masks make the last strip of any width run this body;
    /// `full_strip` says no lane is masked off, so the reduction loop may load `b` unmasked
    /// (masked loads cost 3–4 % on full strips here, 5–8 % on AVX2).
    ///
    /// # Safety
    /// Requires AVX-512F.  For every `r < R`, `p < depth` and unmasked lane `l` of vector
    /// `v`: `a + r·lda + p·a_step`, `b + p·ldb + 16v + l`, `c + r·ldc + 16v + l` and (unless null)
    /// `bias + 16v + l` must be valid.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn micro_kernel<const R: usize, const V: usize>(
        block: Block,
        masks: [__mmask16; 2],
        full_strip: bool,
    ) {
        let Block {
            a,
            lda,
            a_step,
            b,
            ldb,
            depth,
            c,
            ldc,
            accumulate,
            bias,
        } = block;
        // SAFETY: the caller guarantees the tier's CPU features and that every address
        // formed below — rows `r < R`, steps `p < depth`, unmasked lanes only — is valid
        // (this function's `# Safety`); masked-off lanes are neither read nor written.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); V]; R];
            if accumulate {
                for (r, row) in acc.iter_mut().enumerate() {
                    for (v, lane) in row.iter_mut().enumerate() {
                        *lane = _mm512_maskz_loadu_ps(masks[v], c.add(r * ldc + 16 * v));
                    }
                }
            }
            for p in 0..depth {
                let mut b_row = [_mm512_setzero_ps(); V];
                for (v, lane) in b_row.iter_mut().enumerate() {
                    let source = b.add(p * ldb + 16 * v);
                    *lane = if full_strip {
                        _mm512_loadu_ps(source)
                    } else {
                        _mm512_maskz_loadu_ps(masks[v], source)
                    };
                }
                for (r, row) in acc.iter_mut().enumerate() {
                    let scale = _mm512_set1_ps(*a.add(r * lda + p * a_step));
                    for (lane, &b_lane) in row.iter_mut().zip(&b_row) {
                        *lane = _mm512_fmadd_ps(scale, b_lane, *lane);
                    }
                }
            }
            if !bias.is_null() {
                let zero = _mm512_setzero_ps();
                for v in 0..V {
                    let bias_lane = _mm512_maskz_loadu_ps(masks[v], bias.add(16 * v));
                    for row in acc.iter_mut() {
                        row[v] = _mm512_max_ps(_mm512_add_ps(row[v], bias_lane), zero);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, &lane) in row.iter().enumerate() {
                    _mm512_mask_storeu_ps(c.add(r * ldc + 16 * v), masks[v], lane);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Block, Task};
    use std::arch::x86_64::*;

    /// Rows per full register block: 4 rows × 2 vectors = eight YMM accumulators.
    const MR: usize = 4;
    /// Columns per strip: two 8-lane vectors (half a packed panel).
    const NR: usize = 16;

    /// # Safety
    /// Requires AVX2 + FMA and a task that passed `execute`'s length checks.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm(mut task: Task<'_>) {
        // Row blocks outside column strips: a block's rows of `a` stay in L1 while `b`
        // streams past once per block (the order this tier has always used).
        let mut i = 0;
        while i < task.m {
            let rows = (task.m - i).min(MR);
            let mut j = 0;
            while j < task.n {
                let width = (task.n - j).min(NR);
                let masks = [lanes(width), lanes(width.saturating_sub(8))];
                // SAFETY: as in the AVX-512 driver — `i < m`, `j < n`, a checked task, and
                // `masks` leaving exactly the strip's `width` columns live; AVX2 + FMA are
                // this function's own requirement.
                unsafe {
                    let block = Block::at(&mut task, i, j);
                    if width > 8 {
                        with_block_height!(rows, micro_kernel, 2, (block, masks, width == NR), [1 2 3 4]);
                    } else {
                        with_block_height!(rows, micro_kernel, 1, (block, masks, false), [1 2 3 4]);
                    }
                }
                j += width;
            }
            i += rows;
        }
    }

    /// Mask of the first `count` lanes: lane `l` is live when `count > l`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lanes(count: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(count as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// THE AVX2 micro-kernel: the AVX-512 one with 8-lane vectors (see there).
    ///
    /// # Safety
    /// Requires AVX2 + FMA.  For every `r < R`, `p < depth` and unmasked lane `l` of vector
    /// `v`: `a + r·lda + p·a_step`, `b + p·ldb + 8v + l`, `c + r·ldc + 8v + l` and (unless null)
    /// `bias + 8v + l` must be valid.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn micro_kernel<const R: usize, const V: usize>(
        block: Block,
        masks: [__m256i; 2],
        full_strip: bool,
    ) {
        let Block {
            a,
            lda,
            a_step,
            b,
            ldb,
            depth,
            c,
            ldc,
            accumulate,
            bias,
        } = block;
        // SAFETY: the caller guarantees the tier's CPU features and that every address
        // formed below — rows `r < R`, steps `p < depth`, unmasked lanes only — is valid
        // (this function's `# Safety`); masked-off lanes are neither read nor written.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); V]; R];
            if accumulate {
                for (r, row) in acc.iter_mut().enumerate() {
                    for (v, lane) in row.iter_mut().enumerate() {
                        *lane = _mm256_maskload_ps(c.add(r * ldc + 8 * v), masks[v]);
                    }
                }
            }
            for p in 0..depth {
                let mut b_row = [_mm256_setzero_ps(); V];
                for (v, lane) in b_row.iter_mut().enumerate() {
                    let source = b.add(p * ldb + 8 * v);
                    *lane = if full_strip {
                        _mm256_loadu_ps(source)
                    } else {
                        _mm256_maskload_ps(source, masks[v])
                    };
                }
                for (r, row) in acc.iter_mut().enumerate() {
                    let scale = _mm256_set1_ps(*a.add(r * lda + p * a_step));
                    for (lane, &b_lane) in row.iter_mut().zip(&b_row) {
                        *lane = _mm256_fmadd_ps(scale, b_lane, *lane);
                    }
                }
            }
            if !bias.is_null() {
                let zero = _mm256_setzero_ps();
                for v in 0..V {
                    let bias_lane = _mm256_maskload_ps(bias.add(8 * v), masks[v]);
                    for row in acc.iter_mut() {
                        row[v] = _mm256_max_ps(_mm256_add_ps(row[v], bias_lane), zero);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, &lane) in row.iter().enumerate() {
                    _mm256_maskstore_ps(c.add(r * ldc + 8 * v), masks[v], lane);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every tier this CPU can run — the kernels are called directly, never through the
    /// dispatch, so an AVX-512 host also exercises the AVX2 and portable readers of both
    /// layouts.  Prints the list: a tier that did not run must not pass silently.
    fn tiers() -> Vec<Tier> {
        let tiers: Vec<Tier> = [Tier::Scalar, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|tier| tier.supported())
            .collect();
        static PRINT: std::sync::Once = std::sync::Once::new();
        PRINT.call_once(|| eprintln!("gemm kernels exercised on this CPU: {tiers:?}"));
        tiers
    }

    /// The chain-order contract, written as plainly as possible: one accumulator per output
    /// element, sequential in `p`, fused on the SIMD tiers and unfused on the portable one.
    fn reference(
        tier: Tier,
        a: &Matrix,
        b: &Matrix,
        k_range: Range<usize>,
        init: &Matrix,
        epilogue: Epilogue<'_>,
    ) -> Matrix {
        let mut out = init.clone();
        for i in 0..out.rows() {
            for j in 0..out.cols() {
                let mut acc = init.get(i, j);
                for (column, p) in k_range.clone().enumerate() {
                    acc = match tier {
                        Tier::Scalar => acc + a.get(i, column) * b.get(p, j),
                        Tier::Avx2 | Tier::Avx512 => a.get(i, column).mul_add(b.get(p, j), acc),
                    };
                }
                if let Epilogue::BiasRelu(bias) = epilogue {
                    acc = relu_scalar(acc + bias[j]);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// One tier's kernel over `a · b[k_range]` from `init` (`None`: overwrite a poisoned
    /// `c`), reading `b` row-major or packed.
    fn run(
        tier: Tier,
        a: &Matrix,
        b: &Matrix,
        packed: Option<&PackedWeights>,
        k_range: Range<usize>,
        init: Option<&Matrix>,
        epilogue: Epilogue<'_>,
    ) -> Matrix {
        let mut c = match init {
            Some(init) => init.clone(),
            None => Matrix::from_vec(a.rows(), b.cols(), vec![f32::NAN; a.rows() * b.cols()]),
        };
        let view = match packed {
            Some(packed) => BView {
                data: &packed.floats()[k_range.start * PANEL..],
                row_stride: PANEL,
                panel_stride: packed.rows * PANEL,
            },
            None => BView {
                data: &b.data()[k_range.start * b.cols()..],
                row_stride: b.cols(),
                panel_stride: PANEL,
            },
        };
        execute(
            tier,
            Task {
                a: AView::row_major(a.data(), k_range.len()),
                b: view,
                c: c.data_mut(),
                m: a.rows(),
                depth: k_range.len(),
                n: b.cols(),
                accumulate: init.is_some(),
                epilogue,
            },
        );
        c
    }

    fn columns(matrix: &Matrix, range: Range<usize>) -> Matrix {
        let data = (0..matrix.rows())
            .flat_map(|row| matrix.row(row)[range.clone()].to_vec())
            .collect();
        Matrix::from_vec(matrix.rows(), range.len(), data)
    }

    fn assert_bits_eq(actual: &Matrix, expected: &Matrix, what: &str) {
        assert_eq!(
            (actual.rows(), actual.cols()),
            (expected.rows(), expected.cols())
        );
        for (index, (x, y)) in actual.data().iter().zip(expected.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{index}]: {x} vs {y}");
        }
    }

    /// Packed vs strided vs the reference chain on one shape, bit for bit, for one tier:
    /// overwrite, accumulate from a random `init` with the fused epilogue, and the reduction
    /// cut at `split` (prefix without epilogue, then continue from the stored chain state).
    fn check_shape(tier: Tier, m: usize, k: usize, n: usize, split: usize, seed: u64) {
        let a = Matrix::xavier_seeded(m, k, seed);
        let b = Matrix::xavier_seeded(k, n, seed ^ 0x9e37);
        let init = Matrix::xavier_seeded(m, n, seed ^ 0x5bd1);
        let bias = Matrix::xavier_seeded(1, n, seed ^ 0x27d4);
        let epilogue = Epilogue::BiasRelu(bias.row(0));
        let packed = PackedWeights::pack(&b);
        let zeros = Matrix::zeros(m, n);
        let what = format!("{tier:?} {m}x{k}x{n}");

        let overwrite = reference(tier, &a, &b, 0..k, &zeros, Epilogue::None);
        let fused = reference(tier, &a, &b, 0..k, &init, epilogue);
        for (layout, packed) in [("strided", None), ("packed", Some(&packed))] {
            let what = format!("{what} {layout}");
            let actual = run(tier, &a, &b, packed, 0..k, None, Epilogue::None);
            assert_bits_eq(&actual, &overwrite, &format!("{what} overwrite"));
            let actual = run(tier, &a, &b, packed, 0..k, Some(&init), epilogue);
            assert_bits_eq(&actual, &fused, &format!("{what} init+epilogue"));
            let prefix = run(
                tier,
                &columns(&a, 0..split),
                &b,
                packed,
                0..split,
                Some(&init),
                Epilogue::None,
            );
            let actual = run(
                tier,
                &columns(&a, split..k),
                &b,
                packed,
                split..k,
                Some(&prefix),
                epilogue,
            );
            assert_bits_eq(&actual, &fused, &format!("{what} cut at {split}"));
        }
    }

    /// The training variants on one tier, bit for bit against the reference chain over
    /// materialized transposes: `c += aᵀ·b` with `a` read in place through an element stride
    /// (into a pre-filled `c`), and `a·bᵀ` over panels packed from the transposed source.
    fn check_transposed_variants(tier: Tier, m: usize, k: usize, n: usize, seed: u64) {
        let what = format!("{tier:?} {m}x{k}x{n}");
        // aᵀ·b: `a` is k×m (the reduction runs over its rows), `b` is k×n.
        let a = Matrix::xavier_seeded(k, m, seed);
        let b = Matrix::xavier_seeded(k, n, seed ^ 0x9e37);
        let prefilled = Matrix::xavier_seeded(m, n, seed ^ 0x5bd1);
        let expected = reference(tier, &a.transpose(), &b, 0..k, &prefilled, Epilogue::None);
        let mut c = prefilled.clone();
        execute(
            tier,
            Task {
                a: AView {
                    data: a.data(),
                    row_stride: 1,
                    step: m,
                },
                b: BView {
                    data: b.data(),
                    row_stride: n,
                    panel_stride: PANEL,
                },
                c: c.data_mut(),
                m,
                depth: k,
                n,
                accumulate: true,
                epilogue: Epilogue::None,
            },
        );
        assert_bits_eq(
            &c,
            &expected,
            &format!("{what} strided aT.b into a pre-filled c"),
        );

        // a·bᵀ: `a` is m×k, `b` is n×k.
        let a = Matrix::xavier_seeded(m, k, seed ^ 0x27d4);
        let b = Matrix::xavier_seeded(n, k, seed ^ 0x1656);
        let b_transposed = b.transpose();
        let zeros = Matrix::zeros(m, n);
        let expected = reference(tier, &a, &b_transposed, 0..k, &zeros, Epilogue::None);
        let packed = PackedWeights::pack_transposed(&b);
        assert_eq!((packed.rows(), packed.cols()), (k, n));
        let actual = run(
            tier,
            &a,
            &b_transposed,
            Some(&packed),
            0..k,
            None,
            Epilogue::None,
        );
        assert_bits_eq(
            &actual,
            &expected,
            &format!("{what} a.bT from transposed panels"),
        );
    }

    proptest! {
        /// ROADMAP 4(e): the differential kernel oracle.  `n % 32 != 0`, `m % 8 != 0` and a
        /// cut at every `p` (including the empty prefix and the empty continuation) all occur.
        #[test]
        fn prop_every_tier_and_layout_is_the_reference_chain(
            m in 1usize..20,
            k in 1usize..70,
            n in 2usize..70,
            split_seed in 0usize..1000,
            seed in 0u64..1_000_000,
        ) {
            for tier in tiers() {
                check_shape(tier, m, k, n, split_seed % (k + 1), seed);
            }
        }

        /// The same oracle for a training step's products: tall outputs over short
        /// reductions (`m` output rows, a shard's `k` samples deep).
        #[test]
        fn prop_transposed_variants_are_the_reference_chain(
            m in 1usize..70,
            k in 1usize..20,
            n in 2usize..70,
            seed in 0u64..1_000_000,
        ) {
            for tier in tiers() {
                check_transposed_variants(tier, m, k, n, seed);
            }
        }
    }

    /// The dispatched training entry points against the parent formulation they replaced:
    /// an explicit `transpose()` and `matmul`, then `add_assign` into a zeroed accumulator —
    /// at a shard's shapes for both `out1` (`4H×2H`) and the one-column `out2`.
    #[test]
    fn training_entry_points_match_transpose_then_matmul() {
        for (rows, input, output) in [(16, 512, 256), (16, 256, 1), (7, 40, 50), (5, 9, 3)] {
            let x = Matrix::xavier_seeded(rows, input, 21);
            let g = Matrix::xavier_seeded(rows, output, 22);
            let w = Matrix::xavier_seeded(input, output, 23);
            let mut grad_w = Matrix::zeros(input, output);
            gemm_transpose_a_into(&x, &g, &mut grad_w);
            let mut expected = Matrix::zeros(input, output);
            expected.add_assign(&x.transpose().matmul(&g));
            assert_bits_eq(&grad_w, &expected, "xT.g");
            let grad_x = gemm_packed(
                g.data(),
                rows,
                &PackedWeights::pack_transposed(&w),
                0..output,
                None,
                Epilogue::None,
            );
            assert_bits_eq(&grad_x, &g.matmul(&w.transpose()), "g.wT");
        }
    }

    /// The shapes serving feeds the containment head at `H = 128`: 1–124 rows against
    /// `4H×2H`, cut after the first `H` columns.
    #[test]
    fn serving_shapes_are_the_reference_chain_on_every_tier() {
        for tier in tiers() {
            for m in [1, 4, 8, 9, 66, 124] {
                check_shape(tier, m, 512, 256, 128, m as u64);
            }
        }
    }

    /// One `C` contract for all tiers: without `accumulate` whatever `c` held is ignored
    /// (the AVX kernels used to overwrite while the portable loop — and the AVX2 column
    /// tail — accumulated); with it, the chains start from exactly those values.
    #[test]
    fn prefilled_c_means_the_same_on_every_tier() {
        // n = 21: one full AVX2 strip plus a masked tail, a masked AVX-512 strip.
        let (m, k, n) = (5, 9, 21);
        let a = Matrix::xavier_seeded(m, k, 1);
        let b = Matrix::xavier_seeded(k, n, 2);
        let prefilled = Matrix::from_vec(m, n, (0..m * n).map(|i| 1.0 + i as f32).collect());
        for tier in tiers() {
            let from_zero = reference(tier, &a, &b, 0..k, &Matrix::zeros(m, n), Epilogue::None);
            let from_prefilled = reference(tier, &a, &b, 0..k, &prefilled, Epilogue::None);
            // Without an init, `run` hands the kernel a `c` full of NaNs.
            let overwritten = run(tier, &a, &b, None, 0..k, None, Epilogue::None);
            assert_bits_eq(&overwritten, &from_zero, &format!("{tier:?} overwrite"));
            let continued = run(tier, &a, &b, None, 0..k, Some(&prefilled), Epilogue::None);
            assert_bits_eq(&continued, &from_prefilled, &format!("{tier:?} accumulate"));
        }
    }

    #[test]
    fn packed_entry_point_matches_matmul_and_validates_shapes() {
        let a = Matrix::xavier_seeded(7, 40, 3);
        let w = Matrix::xavier_seeded(40, 50, 4);
        let packed = PackedWeights::pack(&w);
        assert_eq!((packed.rows(), packed.cols()), (40, 50));
        assert_eq!(packed.floats().as_ptr() as usize % 64, 0);
        let product = gemm_packed(a.data(), 7, &packed, 0..40, None, Epilogue::None);
        assert_bits_eq(&product, &a.matmul(&w), "dispatched packed vs matmul");
        // An empty batch and an empty reduction are defined, not errors.
        assert_eq!(
            gemm_packed(&[], 0, &packed, 0..40, None, Epilogue::None).rows(),
            0
        );
        let untouched = gemm_packed(&[], 7, &packed, 5..5, Some(product.clone()), Epilogue::None);
        assert_bits_eq(&untouched, &product, "empty k_range");
    }

    #[test]
    #[should_panic(expected = "outside the 40 packed rows")]
    fn packed_entry_point_rejects_a_range_past_the_weights() {
        let packed = PackedWeights::pack(&Matrix::zeros(40, 8));
        let _ = gemm_packed(&[0.0; 4], 1, &packed, 38..42, None, Epilogue::None);
    }
}
