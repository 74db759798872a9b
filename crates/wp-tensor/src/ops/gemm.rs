//! The one matrix-multiply kernel: `C[m×n] += A·B` over strided operands.
//!
//! Every product in the training stack — the three linear-layer layouts in
//! [`super::matmul`] and the per-tile products of streaming attention — is
//! this function with a different choice of strides. `A` and `B` are
//! [`MatRef`] views (element `(i, j)` at `data[i·rs + j·cs]`), so a
//! transposed operand is a stride swap, never a copy; `C` is a raw pointer
//! plus a leading dimension, so a caller can aim it at a column slice of a
//! `[G·S, H]` activation buffer.
//!
//! **Blocking.** The classic three-level scheme: for each `NC`-wide column
//! block and each `KC`-deep slice of the inner dimension, `B` is packed once
//! into `NR`-column panels (`[p][NR]`, zero-padded); inside, each `MC`-row
//! block of `A` is packed into `MR`-row panels (`[p][MR]`); the micro-kernel
//! then multiplies one `A` panel by one `B` panel into an `MR×NR` register
//! tile and adds the tile to `C`. Packing makes the micro-kernel's loads
//! contiguous whatever the operand strides were, and the two pack buffers
//! (192 KiB together) are thread-local and allocated at their full block
//! size on a thread's first call, so the warm path never touches the heap.
//!
//! **Determinism.** Within one `KC` block every `C` element is
//! `acc = 0; for p ascending { acc += a·b }; c += acc` — a strictly
//! ascending-`k` sum with a separately rounded multiply and add. Which
//! register tile, vector lane, row band or thread an element lands in never
//! enters its arithmetic, so the result is bit-identical across `MR×NR`
//! shapes, vector widths and thread counts. That is why the portable and
//! AVX2 instantiations below may differ in tile shape and still agree bit
//! for bit — as long as nothing contracts the multiply-add, which Rust
//! never does on its own; a fused instantiation would be faster but produce
//! different bits, and is deliberately not offered here.
//!
//! **ISA selection.** The platform picks: `is_x86_feature_detected!("avx2")`
//! chooses between two instantiations of the *same* generic source. The AVX2
//! one is the generic body inlined into a `#[target_feature]` wrapper, so
//! everything below that wrapper must be `#[inline(always)]` — a callee that
//! is not inlined is silently compiled for the baseline ISA and the kernel
//! falls back to baseline speed without failing any test.

use std::cell::{Cell, RefCell};

/// Depth of one packed block along the inner dimension; also the unit of the
/// summation order (see the module docs).
pub const KC: usize = 256;
/// Rows of the register tile (both instantiations).
pub const MR: usize = 4;
/// Rows of `A` packed at a time: `MC·KC` floats stay L2-resident.
const MC: usize = 64;
/// Columns of `B` packed at a time; a multiple of every `NR` below.
const NC: usize = 128;
/// Register-tile columns of the portable instantiation (two 128-bit lanes).
const NR_PORTABLE: usize = 8;
/// Register-tile columns of the AVX2 instantiation: 4×16 is eight 256-bit
/// accumulators, leaving registers for the `B` row and the `A` broadcast.
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 16;

/// Read-only strided matrix view: element `(i, j)` is `data[i·rs + j·cs]`.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major `[rows, ld]` storage read as is.
    pub fn row_major(data: &'a [f32], ld: usize) -> Self {
        MatRef {
            data,
            rs: ld,
            cs: 1,
        }
    }

    /// Row-major `[cols, ld]` storage read as its transpose.
    pub fn transposed(data: &'a [f32], ld: usize) -> Self {
        MatRef {
            data,
            rs: 1,
            cs: ld,
        }
    }

    /// The same view with row `r0` as its first row.
    pub fn rows_from(self, r0: usize) -> Self {
        MatRef {
            data: &self.data[r0 * self.rs..],
            ..self
        }
    }

    fn check(&self, rows: usize, cols: usize, what: &str) {
        assert!(
            (rows - 1) * self.rs + (cols - 1) * self.cs < self.data.len(),
            "{what}: a {rows}x{cols} view with strides ({}, {}) overruns {} elements",
            self.rs,
            self.cs,
            self.data.len()
        );
    }
}

thread_local! {
    /// This thread's `A` and `B` pack buffers (`MC·KC` and `KC·NC` floats).
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Depth of [`force_portable`] scopes on this thread.
    static PORTABLE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with this thread's [`gemm`] calls — and the slice conversions of
/// [`crate::dtype`], which dispatch the same way — pinned to the portable
/// instantiation, whatever the CPU offers. Exists so tests can compare the
/// instantiations in one process, the way `rayon::force_sequential` lets
/// them compare thread counts.
#[doc(hidden)]
pub fn force_portable<R>(f: impl FnOnce() -> R) -> R {
    PORTABLE_DEPTH.with(|d| d.set(d.get() + 1));
    let out = f();
    PORTABLE_DEPTH.with(|d| d.set(d.get() - 1));
    out
}

/// True inside a [`force_portable`] scope on this thread.
pub(crate) fn portable_forced() -> bool {
    PORTABLE_DEPTH.with(Cell::get) != 0
}

/// True when [`gemm`] on this thread runs the AVX2 instantiation.
pub fn uses_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !portable_forced() && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `C[m×n] += A[m×k] · B[k×n]`, single-threaded, with `C` element `(i, j)`
/// at `c.add(i·ldc + j)`.
///
/// # Safety
/// For every `i < m`, the `n` floats at `c.add(i·ldc)` must be valid for
/// reads and writes, and nothing else may access them during the call.
///
/// # Panics
/// Panics if `a` or `b` is too short for its dimensions and strides.
pub unsafe fn gemm(c: *mut f32, ldc: usize, a: MatRef, b: MatRef, m: usize, n: usize, k: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    a.check(m, k, "A");
    b.check(k, n, "B");
    PACK.with_borrow_mut(|(ap, bp)| {
        if ap.is_empty() {
            ap.resize(MC * KC, 0.0);
            bp.resize(KC * NC, 0.0);
        }
        #[cfg(target_arch = "x86_64")]
        if uses_avx2() {
            // SAFETY: AVX2 was detected on this CPU; C per this function's
            // contract.
            return unsafe { gemm_avx2(c, ldc, a, b, (m, n, k), ap, bp) };
        }
        // SAFETY: C per this function's contract.
        unsafe { gemm_blocked::<NR_PORTABLE>(c, ldc, a, b, (m, n, k), ap, bp) }
    });
}

/// The AVX2 instantiation: the generic body, compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(
    c: *mut f32,
    ldc: usize,
    a: MatRef,
    b: MatRef,
    dims: (usize, usize, usize),
    ap: &mut [f32],
    bp: &mut [f32],
) {
    // SAFETY: forwarded contract.
    unsafe { gemm_blocked::<NR_AVX2>(c, ldc, a, b, dims, ap, bp) }
}

/// The blocked loop nest around [`micro_kernel`]. Same safety contract as
/// [`gemm`]; `ap` and `bp` hold `MC·KC` and `KC·NC` floats.
#[inline(always)]
unsafe fn gemm_blocked<const NR: usize>(
    c: *mut f32,
    ldc: usize,
    a: MatRef,
    b: MatRef,
    (m, n, k): (usize, usize, usize),
    ap: &mut [f32],
    bp: &mut [f32],
) {
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let bp = &mut bp[..nc.div_ceil(NR) * NR * kc];
            pack::<NR>(bp, b.data, (b.cs, b.rs), (jc, nc), (pc, kc));
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let ap = &mut ap[..mc.div_ceil(MR) * MR * kc];
                pack::<MR>(ap, a.data, (a.rs, a.cs), (ic, mc), (pc, kc));
                for (jr, b_panel) in bp.chunks_exact(NR * kc).enumerate() {
                    let j0 = jc + jr * NR;
                    let nr = NR.min(n - j0);
                    for (ir, a_panel) in ap.chunks_exact(MR * kc).enumerate() {
                        let i0 = ic + ir * MR;
                        let acc = micro_kernel::<NR>(a_panel, b_panel);
                        for (i, acc_row) in acc.iter().enumerate() {
                            if i0 + i < m {
                                // SAFETY: row `i0 + i < m`, columns
                                // `j0..j0 + nr` with `j0 + nr <= n`: inside
                                // the region the caller vouched for.
                                let c_row = unsafe {
                                    std::slice::from_raw_parts_mut(c.add((i0 + i) * ldc + j0), nr)
                                };
                                for (cj, aj) in c_row.iter_mut().zip(acc_row) {
                                    *cj += aj;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One register tile: `acc[i][j] = Σ_p a_panel[p][i] · b_panel[p][j]`, `p`
/// ascending, multiply and add rounded separately.
#[inline(always)]
fn micro_kernel<const NR: usize>(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (acc_row, &ai) in acc.iter_mut().zip(a) {
            for (x, &bj) in acc_row.iter_mut().zip(b) {
                *x += ai * bj;
            }
        }
    }
    acc
}

/// Pack the `len`-long run of vectors starting at `start` — rows of `A`, or
/// columns of `B` — over inner indices `p0..p0 + kc` into `W`-wide panels:
/// panel `q` holds vectors `start + q·W ..`, laid out `[p][W]` and
/// zero-padded to `W`. `vs` is the stride between vectors, `ps` the stride
/// along the inner dimension.
#[inline(always)]
fn pack<const W: usize>(
    dst: &mut [f32],
    src: &[f32],
    (vs, ps): (usize, usize),
    (start, len): (usize, usize),
    (p0, kc): (usize, usize),
) {
    for (q, panel) in dst.chunks_exact_mut(W * kc).enumerate() {
        let v0 = start + q * W;
        let w = W.min(start + len - v0);
        if w == W && vs == 1 {
            // The panel's vectors are adjacent in memory: one W-float copy
            // per inner index.
            for (p, row) in panel.chunks_exact_mut(W).enumerate() {
                let at = (p0 + p) * ps + v0;
                row.copy_from_slice(&src[at..at + W]);
            }
        } else if w == W && ps == 1 {
            // Each vector is contiguous along the inner dimension: a W-way
            // interleave (shuffles, for the four-wide `A` panels).
            let vecs: [&[f32]; W] = std::array::from_fn(|v| &src[(v0 + v) * vs + p0..][..kc]);
            for (p, row) in panel.chunks_exact_mut(W).enumerate() {
                for (x, vec) in row.iter_mut().zip(&vecs) {
                    *x = vec[p];
                }
            }
        } else {
            // Ragged last panel, or strides in both directions.
            panel.fill(0.0);
            for v in 0..w {
                let base = (v0 + v) * vs + p0 * ps;
                for p in 0..kc {
                    panel[p * W + v] = src[base + p * ps];
                }
            }
        }
    }
}
