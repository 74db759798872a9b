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
//! **Blocking.** For each `NC`-wide column block and each `KC`-deep slice of
//! the inner dimension, `B` is packed once into `NR`-column panels
//! (`[p][NR]`, zero-padded); under each `B` panel the micro-kernel sweeps
//! every `MR`-row panel of `A`, multiplying it into an `MR×NR` register tile
//! and adding the tile to `C`. `A` is read where it lies: a tile takes `MR`
//! row pointers into `A` that step by `A`'s column stride, and broadcasts one
//! element per row per inner index. Only `B` is packed, so its loads are
//! contiguous whatever its strides were, and its one pack buffer (128 KiB) is
//! thread-local and allocated at full block size on a thread's first call,
//! so the warm path never touches the heap. Rows past `m` in the last panel
//! re-read row `m − 1` and their sums are dropped.
//!
//! **Determinism.** Within one `KC` block every `C` element is
//! `acc = 0; for p ascending { acc = fma(a, b, acc) }; c += acc` — a strictly
//! ascending-`k` chain of fused multiply-adds, each rounded once, then one
//! separately rounded add into `C`. Which register tile, vector lane, row
//! band or thread an element lands in never enters its arithmetic, so the
//! result is bit-identical across `MR×NR` shapes, vector widths and thread
//! counts. Every instantiation fuses — with the FMA instruction where the
//! ISA has one, through libm's correctly rounded `fmaf` where it does not —
//! so the bits do not depend on the CPU either.
//!
//! **ISA selection.** [`isa`] picks, with `is_x86_feature_detected!`, among
//! three instantiations of the *same* generic source ([`Isa`]); it is the
//! crate's one CPU probe and [`force_isa`] its one test hook. The x86 ones
//! are the generic body inlined into a `#[target_feature]` wrapper,
//! so everything below those wrappers must be `#[inline(always)]` — a callee
//! that is not inlined is silently compiled for the baseline ISA and runs at
//! baseline speed without failing any test. `mul_add` belongs only in code
//! this kernel reaches: baseline x86-64 code makes it a libm call.
//!
//! [`with_isa`] lends the same two wrappers to the pointwise kernels (the
//! SwiGLU gate in [`super::elementwise`], streaming attention's per-tile
//! softmax, the bf16 slice conversions in [`crate::dtype`]): an
//! `#[inline(always)]` closure passed to it is compiled once per
//! instantiation, so its loops vectorise at the width `gemm` runs at. Those
//! bodies round every multiply and add separately, never `mul_add`, so every
//! instantiation computes the portable one's bits. The f16 conversions run
//! F16C's `vcvtps2ph` / `vcvtph2ps` whenever [`isa`] picks a tier above the
//! portable one, which is why both x86 tiers require F16C.

use std::cell::{Cell, RefCell};

/// Depth of one packed block along the inner dimension; also the unit of the
/// summation order (see the module docs).
pub const KC: usize = 256;
/// Rows of the register tile (every instantiation).
pub const MR: usize = 6;
/// Columns of `B` packed at a time; a multiple of every instantiation's `NR`.
const NC: usize = 128;

/// A product's `(m, n, k)`.
type Dims = (usize, usize, usize);

/// The instantiations of the one generic body that [`gemm`] picks among,
/// slowest first, by their `MR×NR` register tile. All compute the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// 6×8 for the baseline ISA: two 128-bit lanes per row.
    Portable,
    /// 6×16 under `avx2,fma`, on a CPU with F16C too: twelve 256-bit
    /// accumulators, leaving registers for the `B` row and the `A` broadcast.
    Avx2Fma,
    /// 6×32 under `avx512f,fma`, on a CPU with F16C too: twelve of its
    /// thirty-two 512-bit registers.
    Avx512Fma,
}

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
    /// This thread's `B` pack buffer (`KC·NC` floats), allocated on its
    /// first product.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The fastest instantiation [`gemm`] may pick on this thread.
    static CAP: Cell<Isa> = const { Cell::new(Isa::Avx512Fma) };
}

/// Run `f` with this thread's [`isa`] capped at `cap` (or an enclosing
/// scope's lower cap), which caps [`gemm`], [`with_isa`] and the slice
/// conversions of [`crate::dtype`] alike. Exists so tests can compare
/// instantiations in one process, as [`super::par::force_sequential`] lets
/// them compare threads.
#[doc(hidden)]
pub fn force_isa<R>(cap: Isa, f: impl FnOnce() -> R) -> R {
    let outer = CAP.replace(cap.min(CAP.get()));
    let out = f();
    CAP.set(outer);
    out
}

/// The instantiations this host offers, slowest first, printing a
/// "skipped" line for each it does not: what a test sweeps with
/// [`force_isa`] to hold every build it can run to the same bits.
#[doc(hidden)]
pub fn offered_isas() -> impl Iterator<Item = Isa> {
    [Isa::Portable, Isa::Avx2Fma, Isa::Avx512Fma]
        .into_iter()
        .filter(|&want| {
            let here = force_isa(want, isa) == want;
            if !here {
                eprintln!("skipped {want:?}: not on this host");
            }
            here
        })
}

/// The instantiation [`gemm`] runs on this thread: the fastest this CPU
/// offers under the thread's [`force_isa`] cap. The one CPU probe: every
/// tier above [`Isa::Portable`] also vouches for F16C, which the f16 slice
/// conversions of [`crate::dtype`] run on.
pub fn isa() -> Isa {
    let cap = CAP.get();
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("fma") && is_x86_feature_detected!("f16c") {
        if cap >= Isa::Avx512Fma && is_x86_feature_detected!("avx512f") {
            return Isa::Avx512Fma;
        }
        if cap >= Isa::Avx2Fma && is_x86_feature_detected!("avx2") {
            return Isa::Avx2Fma;
        }
    }
    Isa::Portable
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
    PACK.with_borrow_mut(|pack| {
        if pack.is_empty() {
            pack.resize(KC * NC, 0.0);
        }
        let dims = (m, n, k);
        // SAFETY: `isa()` only returns an instantiation this CPU offers; C
        // per this function's contract.
        unsafe {
            match isa() {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512Fma => in_avx512(
                    #[inline(always)]
                    || gemm_blocked::<32>(c, ldc, a, b, dims, pack),
                ),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2Fma => in_avx2(
                    #[inline(always)]
                    || gemm_blocked::<16>(c, ldc, a, b, dims, pack),
                ),
                _ => gemm_blocked::<8>(c, ldc, a, b, dims, pack),
            }
        }
    });
}

/// Run `f` compiled for the instantiation [`isa`] picks on this thread,
/// inside the wrapper [`gemm`]'s body runs in: the pointwise kernels' one
/// run-time ISA switch. `f` must be an `#[inline(always)]` closure whose
/// callees are `#[inline(always)]` too; anything it calls that is not
/// inlined runs baseline code.
#[inline(always)]
pub fn with_isa<R>(f: impl FnOnce() -> R) -> R {
    // SAFETY: `isa()` only returns an instantiation this CPU offers.
    unsafe {
        match isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512Fma => in_avx512(f),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => in_avx2(f),
            _ => f(),
        }
    }
}

/// `f` with 512-bit vectors and FMA: the AVX-512 instantiation of whatever
/// body `f` inlines.
///
/// # Safety
/// The CPU must offer AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn in_avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// `f` with 256-bit vectors and FMA: the AVX2 instantiation.
///
/// # Safety
/// The CPU must offer AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn in_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The blocked loop nest around [`micro_kernel`]. Same safety contract as
/// [`gemm`]; `a` and `b` passed their `check`s and `buf` is full size.
#[inline(always)]
unsafe fn gemm_blocked<const NR: usize>(
    c: *mut f32,
    ldc: usize,
    a: MatRef,
    b: MatRef,
    (m, n, k): Dims,
    buf: &mut [f32],
) {
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let bp = &mut buf[..nc.div_ceil(NR) * NR * kc];
            pack::<NR>(bp, b, (jc, nc), (pc, kc));
            for (jr, b_panel) in bp.chunks_exact(NR * kc).enumerate() {
                let j0 = jc + jr * NR;
                let nr = NR.min(n - j0);
                for i0 in (0..m).step_by(MR) {
                    // Rows past `m` re-read row `m − 1`; their sums are
                    // dropped below.
                    let rows = std::array::from_fn(|r| {
                        let i = (i0 + r).min(m - 1);
                        debug_assert!(i < m && pc + kc <= k, "A row {i} is outside the view");
                        // SAFETY: `(i, pc)` lies inside the view `a.check`
                        // validated.
                        unsafe { a.data.as_ptr().add(i * a.rs + pc * a.cs) }
                    });
                    // SAFETY: so do `(i, pc..pc + kc)`, each row's `kc`
                    // elements.
                    let acc = unsafe { micro_kernel::<NR>(rows, a.cs, b_panel) };
                    for (i, acc_row) in (i0..m).zip(&acc) {
                        // SAFETY: row `i < m`, columns `j0..j0 + nr` with
                        // `j0 + nr <= n`: inside the region the caller
                        // vouched for.
                        let c_row =
                            unsafe { std::slice::from_raw_parts_mut(c.add(i * ldc + j0), nr) };
                        for (cj, aj) in c_row.iter_mut().zip(acc_row) {
                            *cj += aj;
                        }
                    }
                }
            }
        }
    }
}

/// One register tile: `acc[i][j] = Σ_p A(i, p) · b_panel[p][j]`, `p`
/// ascending, one fused multiply-add per term, with `A(i, p)` at
/// `rows[i] + p·cs`.
///
/// # Safety
/// For every `i < MR` and `p < b_panel.len() / NR`, `rows[i].add(p·cs)` must
/// be valid for reads.
#[inline(always)]
unsafe fn micro_kernel<const NR: usize>(
    rows: [*const f32; MR],
    cs: usize,
    b_panel: &[f32],
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (p, b) in b_panel.chunks_exact(NR).enumerate() {
        for (acc_row, row) in acc.iter_mut().zip(rows) {
            // SAFETY: per this function's contract.
            let ai = unsafe { *row.add(p * cs) };
            for (x, &bj) in acc_row.iter_mut().zip(b) {
                *x = ai.mul_add(bj, *x);
            }
        }
    }
    acc
}

/// Pack columns `j0..j0 + nc` of `b` over inner indices `p0..p0 + kc` into
/// `W`-wide panels: panel `q` holds columns `j0 + q·W ..`, laid out `[p][W]`
/// and zero-padded to `W`.
#[inline(always)]
fn pack<const W: usize>(
    dst: &mut [f32],
    b: MatRef,
    (j0, nc): (usize, usize),
    (p0, kc): (usize, usize),
) {
    for (q, panel) in dst.chunks_exact_mut(W * kc).enumerate() {
        let v0 = j0 + q * W;
        let w = W.min(j0 + nc - v0);
        if w == W && b.cs == 1 {
            // The panel's columns are adjacent in memory: one W-float copy
            // per inner index.
            for (p, row) in panel.chunks_exact_mut(W).enumerate() {
                let at = (p0 + p) * b.rs + v0;
                row.copy_from_slice(&b.data[at..at + W]);
            }
        } else if w == W && b.rs == 1 {
            // Each column is contiguous along the inner dimension: a W-way
            // interleave.
            let cols: [&[f32]; W] = std::array::from_fn(|v| &b.data[(v0 + v) * b.cs + p0..][..kc]);
            for (p, row) in panel.chunks_exact_mut(W).enumerate() {
                for (x, col) in row.iter_mut().zip(&cols) {
                    *x = col[p];
                }
            }
        } else {
            // Ragged last panel, or strides in both directions.
            panel.fill(0.0);
            for v in 0..w {
                let base = (v0 + v) * b.cs + p0 * b.rs;
                for p in 0..kc {
                    panel[p * W + v] = b.data[base + p * b.rs];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::matmul::tests::{blocked_ref, rand, View, DEPTHS, LAYOUTS, SIZES};
    use super::*;

    fn view((data, rs, cs): View) -> MatRef {
        MatRef { data, rs, cs }
    }

    /// Run `C += A·B` on every offered instantiation and hold each to
    /// [`blocked_ref`] bit for bit, `C`'s padding columns included.
    fn holds_every_instantiation(
        what: &str,
        (a, b): (View, View),
        c0: &[f32],
        ldc: usize,
        (m, n, k): Dims,
    ) {
        let mut want = c0.to_vec();
        blocked_ref(&mut want, ldc, a, b, m, n, k);
        let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for which in offered_isas() {
            let mut got = c0.to_vec();
            // SAFETY: `got` holds `m` rows of `ldc >= n` floats.
            force_isa(which, || unsafe {
                gemm(got.as_mut_ptr(), ldc, view(a), view(b), m, n, k)
            });
            assert!(bits(&got) == bits(&want), "{which:?} {what} ({m},{k},{n})");
        }
    }

    #[test]
    fn every_instantiation_matches_the_blocked_reference_bit_for_bit() {
        // Every layout's strides over the ragged grid; C starts non-zero.
        for (name, _, a_strides, b_strides) in LAYOUTS {
            for m in SIZES {
                for n in SIZES {
                    for k in DEPTHS {
                        let (a, b, c0) = (rand(m * k, 1), rand(k * n, 2), rand(m * n, 3));
                        let ((ars, acs), (brs, bcs)) = (a_strides(m, k), b_strides(k, n));
                        let views = ((&a[..], ars, acs), (&b[..], brs, bcs));
                        holds_every_instantiation(name, views, &c0, n, (m, n, k));
                    }
                }
            }
        }
    }

    /// A `rows × cols` operand, stored row-major when its dense layout's
    /// column stride is 1 and column-major otherwise, embedded in NaN: its
    /// leading dimension three longer and two more lines of it past the last,
    /// so a read outside the view puts a NaN into a sum.
    fn in_nan_slack(
        rows: usize,
        cols: usize,
        (_, dense_cs): (usize, usize),
        seed: u64,
    ) -> (Vec<f32>, usize, usize) {
        let (lines, ld, rs, cs) = if dense_cs == 1 {
            (rows, cols + 3, cols + 3, 1)
        } else {
            (cols, rows + 3, 1, rows + 3)
        };
        let mut data = vec![f32::NAN; (lines + 2) * ld];
        let mut vals = rand(rows * cols, seed).into_iter();
        for i in 0..rows {
            for j in 0..cols {
                data[i * rs + j * cs] = vals.next().unwrap();
            }
        }
        (data, rs, cs)
    }

    #[test]
    fn reads_nothing_outside_its_operands_views() {
        // Row padding, rows past `m` and columns past the view all hold NaN,
        // and so do C's padding columns, which must come back untouched.
        for (name, _, a_strides, b_strides) in LAYOUTS {
            for m in [1, 2, 3, 4, 5, 6, 7, 13, 131] {
                for n in [1, 33] {
                    for k in DEPTHS {
                        let (a, ars, acs) = in_nan_slack(m, k, a_strides(m, k), 1);
                        let (b, brs, bcs) = in_nan_slack(k, n, b_strides(k, n), 2);
                        let ldc = n + 2;
                        let mut c0 = rand(m * ldc, 3);
                        for row in c0.chunks_exact_mut(ldc) {
                            row[n..].fill(f32::NAN);
                        }
                        let views = ((&a[..], ars, acs), (&b[..], brs, bcs));
                        holds_every_instantiation(name, views, &c0, ldc, (m, n, k));
                    }
                }
            }
        }
    }
}
