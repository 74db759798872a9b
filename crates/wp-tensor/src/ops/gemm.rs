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
//! `acc = 0; for p ascending { acc = fma(a, b, acc) }; c += acc` — a strictly
//! ascending-`k` chain of fused multiply-adds, each rounded once, then one
//! separately rounded add into `C`. Which register tile, vector lane, row
//! band or thread an element lands in never enters its arithmetic, so the
//! result is bit-identical across `MR×NR` shapes, vector widths and thread
//! counts. Every instantiation fuses — with the FMA instruction where the
//! ISA has one, through libm's correctly rounded `fmaf` where it does not —
//! so the bits do not depend on the CPU either.
//!
//! **ISA selection.** The platform picks, with `is_x86_feature_detected!`,
//! among three instantiations of the *same* generic source ([`Isa`]). The
//! x86 ones are the generic body inlined into a `#[target_feature]` wrapper,
//! so everything below those wrappers must be `#[inline(always)]` — a callee
//! that is not inlined is silently compiled for the baseline ISA and runs at
//! baseline speed without failing any test. `mul_add` belongs only in code
//! this kernel reaches: baseline x86-64 code makes it a libm call.

use std::cell::{Cell, RefCell};

/// Depth of one packed block along the inner dimension; also the unit of the
/// summation order (see the module docs).
pub const KC: usize = 256;
/// Rows of the register tile (every instantiation).
pub const MR: usize = 4;
/// Rows of `A` packed at a time: `MC·KC` floats stay L2-resident.
const MC: usize = 64;
/// Columns of `B` packed at a time; a multiple of every instantiation's `NR`.
const NC: usize = 128;

/// A product's `(m, n, k)`.
type Dims = (usize, usize, usize);
/// A thread's `A` and `B` pack buffers (`MC·KC` and `KC·NC` floats).
type Pack = (Vec<f32>, Vec<f32>);

/// The instantiations of the one generic body that [`gemm`] picks among,
/// slowest first, by their `MR×NR` register tile. All compute the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// 4×8 for the baseline ISA: two 128-bit lanes per row.
    Portable,
    /// 4×16 under `avx2,fma`: eight 256-bit accumulators, leaving registers
    /// for the `B` row and the `A` broadcast.
    Avx2Fma,
    /// 4×32 under `avx512f,fma`: eight of its thirty-two 512-bit registers.
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
    /// This thread's pack buffers, allocated on its first product.
    static PACK: RefCell<Pack> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// The fastest instantiation [`gemm`] may pick on this thread.
    static CAP: Cell<Isa> = const { Cell::new(Isa::Avx512Fma) };
}

/// Run `f` with this thread's [`gemm`] calls capped at `cap` (or an
/// enclosing scope's lower cap). Exists so tests can compare instantiations
/// in one process, as `rayon::force_sequential` lets them compare threads.
#[doc(hidden)]
pub fn force_isa<R>(cap: Isa, f: impl FnOnce() -> R) -> R {
    let outer = CAP.replace(cap.min(CAP.get()));
    let out = f();
    CAP.set(outer);
    out
}

/// Run `f` with this thread's [`gemm`] calls — and the slice conversions of
/// [`crate::dtype`], which dispatch the same way — pinned to the portable
/// instantiation, whatever the CPU offers.
#[doc(hidden)]
pub fn force_portable<R>(f: impl FnOnce() -> R) -> R {
    force_isa(Isa::Portable, f)
}

/// True inside a [`force_portable`] scope on this thread.
pub(crate) fn portable_forced() -> bool {
    CAP.get() == Isa::Portable
}

/// The instantiation [`gemm`] runs on this thread: the fastest this CPU
/// offers under the thread's [`force_isa`] cap.
pub fn isa() -> Isa {
    let cap = CAP.get();
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("fma") {
        if cap >= Isa::Avx512Fma && is_x86_feature_detected!("avx512f") {
            return Isa::Avx512Fma;
        }
        if cap >= Isa::Avx2Fma && is_x86_feature_detected!("avx2") {
            return Isa::Avx2Fma;
        }
    }
    Isa::Portable
}

/// True when this thread may use AVX2: the CPU has it and no
/// [`force_portable`] scope is open. The bf16 slice conversions of
/// [`crate::dtype`] dispatch on it.
pub fn uses_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !portable_forced() && is_x86_feature_detected!("avx2")
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
    PACK.with_borrow_mut(|pack| {
        if pack.0.is_empty() {
            pack.0.resize(MC * KC, 0.0);
            pack.1.resize(KC * NC, 0.0);
        }
        // SAFETY: `isa()` only returns an instantiation this CPU offers; C
        // per this function's contract.
        unsafe {
            match isa() {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512Fma => gemm_avx512(c, ldc, a, b, (m, n, k), pack),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2Fma => gemm_avx2(c, ldc, a, b, (m, n, k), pack),
                _ => gemm_blocked::<8>(c, ldc, a, b, (m, n, k), pack),
            }
        }
    });
}

/// The AVX-512 instantiation: the generic body with 512-bit vectors and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn gemm_avx512(c: *mut f32, ldc: usize, a: MatRef, b: MatRef, dims: Dims, pack: &mut Pack) {
    // SAFETY: forwarded contract.
    unsafe { gemm_blocked::<32>(c, ldc, a, b, dims, pack) }
}

/// The AVX2 instantiation: the generic body with 256-bit vectors and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_avx2(c: *mut f32, ldc: usize, a: MatRef, b: MatRef, dims: Dims, pack: &mut Pack) {
    // SAFETY: forwarded contract.
    unsafe { gemm_blocked::<16>(c, ldc, a, b, dims, pack) }
}

/// The blocked loop nest around [`micro_kernel`]. Same safety contract as
/// [`gemm`]; `pack` holds full-size buffers.
#[inline(always)]
unsafe fn gemm_blocked<const NR: usize>(
    c: *mut f32,
    ldc: usize,
    a: MatRef,
    b: MatRef,
    (m, n, k): Dims,
    (ap, bp): &mut Pack,
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
/// ascending, one fused multiply-add per term.
#[inline(always)]
fn micro_kernel<const NR: usize>(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (acc_row, &ai) in acc.iter_mut().zip(a) {
            for (x, &bj) in acc_row.iter_mut().zip(b) {
                *x = ai.mul_add(bj, *x);
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

#[cfg(test)]
mod tests {
    use super::super::matmul::tests::{blocked_ref, rand, DEPTHS, LAYOUTS, SIZES};
    use super::*;

    #[test]
    fn every_instantiation_matches_the_blocked_reference_bit_for_bit() {
        let offered: Vec<Isa> = [Isa::Portable, Isa::Avx2Fma, Isa::Avx512Fma]
            .into_iter()
            .filter(|&want| {
                let here = force_isa(want, isa) == want;
                if !here {
                    eprintln!("skipped {want:?}: not on this host");
                }
                here
            })
            .collect();
        // Every layout's strides over the ragged grid; C starts non-zero.
        for (name, _, a_strides, b_strides) in LAYOUTS {
            for m in SIZES {
                for n in SIZES {
                    for k in DEPTHS {
                        let (a, b, c0) = (rand(m * k, 1), rand(k * n, 2), rand(m * n, 3));
                        let ((ars, acs), (brs, bcs)) = (a_strides(m, k), b_strides(k, n));
                        let mut want = c0.clone();
                        blocked_ref(&mut want, n, (&a, ars, acs), (&b, brs, bcs), m, n, k);
                        let av = MatRef {
                            data: &a,
                            rs: ars,
                            cs: acs,
                        };
                        let bv = MatRef {
                            data: &b,
                            rs: brs,
                            cs: bcs,
                        };
                        for &which in &offered {
                            let mut got = c0.clone();
                            // SAFETY: `got` holds `m` rows of `n` floats.
                            force_isa(which, || unsafe {
                                gemm(got.as_mut_ptr(), n, av, bv, m, n, k)
                            });
                            assert!(got == want, "{which:?} {name} ({m},{k},{n})");
                        }
                    }
                }
            }
        }
    }
}
