//! Shared parallel-dispatch helpers for the kernels.
//!
//! Every row-independent kernel in this module tree parallelises the same
//! way: split the row range into at most a few bands per pool thread, run
//! each band serially inside one task, and keep the per-row arithmetic
//! order untouched — which makes the parallel result bit-identical to the
//! sequential one (`rayon::force_sequential` runs the very same band
//! decomposition inline).

/// Below this many scalar operations a kernel stays sequential: waking the
/// pool costs more than the work.
pub const PAR_MIN_WORK: usize = 1 << 14;

/// Run `f(r0, r1)` over disjoint bands covering `0..rows`, in parallel.
/// Bands are contiguous and at most `4 × pool-width` in number, so each
/// task amortises dispatch over many rows.
pub fn par_row_bands(rows: usize, f: impl Fn(usize, usize) + Sync) {
    if rows == 0 {
        return;
    }
    let threads = rayon::current_num_threads().max(1);
    let bands = (4 * threads).min(rows);
    let per = rows.div_ceil(bands);
    let n = rows.div_ceil(per);
    rayon::par_indices(n, move |i| {
        let s = i * per;
        f(s, (s + per).min(rows));
    });
}

/// Run `f(t)` for `t in 0..n` across the pool (inline when the pool has
/// width 1 or the caller is inside `rayon::force_sequential`). Thin façade
/// over the pool so downstream crates don't need a direct `rayon` dep.
pub fn par_tasks(n: usize, f: impl Fn(usize) + Sync) {
    rayon::par_indices(n, f);
}

/// Wrapper making a raw mutable base pointer shareable across pool tasks.
///
/// Soundness comes entirely from the caller: every task must touch a
/// disjoint index range of the underlying buffer.
pub struct RawMut<T>(pub *mut T);
unsafe impl<T> Send for RawMut<T> {}
unsafe impl<T> Sync for RawMut<T> {}

impl<T> RawMut<T> {
    /// The base pointer. A method rather than field access, so a closure
    /// that calls it captures the whole `Sync` wrapper.
    pub fn ptr(&self) -> *mut T {
        self.0
    }

    /// Borrow `len` elements starting at `start`.
    ///
    /// # Safety
    /// `start + len` must be in bounds and no concurrently live slice may
    /// overlap `[start, start + len)`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &mut [T] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}
