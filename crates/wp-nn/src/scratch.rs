//! Bump-reset scratch arenas for steady-state allocation-free training.
//!
//! Every forward/backward pass through the model needs the same set of
//! temporary buffers (activations, gradient rows, softmax scratch) with the
//! same shapes each step. [`Scratch`] pools those buffers by length: the
//! first iteration allocates, every later `take` pops a recycled buffer and
//! zero-fills it in place, and dropping a [`ScratchBuf`] returns the memory
//! to the pool. After one warm-up step the hot path performs no heap
//! allocation at all — asserted by the counting-allocator test in
//! `tests/alloc.rs` and by the `wp-bench kernels --smoke` CI step.
//!
//! The pool is shared behind an `Arc`, so cloning a [`Scratch`] (or a
//! [`ScratchBuf`]) keeps recycling into the same arena. Each rank in the
//! distributed runtime owns its own arena; buffers never migrate between
//! ranks.

use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Pools {
    by_len: HashMap<usize, Vec<Vec<f32>>>,
}

/// A shared pool of reusable `f32` buffers, keyed by length.
#[derive(Clone, Default)]
pub struct Scratch {
    inner: Arc<Mutex<Pools>>,
}

impl Scratch {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        Scratch::default()
    }

    fn grab(&self, len: usize) -> Option<Vec<f32>> {
        let mut pools = self.inner.lock().expect("scratch pool poisoned");
        pools.by_len.get_mut(&len).and_then(Vec::pop)
    }

    /// A zero-filled buffer of exactly `len` elements. Reuses pooled memory
    /// when a buffer of this length has been returned before.
    pub fn take(&self, len: usize) -> ScratchBuf {
        let data = match self.grab(len) {
            Some(mut d) => {
                d.fill(0.0);
                d
            }
            None => vec![0.0; len],
        };
        ScratchBuf {
            data,
            home: Some(self.inner.clone()),
        }
    }

    /// A buffer holding a copy of `src` (pooled; no zero-fill pass).
    pub fn take_copy(&self, src: &[f32]) -> ScratchBuf {
        let data = match self.grab(src.len()) {
            Some(mut d) => {
                d.copy_from_slice(src);
                d
            }
            None => src.to_vec(),
        };
        ScratchBuf {
            data,
            home: Some(self.inner.clone()),
        }
    }

    /// Total `f32` elements currently parked in the pool (diagnostics).
    pub fn pooled_elems(&self) -> usize {
        let pools = self.inner.lock().expect("scratch pool poisoned");
        pools.by_len.values().flatten().map(Vec::len).sum()
    }
}

impl fmt::Debug for Scratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scratch {{ pooled_elems: {} }}", self.pooled_elems())
    }
}

/// An owned `f32` buffer that returns to its [`Scratch`] pool on drop.
///
/// Dereferences to `[f32]`, so call sites read exactly like `Vec<f32>`.
/// A buffer created by [`ScratchBuf::empty`] has no home pool and drops
/// normally.
pub struct ScratchBuf {
    data: Vec<f32>,
    home: Option<Arc<Mutex<Pools>>>,
}

impl ScratchBuf {
    /// A zero-length buffer with no backing pool (placeholder state).
    pub fn empty() -> Self {
        ScratchBuf {
            data: Vec::new(),
            home: None,
        }
    }

    /// Detach the underlying vector (it will no longer recycle).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }
}

impl Deref for ScratchBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            let data = std::mem::take(&mut self.data);
            if data.capacity() > 0 {
                if let Ok(mut pools) = home.lock() {
                    pools.by_len.entry(data.len()).or_default().push(data);
                }
            }
        }
    }
}

impl Clone for ScratchBuf {
    /// Pool-aware clone: draws a same-length buffer from the home arena when
    /// one is available, so cloning on a warm pool does not allocate.
    fn clone(&self) -> Self {
        let data = match &self.home {
            Some(home) => {
                let recycled = {
                    let mut pools = home.lock().unwrap();
                    pools.by_len.get_mut(&self.data.len()).and_then(Vec::pop)
                };
                match recycled {
                    Some(mut d) => {
                        d.copy_from_slice(&self.data);
                        d
                    }
                    None => self.data.clone(),
                }
            }
            None => self.data.clone(),
        };
        ScratchBuf {
            data,
            home: self.home.clone(),
        }
    }
}

impl fmt::Debug for ScratchBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.data.fmt(f)
    }
}

impl PartialEq for ScratchBuf {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl PartialEq<Vec<f32>> for ScratchBuf {
    fn eq(&self, other: &Vec<f32>) -> bool {
        &self.data == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_and_recycles() {
        let sc = Scratch::new();
        let mut a = sc.take(16);
        a[3] = 7.0;
        let ptr = a.as_ptr();
        drop(a);
        assert_eq!(sc.pooled_elems(), 16);
        let b = sc.take(16);
        assert_eq!(b.as_ptr(), ptr, "same allocation reused");
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer re-zeroed");
    }

    #[test]
    fn take_copy_copies_without_alias() {
        let sc = Scratch::new();
        let src = vec![1.0f32, 2.0, 3.0];
        let mut c = sc.take_copy(&src);
        assert_eq!(&c[..], &src[..]);
        c[0] = 9.0;
        assert_eq!(src[0], 1.0);
    }

    #[test]
    fn different_lengths_pool_separately() {
        let sc = Scratch::new();
        drop(sc.take(8));
        let big = sc.take(32); // must not reuse the len-8 buffer
        assert_eq!(big.len(), 32);
        drop(big);
        assert_eq!(sc.pooled_elems(), 40);
    }

    #[test]
    fn into_vec_detaches_from_the_pool() {
        let sc = Scratch::new();
        let buf = sc.take_copy(&[5.0f32; 4]);
        let v = buf.into_vec();
        assert_eq!(v, vec![5.0; 4]);
        // into_vec detached the memory: nothing returned to the pool.
        assert_eq!(sc.pooled_elems(), 0);
    }

    #[test]
    fn empty_buf_has_no_home() {
        let b = ScratchBuf::empty();
        assert!(b.is_empty());
        drop(b); // must not panic
    }

    #[test]
    fn clone_recycles_into_same_pool() {
        let sc = Scratch::new();
        let a = sc.take(4);
        let b = a.clone();
        drop(a);
        drop(b);
        assert_eq!(sc.pooled_elems(), 8);
    }
}
