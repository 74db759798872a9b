//! Tracking global allocator: live bytes, their high-water mark, and an
//! allocation count. `peak_heap_mib` (the paper's memory axis) and
//! `wp-nn.warm_allocs` are read from here, so the program under test needs
//! no instrumentation of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts around the system allocator. The counters publish no other data,
/// so every access is `Relaxed`.
pub struct Tracking {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicUsize,
}

impl Tracking {
    pub const fn new() -> Self {
        Tracking {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Allocation calls (`alloc` + `realloc`) so far.
    pub fn alloc_count(&self) -> usize {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Return the high-water mark reached since the last latch and restart
    /// it from the current live size, so a later phase (tracing, probes)
    /// cannot raise a peak that was already reported.
    pub fn latch_peak(&self) -> usize {
        self.peak.swap(self.live_bytes(), Ordering::Relaxed)
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds atomic counter updates, so `System`'s guarantees
// (and the caller's obligations) carry over as they are.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a private instance through the trait, so the numbers are not
    /// disturbed by other tests allocating through the global one.
    #[test]
    fn peak_follows_live_and_latch_restarts_it() {
        let t = Tracking::new();
        let big = Layout::from_size_align(4096, 8).unwrap();
        let small = Layout::from_size_align(512, 8).unwrap();
        // SAFETY: non-zero-size layouts; every pointer is freed or
        // reallocated exactly once with the layout it was obtained with.
        unsafe {
            let a = t.alloc(big);
            let b = t.alloc(small);
            assert_eq!(t.live_bytes(), 4608);
            t.dealloc(a, big);
            assert_eq!(t.live_bytes(), 512);
            assert_eq!(t.latch_peak(), 4608, "peak is the high-water mark");
            assert_eq!(t.latch_peak(), 512, "a latch restarts from live bytes");
            let b = t.realloc(b, small, 2048);
            assert_eq!(t.live_bytes(), 2048);
            assert_eq!(t.latch_peak(), 2048);
            let grown = Layout::from_size_align(2048, 8).unwrap();
            let b = t.realloc(b, grown, 256);
            assert_eq!(t.live_bytes(), 256);
            t.dealloc(b, Layout::from_size_align(256, 8).unwrap());
        }
        assert_eq!(t.live_bytes(), 0);
        assert_eq!(t.alloc_count(), 4, "two allocs and two reallocs");
    }
}
