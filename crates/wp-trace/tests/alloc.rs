//! Proof of the hot-path contract: recording a span allocates nothing.
//!
//! A counting global allocator wraps `System`; the test warms the tracer,
//! snapshots the allocation counter, records a few thousand spans of every
//! flavour, and asserts the counter did not move.
//!
//! The counter is per thread: recording runs on the calling thread, while
//! libtest's main thread, just after spawning the test's thread, allocates
//! the map of running tests, which a process-wide counter caught inside the
//! measured window in about a third of the runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wp_trace::{send_aux, SpanKind, TraceCollector, NO_ID};

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread. Const-initialised and without a
    /// destructor, so the allocator can bump it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn recording_allocates_nothing() {
    // All allocation happens here, up front.
    let collector = TraceCollector::new(4, 8192);
    let tracers: Vec<_> = (0..4).map(|r| collector.tracer(r)).collect();

    // Warm up (first clock read etc. must not be charged to the hot path).
    for t in &tracers {
        let t0 = t.now_ns();
        t.end_span(SpanKind::Fwd, t0, 0, 0, 0, 0);
    }

    let before = ALLOCS.with(Cell::get);
    for _ in 0..1000 {
        for (r, t) in tracers.iter().enumerate() {
            let t0 = t.now_ns();
            t.end_span(SpanKind::Fwd, t0, 3, 1, 0, 0);
            t.end_span(
                SpanKind::Send,
                t0,
                NO_ID,
                NO_ID,
                4096,
                send_aux((r + 1) % 4, false),
            );
            t.instant(SpanKind::Fault, 0b01);
        }
    }
    let after = ALLOCS.with(Cell::get);
    assert_eq!(
        after - before,
        0,
        "record()/end_span()/instant() must not allocate on the hot path"
    );

    // Sanity: the records really landed (ring wrapped, nothing lost silently).
    let trace = collector.snapshot();
    for track in &trace.tracks {
        assert_eq!(track.spans.len() + track.overwritten as usize, 3 * 1000 + 1);
    }
}
