//! Proof of the hot-path contract: recording a metric allocates nothing.
//!
//! A counting global allocator wraps `System` (the same harness as
//! `wp-trace`'s `tests/alloc.rs`); the test warms the handles, snapshots
//! the allocation counter, hammers every update kind — counter adds, gauge
//! stores, high-water CAS, histogram observes, and every `Probe` call with
//! both sinks attached and with neither — and asserts the counter did not
//! move. With neither sink attached the probe must not read a clock either.
//!
//! The counter is per thread: recording runs on the calling thread, while
//! libtest's main thread, just after spawning the test's thread, allocates
//! the map of running tests, which a process-wide counter caught inside the
//! measured window in about half the runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wp_metrics::{Counter, Gauge, Hist, MetricsRegistry, Probe};
use wp_trace::{FaultFlags, SpanKind, TraceCollector};

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
    let registry = MetricsRegistry::new(4);
    let collector = TraceCollector::new(4, 64);
    let handles: Vec<_> = (0..4).map(|r| registry.handle(r)).collect();
    let probes: Vec<_> = (0..4)
        .map(|r| Probe::new(registry.handle(r), true, Some(collector.tracer(r))))
        .collect();
    let bare = Probe::new(MetricsRegistry::new(1).handle(0), false, None);

    // Warm up (first clock read etc. must not be charged to the hot path).
    for (m, p) in handles.iter().zip(&probes) {
        p.iteration(0, p.now(), 1, 0.0);
        m.set_max(Gauge::ReorderDepthMax, 1.0);
    }

    let before = ALLOCS.with(Cell::get);
    for i in 0..1000u64 {
        for m in &handles {
            m.add(Counter::P2pBytesSent, 4096);
            m.incr(Counter::P2pMsgsSent);
            m.add(Counter::PacingStallNs, i);
            m.set(Gauge::Loss, i as f64 * 0.5);
            m.set_max(Gauge::ReorderDepthMax, (i % 7) as f64);
            m.observe(Hist::FwdNs, i * 37);
            m.observe(Hist::BwdNs, i << (i % 50));
        }
        for p in probes.iter().chain([&bare]) {
            let t0 = p.now();
            p.sent(i % 2 == 0, 1, 4096, t0);
            p.reorder_depth(2);
            let x0 = p.received(false, 1, 2, 4096, t0);
            p.transferred(1, 2, 4096, x0, i);
            p.fault(
                FaultFlags {
                    delay: true,
                    hold: false,
                    corrupt: false,
                    dead: false,
                },
                1,
            );
            p.event(Counter::RecvRetries);
            let mark = p.collective_begin();
            p.collective(SpanKind::AllReduce, mark);
            p.compute(SpanKind::Fwd, 0, 0, t0);
            p.optim_step(t0, 1e-3);
            p.grad_norm(|| 1.0);
            p.iteration(i as usize, t0, 64, 1.0);
        }
    }
    let after = ALLOCS.with(Cell::get);
    assert_eq!(
        after - before,
        0,
        "slot updates and probe calls must not allocate on the hot path"
    );

    // No sink, no clock: a start mark taken 2 ms later is still 0.
    assert_eq!(bare.now(), 0);
    std::thread::sleep(std::time::Duration::from_millis(2));
    assert_eq!(bare.now(), 0, "an unattached probe must not read a clock");

    // Sanity: the updates really landed.
    let snap = registry.snapshot();
    for r in &snap.ranks {
        assert_eq!(r.counter(Counter::P2pMsgsSent), 1500);
        assert_eq!(r.hist(Hist::FwdNs).count, 2000);
        assert_eq!(r.gauge(Gauge::ReorderDepthMax), 6.0);
    }
}
