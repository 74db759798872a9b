//! The kernels' thread pool and the row bands every kernel runs on it.
//!
//! Every row-independent kernel parallelises the same way: split the row
//! range into at most a few bands per pool thread, run each band serially
//! inside one task, and keep the per-row arithmetic order untouched — which
//! makes the parallel result bit-identical to the sequential one
//! ([`force_sequential`] runs the very same band decomposition inline).
//! Work too small to pay for waking the pool runs as one inline band.
//!
//! The pool is persistent: its worker threads are spawned **once**, all of
//! them running by the time the pool's first use returns, and every
//! dispatch is **allocation-free**: the caller publishes a raw pointer to a
//! stack-resident job descriptor, workers claim task indices with a single
//! `fetch_add`, and the caller participates in the work itself while it
//! waits. This matters because the training hot path asserts zero heap
//! allocations per step (see `wp-nn`'s counting-allocator test) — a pool
//! that collected chunk vectors or spawned scoped threads per call would
//! fail that bar.
//!
//! Pool size is `WP_THREADS` (if set to a positive integer) or else
//! `std::thread::available_parallelism()`, decided once at first use.
//! [`force_sequential`] runs a closure with parallel dispatch disabled on
//! the current thread, which is how the bit-identity checks compare the
//! parallel path against the sequential one in-process.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};

/// Below this many scalar operations a kernel stays sequential: waking the
/// pool costs more than the work.
pub const PAR_MIN_WORK: usize = 1 << 14;

/// Run `f(r0, r1)` over disjoint bands covering `0..rows`: one inline band,
/// without touching the pool, when the kernel's `work` (scalar operations)
/// is below [`PAR_MIN_WORK`], else in parallel. Parallel bands are
/// contiguous and at most `4 × pool-width` in number, so each task
/// amortises dispatch over many rows.
pub fn par_row_bands(rows: usize, work: usize, f: impl Fn(usize, usize) + Sync) {
    if rows == 0 {
        return;
    }
    if work < PAR_MIN_WORK {
        return f(0, rows);
    }
    let bands = (4 * current_num_threads()).min(rows);
    let per = rows.div_ceil(bands);
    par_indices(rows.div_ceil(per), move |i| {
        let s = i * per;
        f(s, (s + per).min(rows));
    });
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

/// Number of worker threads a parallel operation may use (the pool size,
/// including the calling thread). Unaffected by [`force_sequential`] so
/// that band/chunk geometry — and therefore task decomposition — is
/// identical in sequential and parallel runs.
pub fn current_num_threads() -> usize {
    pool().threads
}

thread_local! {
    /// Depth of `force_sequential` scopes on this thread.
    static SEQ_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// True while this thread is executing tasks inside a pool job; nested
    /// parallel calls run inline instead of deadlocking on the pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with parallel dispatch disabled on this thread: every parallel
/// operation started while `f` runs executes inline, in task-index order.
/// Task geometry (chunk boundaries, band sizes) is unchanged, so a kernel
/// that is bit-identical per task produces bit-identical buffers either way
/// — the property the kernel test suites assert.
pub fn force_sequential<R>(f: impl FnOnce() -> R) -> R {
    SEQ_DEPTH.with(|d| d.set(d.get() + 1));
    let out = f();
    SEQ_DEPTH.with(|d| d.set(d.get() - 1));
    out
}

/// True when dispatch must run inline on this thread.
fn sequential_here() -> bool {
    SEQ_DEPTH.with(|d| d.get() > 0) || IN_WORKER.with(|w| w.get())
}

/// Run `f(i)` for every `i in 0..ntasks`, distributing indices across the
/// pool. Each index is executed exactly once; distinct indices may run
/// concurrently, so `f` must only touch disjoint data per index (or data
/// safe to share). Executes inline under [`force_sequential`], from inside
/// another parallel task, or when the pool has a single thread.
pub fn par_indices<F: Fn(usize) + Sync>(ntasks: usize, f: F) {
    if ntasks == 0 {
        return;
    }
    let p = pool();
    if ntasks == 1 || p.threads <= 1 || sequential_here() {
        for i in 0..ntasks {
            f(i);
        }
        return;
    }
    p.run(ntasks, &f);
}

/// A published job: a borrowed task closure plus claim/served counters.
/// Lives on the publishing caller's stack; workers hold a raw pointer to it
/// only between publication and the final `active` decrement, and the
/// caller does not return (and thus pop the frame) before that.
struct JobDesc {
    /// Fat pointer to the task body (`for<'a> fn(usize)` shaped closure).
    func: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// One past the last task index.
    ntasks: usize,
    /// Set when any task panicked; the caller re-panics after the join.
    panicked: AtomicBool,
}

/// Mutex-guarded pool state. `job` is a `*const JobDesc` stored as usize
/// (0 = idle) so the guard stays `Send`.
struct PoolInner {
    job: usize,
    /// Bumped once per published job; sleeping workers watch for a change.
    epoch: u64,
    /// Workers still attached to the current job.
    active: usize,
}

struct Pool {
    threads: usize,
    inner: Mutex<PoolInner>,
    /// Signalled when a new job is published.
    work: Condvar,
    /// Signalled when the current job fully drains (`active == 0`).
    done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("WP_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let pool = Pool {
            threads,
            inner: Mutex::new(PoolInner {
                job: 0,
                epoch: 0,
                active: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        };
        // The calling thread participates in every job, so spawn one fewer
        // worker than the pool width — and wait until each is running:
        // `spawn` returns before the new thread has executed std's start-up
        // prologue, which allocates (it copies the thread name for the
        // stack-overflow handler). A process that never dispatches a job
        // would otherwise see those allocations whenever the OS first
        // schedules the workers, e.g. inside a zero-allocation window.
        let started = Arc::new(Barrier::new(threads));
        for _ in 1..threads {
            let started = Arc::clone(&started);
            std::thread::Builder::new()
                .name("wp-pool-worker".into())
                .spawn(move || {
                    started.wait();
                    drop(started);
                    worker_loop()
                })
                .expect("spawn pool worker");
        }
        started.wait();
        pool
    })
}

fn worker_loop() {
    let p = pool();
    let mut seen = 0u64;
    loop {
        let desc = {
            let mut g = p.inner.lock().expect("pool lock");
            while g.epoch == seen {
                g = p.work.wait(g).expect("pool wait");
            }
            seen = g.epoch;
            g.job as *const JobDesc
        };
        // SAFETY: publication set `active` for every worker before
        // notifying, and the caller nulls `job` and returns only after the
        // last decrement below, so `desc` is alive for as long as we use it.
        let desc = unsafe { &*desc };
        IN_WORKER.with(|w| w.set(true));
        let r = catch_unwind(AssertUnwindSafe(|| run_tasks(desc)));
        IN_WORKER.with(|w| w.set(false));
        if r.is_err() {
            desc.panicked.store(true, Ordering::Relaxed);
        }
        let mut g = p.inner.lock().expect("pool lock");
        g.active -= 1;
        if g.active == 0 {
            g.job = 0;
            p.done.notify_all();
        }
    }
}

/// Claim and run task indices until the job is exhausted.
fn run_tasks(desc: &JobDesc) {
    // SAFETY: `func` borrows the closure `Pool::run` was given, and `run`
    // returns only after every thread has left this loop.
    let f = unsafe { &*desc.func };
    loop {
        let i = desc.next.fetch_add(1, Ordering::Relaxed);
        if i >= desc.ntasks {
            return;
        }
        f(i);
    }
}

impl Pool {
    /// Publish `f` over `ntasks` indices, participate, and wait for the
    /// drain. Serializes concurrent callers (one job in flight at a time).
    fn run(&self, ntasks: usize, f: &(dyn Fn(usize) + Sync)) {
        let desc = JobDesc {
            // SAFETY: erases the borrow's lifetime for the raw pointer;
            // `run` does not return while any thread can still call `f`.
            func: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &(dyn Fn(usize) + Sync)>(f)
            },
            next: AtomicUsize::new(0),
            ntasks,
            panicked: AtomicBool::new(false),
        };
        {
            let mut g = self.inner.lock().expect("pool lock");
            while g.job != 0 {
                g = self.done.wait(g).expect("pool wait");
            }
            g.job = &desc as *const JobDesc as usize;
            g.epoch += 1;
            g.active = self.threads - 1;
            self.work.notify_all();
        }
        // Participate; even if our own slice panics we must not unwind (and
        // free `desc`) while workers still hold a pointer to it.
        let r = catch_unwind(AssertUnwindSafe(|| run_tasks(&desc)));
        if r.is_err() {
            desc.panicked.store(true, Ordering::Relaxed);
        }
        let mut g = self.inner.lock().expect("pool lock");
        while g.active != 0 {
            g = self.done.wait(g).expect("pool wait");
        }
        g.job = 0;
        drop(g);
        if desc.panicked.load(Ordering::Relaxed) {
            panic!("parallel task panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_count_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn par_indices_each_index_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits: Vec<AtomicU32> = (0..257).map(|_| AtomicU32::new(0)).collect();
        super::par_indices(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn force_sequential_runs_every_index_inline_in_order() {
        use std::sync::Mutex;
        let here = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        super::force_sequential(|| {
            super::par_indices(40, |i| {
                assert_eq!(std::thread::current().id(), here);
                seen.lock().unwrap().push(i);
            });
        });
        assert_eq!(*seen.lock().unwrap(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let total = AtomicU32::new(0);
        super::par_indices(8, |_| {
            // A nested dispatch must not deadlock on the single-job pool.
            super::par_indices(8, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_callers_serialize_without_deadlock() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let total = AtomicU32::new(0);
        let total = &total;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..50 {
                        super::par_indices(16, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 16);
    }

    #[test]
    fn a_panicking_task_panics_the_caller_and_leaves_the_pool_working() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let ran = std::panic::catch_unwind(|| {
            super::par_indices(64, |i| assert_ne!(i, 3, "task 3 fails"));
        });
        assert!(ran.is_err(), "the caller must see the task's panic");
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        super::par_indices(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
