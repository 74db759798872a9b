//! Overlap benchmark: the double-buffered weight ring vs the blocking ring,
//! on a deliberately comm-bound configuration.
//!
//! The link bandwidth is calibrated against a measured compute-only run so
//! that one weight-chunk transfer costs a sizeable fraction of a turn's
//! compute. On that configuration the blocking ring pays the three ring
//! messages (forward weights, backward weights, gradient chunk — all on the
//! same directed link, which is a single DMA path) on the critical path of
//! every turn, while the overlapped ring hides the weight hops behind
//! compute and exposes only the tail of the gradient-chunk transfer.
//!
//! Run with `--smoke` for a fast CI-sized configuration; smoke mode checks
//! (a) the overlapped ring is no slower than the blocking one (with a real
//! speedup floor), (b) both rings produce bit-identical results, and
//! (c) warm kernel iterations still perform zero heap allocations. The
//! full-size run (`S = 2048`) checks the paper-level claim: overlap is at
//! least 1.3× faster than blocking when communication is the bottleneck.
//! Failed checks exit nonzero with a one-line reason (no backtrace), and
//! every run writes the measured speedup and alloc count to
//! `results/bench_overlap.json` for the regression gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use weipipe::{run_distributed, Strategy, TrainSetup};
use wp_bench::ci::{self, Report};
use wp_comm::LinkModel;
use wp_nn::block::{block_backward_full, block_forward};
use wp_nn::config::ModelConfig;
use wp_nn::params::{init_block, BlockLayout};
use wp_nn::scratch::Scratch;
use wp_tensor::Tensor;

/// Global allocator that counts every allocation, so smoke mode can prove
/// the warm kernel path never touches the heap.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Config {
    ranks: usize,
    setup: TrainSetup,
    /// Required overlapped-vs-blocking wall-clock ratio.
    min_speedup: f64,
}

fn config(smoke: bool) -> Config {
    let (hidden, heads, seq, min_speedup) = if smoke {
        (64, 2, 192, 1.15)
    } else {
        (32, 2, 2048, 1.3)
    };
    let ranks = 2;
    let layers = 2;
    // N = 8 microbatches: enough steady-state turns that the iteration
    // epilogue (replicated embed/head reduction, reseed) does not dilute
    // the per-turn comparison.
    let mut setup = TrainSetup::tiny(layers, 8);
    setup.model = ModelConfig::llama_like(hidden, heads, layers, 64, seq);
    setup.seq = seq;
    setup.iters = 3;
    Config {
        ranks,
        setup,
        min_speedup,
    }
}

/// Calibrate a comm-bound link for `setup`: measure the compute-only wall
/// clock, derive the steady-state turn time, and size the bandwidth so one
/// weight-chunk transfer costs a third of a turn's compute. Three such
/// messages per turn share one directed link, so the blocking ring's turn
/// is then dominated by communication.
fn comm_bound_link(ranks: usize, setup: &TrainSetup) -> (LinkModel, f64, f64) {
    let compute_only = match run_distributed(Strategy::WeiPipeInterleave, ranks, &setup.clone()) {
        Ok(r) => r,
        Err(e) => ci::fail("overlap", &format!("calibration run failed: {e}")),
    };
    // Steady-state turns per iteration for WeiPipe-Interleave: the
    // backward/grad horizon hb = (nl + 2)·P − 2, nl = N/P.
    let nl = setup.microbatches / ranks;
    let turns = (nl + 2) * ranks - 2;
    let turn_secs = compute_only.wall_seconds / (setup.iters * turns) as f64;
    let chunk_bytes = (setup.model.layers / ranks) * BlockLayout::new(&setup.model).len() * 4;
    // One third of a turn per message: the three per-turn messages then
    // cost a full turn of serialised link time — the blocking ring's turn
    // doubles, while the overlapped ring still (just) hides the transfers.
    let target_transfer = turn_secs / 3.0;
    let link = LinkModel {
        bandwidth_bps: chunk_bytes as f64 / target_transfer,
        latency_s: 10e-6,
    };
    (link, turn_secs, target_transfer)
}

/// Smoke check: once the scratch arena is warm, a full block
/// forward + backward iteration performs zero heap allocations — the
/// overlap machinery must not have re-introduced hot-path allocation.
fn check_zero_alloc(cfg: &ModelConfig) -> (usize, Result<(), String>) {
    let seq = cfg.max_seq.min(192);
    let rope = cfg.rope_table();
    let w = init_block(cfg, 11, 0);
    let n = seq * cfg.hidden;
    let x = Tensor::rand_uniform([n], -0.5, 0.5, 12).into_vec();
    let dy = Tensor::rand_uniform([n], -1.0, 1.0, 13).into_vec();
    let sc = Scratch::new();
    let mut dw = vec![0.0f32; w.len()];

    let iterate = |dw: &mut [f32]| {
        let (_, ctx) = block_forward(cfg, &rope, &w, &x, 1, seq, &sc);
        dw.fill(0.0);
        let _ = block_backward_full(cfg, &rope, &w, &ctx, &dy, dw, 1, seq, &sc);
    };
    iterate(&mut dw);
    iterate(&mut dw);
    let before = ALLOCS.load(Ordering::SeqCst);
    iterate(&mut dw);
    let delta = ALLOCS.load(Ordering::SeqCst) - before;
    let verdict = if delta == 0 {
        Ok(())
    } else {
        Err(format!(
            "warm block fwd+bwd iteration performed {delta} heap allocations"
        ))
    };
    (delta, verdict)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = config(smoke);
    println!(
        "# wp-bench overlap  (P={}, S={}, N={}, {} threads)",
        cfg.ranks,
        cfg.setup.seq,
        cfg.setup.microbatches,
        rayon::current_num_threads()
    );

    let (link, turn_secs, transfer_secs) = comm_bound_link(cfg.ranks, &cfg.setup);
    println!(
        "calibrated: turn {:.2} ms compute, chunk transfer {:.2} ms ({:.1} MB/s)",
        turn_secs * 1e3,
        transfer_secs * 1e3,
        link.bandwidth_bps / 1e6
    );

    let mut setup = cfg.setup.clone();
    setup.link = link;
    let run = |overlap: bool, setup: &TrainSetup| match run_distributed(
        Strategy::WeiPipeInterleave,
        cfg.ranks,
        &setup.clone().with_overlap(overlap),
    ) {
        Ok(r) => r,
        Err(e) => ci::fail(
            "overlap",
            &format!(
                "{} run failed: {e}",
                if overlap { "overlapped" } else { "blocking" }
            ),
        ),
    };
    let blocking = run(false, &setup);
    let overlapped = run(true, &setup);

    let speedup = blocking.wall_seconds / overlapped.wall_seconds;
    println!(
        "blocking   {:>8.1} ms/run\noverlapped {:>8.1} ms/run   speedup x{:.2}",
        blocking.wall_seconds * 1e3,
        overlapped.wall_seconds * 1e3,
        speedup
    );

    // The overlapped ring is a pure scheduling change: identical floats.
    ci::check(
        "overlap",
        "bit-identity: overlapped == blocking (losses, params, bytes)",
        if !overlapped.bit_identical(&blocking) {
            Err("overlap changed the losses or weights".to_string())
        } else if overlapped.bytes_sent != blocking.bytes_sent {
            Err("overlap changed traffic volume".to_string())
        } else {
            Ok(())
        },
    );

    ci::check(
        "overlap",
        &format!(
            "speedup x{speedup:.2} >= x{:.2} on comm-bound link",
            cfg.min_speedup
        ),
        if overlapped.wall_seconds > blocking.wall_seconds {
            Err(format!(
                "overlapped ring slower than blocking: {:.1} ms vs {:.1} ms",
                overlapped.wall_seconds * 1e3,
                blocking.wall_seconds * 1e3
            ))
        } else if speedup < cfg.min_speedup {
            Err(format!(
                "comm-bound overlap speedup x{speedup:.2} below the x{:.2} floor",
                cfg.min_speedup
            ))
        } else {
            Ok(())
        },
    );

    let (allocs, verdict) = check_zero_alloc(&cfg.setup.model);
    ci::check(
        "overlap",
        "zero-alloc: warm block fwd+bwd iteration",
        verdict,
    );

    let mut report = Report::new("overlap");
    report
        .metric("speedup", speedup)
        .metric("blocking_ms", blocking.wall_seconds * 1e3)
        .metric("overlapped_ms", overlapped.wall_seconds * 1e3)
        .metric("warm_allocs", allocs as f64);
    match report.write(std::path::Path::new("results")) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => ci::fail("overlap", &e),
    }
}
