//! Proof of the tentpole contract: once the scratch arena is warm, a full
//! training iteration (forward, backward, W-pass gradient accumulation)
//! performs **zero** heap allocations.
//!
//! A counting global allocator wraps `System`; the test warms the model for
//! two iterations (populating the arena's buffer pools and the reused
//! forward context), snapshots the allocation counter, runs more
//! iterations, and asserts the counter did not move — at a shape that stays
//! on the calling thread, and at one whose kernels run on the pool's
//! threads, backward from the saved context (borrowed, consumed, or split
//! into B and a W pass over the shed context) and from a checkpoint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use wp_nn::block::{
    block_backward, block_backward_checkpointed, block_backward_data, block_backward_full,
    block_backward_weight, block_forward,
};
use wp_nn::config::ModelConfig;
use wp_nn::data::synthetic_batch;
use wp_nn::model::{Model, ModelFwdCtx, ModelGrads};
use wp_nn::params::init_block;
use wp_nn::scratch::Scratch;
use wp_tensor::ops::matmul_nn;
use wp_tensor::ops::par::{current_num_threads, force_sequential, par_indices, PAR_MIN_WORK};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

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

/// Count allocations during `f`, after running `warmup` iterations of it.
fn allocs_when_warm(warmup: usize, iters: usize, mut f: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..iters {
        f();
    }
    ALLOCS.load(Ordering::SeqCst) - before
}

// All checks live in ONE #[test]: the counter is process-global, and with
// two tests the libtest harness itself allocates (result reporting on a
// concurrent thread) inside the other test's measured window.
#[test]
fn warm_paths_allocate_nothing() {
    warm_train_iteration();
    warm_split_bw_pass();
    warm_parallel_block();
}

fn warm_train_iteration() {
    let cfg = ModelConfig::tiny(2);
    let model = Model::new(&cfg, 7);
    let (batch, seq) = (2, 8);
    let (ids, targets) = synthetic_batch(cfg.vocab, batch, seq, 42);
    let mut grads = ModelGrads::zeros_like(&model);
    let mut fwd = ModelFwdCtx::empty();

    let delta = allocs_when_warm(2, 3, || {
        grads.zero();
        model.forward_into(&ids, batch, seq, &mut fwd);
        let _ = model.backward(&mut fwd, &targets, &mut grads, 1.0);
    });
    assert_eq!(
        delta, 0,
        "warm forward+backward iteration performed {delta} heap allocations"
    );
}

fn warm_split_bw_pass() {
    // The WeiPipe runtime splits backward into a B pass (data gradients,
    // saves per-layer contexts) and a W pass (weight gradients) over the
    // context shed to what W reads. Both must stay off the heap once the
    // arena is warm.
    let cfg = ModelConfig::tiny(1);
    let rope = cfg.rope_table();
    let w = init_block(&cfg, 3, 0);
    let sc = Scratch::new();
    let (batch, seq) = (2, 8);
    let n = batch * seq * cfg.hidden;
    let x: Vec<f32> = (0..n).map(|i| ((i % 13) as f32 - 6.0) * 0.07).collect();
    let dy: Vec<f32> = (0..n).map(|i| ((i % 7) as f32 - 3.0) * 0.11).collect();
    let mut dw = vec![0.0f32; w.len()];

    let delta = allocs_when_warm(2, 3, || {
        let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
        let (_dx, bctx) = block_backward_data(&cfg, &rope, &w, &ctx, &dy, batch, seq, &sc);
        let ctx = ctx.into_weight_inputs();
        dw.fill(0.0);
        block_backward_weight(&cfg, &ctx, &bctx, &mut dw, batch, seq);
    });
    assert_eq!(
        delta, 0,
        "warm split B/W pass performed {delta} heap allocations"
    );
}

fn warm_parallel_block() {
    // The shapes above are too small to leave the calling thread. Here 256
    // tokens split every token-row matmul into one 64-row band per pool
    // thread (up to four), and attention over 2 × 2 (batch, head) tasks is
    // far above the dispatch threshold: the pool's threads run the kernels.
    let cfg = ModelConfig::llama_like(16, 2, 1, 11, 128);
    let (batch, seq) = (2, 128);
    let tokens = batch * seq;
    assert!(tokens * cfg.hidden * cfg.hidden >= PAR_MIN_WORK);
    assert!(batch * cfg.heads * seq * seq * cfg.head_dim() >= PAR_MIN_WORK);
    let rope = cfg.rope_table();
    let w = init_block(&cfg, 5, 0);
    let sc = Scratch::new();
    let n = tokens * cfg.hidden;
    let x: Vec<f32> = (0..n).map(|i| ((i % 17) as f32 - 8.0) * 0.05).collect();
    let dy: Vec<f32> = (0..n).map(|i| ((i % 5) as f32 - 2.0) * 0.13).collect();
    let mut dw = vec![0.0f32; w.len()];
    // Forward then backward: from the saved context, borrowed (the oracle)
    // or consumed as the runtime does, from the layer's checkpoint, or
    // split into B and a W pass over the shed context.
    #[derive(Clone, Copy, Debug)]
    enum Path {
        Borrowed,
        Consumed,
        Checkpointed,
        Split,
    }
    const PATHS: [Path; 4] = [
        Path::Borrowed,
        Path::Consumed,
        Path::Checkpointed,
        Path::Split,
    ];
    let mut iterate = |path: Path| {
        let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
        dw.fill(0.0);
        let _ = match path {
            Path::Borrowed => {
                block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw, batch, seq, &sc)
            }
            Path::Consumed => {
                let dy = sc.take_copy(&dy);
                block_backward(&cfg, &rope, &w, ctx, dy, &mut dw, batch, seq, &sc)
            }
            Path::Checkpointed => {
                let (ck, dy) = (ctx.into_checkpoint(), sc.take_copy(&dy));
                block_backward_checkpointed(&cfg, &rope, &w, ck, dy, &mut dw, batch, seq, &sc)
            }
            Path::Split => {
                let (dx, bctx) = block_backward_data(&cfg, &rope, &w, &ctx, &dy, batch, seq, &sc);
                let ctx = ctx.into_weight_inputs();
                block_backward_weight(&cfg, &ctx, &bctx, &mut dw, batch, seq);
                dx
            }
        };
    };

    // Each pool thread allocates its matmul pack buffer on its first
    // product. Which threads claim a band is up to the pool, so run a 1×1
    // product on every one of them first: `T` tasks that each wait for all
    // `T` to have started can only be running on `T` distinct threads.
    let threads = current_num_threads();
    let all_started = Barrier::new(threads);
    par_indices(threads, |_| {
        all_started.wait();
        matmul_nn(&mut [0.0], &[1.0], &[1.0], 1, 1, 1);
    });
    // Warm the arena on the calling thread alone (same task geometry, same
    // buffers), so what the measured parallel iterations allocate is what
    // the pool's threads would.
    force_sequential(|| {
        for path in PATHS {
            iterate(path);
            iterate(path);
        }
    });
    for path in PATHS {
        let delta = allocs_when_warm(0, 3, || iterate(path));
        assert_eq!(
            delta, 0,
            "warm parallel block fwd+bwd ({path:?}) performed {delta} heap allocations"
        );
    }
}
