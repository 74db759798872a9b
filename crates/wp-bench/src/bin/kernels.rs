//! Kernel microbenchmark: absolute single-core throughput of the hot
//! kernels against this host's multiply-add ceiling.
//!
//! Times the three matmul layouts at the shapes the block's FFN gives them
//! and streaming attention forward/backward, all at the repo benchmark's
//! `longctx` shape (H128, S1024, 4 heads), on one core (`force_sequential`),
//! and prints GFLOP/s beside an in-process ceiling: independent fused
//! multiply-add chains held in registers, compiled under the same
//! `#[target_feature]` as the `gemm` instantiation this host picks, with
//! enough vector chains to cover FMA latency on two ports.
//! `matmul_ceiling_share` and `attn_ceiling_share` — the slowest layout and
//! the slower attention direction as a share of that ceiling — are what
//! `ci/bench_floors.json` bounds, so a kernel that silently falls back to a
//! narrower build (an AVX-512 host running the AVX2 one, or a callee that
//! escaped the wrapper and runs baseline code) fails the gate.
//!
//! The wire path's per-byte kernels get the same treatment against a
//! different ceiling: `pack_f16`, `unpack_f16` and the frame checksum over
//! one `widecomm` ring chunk (1.58 M elements), in GB/s of f32 bytes, beside
//! an in-process `copy_from_slice` of the same chunk.
//! `pack_f16_copy_share` and `checksum_copy_share` are bounded in
//! `ci/bench_floors.json`: a scalar converter or a byte-at-a-time hash sits
//! at a tenth of memory speed or less and fails them on any host.
//!
//! `--smoke` takes fewer samples and also checks (a) the parallel path is
//! bit-identical to the sequential one and (b) steady-state kernel
//! iterations perform zero heap allocations once the scratch arena is warm.
//! Failed checks exit nonzero with a one-line reason (no backtrace), and
//! every run writes its numbers to `results/bench_kernels.json` for the
//! regression gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use wp_bench::ci::{self, Report};
use wp_comm::transport::checksum_of;
use wp_nn::attention::{streaming_backward, streaming_forward, AttnDims};
use wp_nn::block::{block_backward_full, block_forward};
use wp_nn::config::ModelConfig;
use wp_nn::params::{init_block, BlockLayout};
use wp_nn::scratch::Scratch;
use wp_tensor::dtype::{pack_f16, unpack_f16};
use wp_tensor::ops::gemm::{self, Isa};
use wp_tensor::ops::{matmul_nn, matmul_nt, matmul_tn};
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

/// Wall time of one run of `f` on one core.
fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    rayon::force_sequential(f);
    t0.elapsed().as_secs_f64()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time of `reps` runs of `f` on one core.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    median((0..reps).map(|_| secs(&mut f)).collect())
}

/// Independent vector chains of the ceiling loop: FMA latency (4 cycles)
/// times two FMA ports, and some to spare, within AVX2's 16 registers.
const CHAINS: usize = 12;
/// Ceiling loop trips.
const ITERS: usize = 4_000_000;

/// The fused multiply-add ceiling of one core under the `gemm`
/// instantiation this host picks: `CHAINS` vectors of `x = fma(x, a, b)`,
/// two FLOPs per lane, all in registers.
struct Ceiling {
    isa: Isa,
    lanes: usize,
}

impl Ceiling {
    fn new() -> Self {
        let isa = gemm::isa();
        let lanes = match isa {
            Isa::Avx512Fma => 16,
            Isa::Avx2Fma => 8,
            Isa::Portable => 4,
        };
        Ceiling { isa, lanes }
    }

    /// GFLOP/s of one run of the loop.
    fn gflops(&self) -> f64 {
        let secs = secs(|| match self.isa {
            // SAFETY: `gemm::isa` only names an instantiation this CPU offers.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512Fma => unsafe { fma_chains_avx512() },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => unsafe { fma_chains_avx2() },
            _ => fma_chains::<{ CHAINS * 4 }>(),
        });
        (2 * CHAINS * self.lanes * ITERS) as f64 / secs / 1e9
    }

    /// A kernel's median GFLOP/s over `reps` runs of `f` (`gflop` each), and
    /// the median of its share of a ceiling run taken just before each: on a
    /// shared host a slow phase then lands on both sides of a share.
    fn rate_and_share(&self, reps: usize, gflop: f64, mut f: impl FnMut()) -> (f64, f64) {
        let (rates, shares) = (0..reps)
            .map(|_| {
                let peak = self.gflops();
                let rate = gflop / secs(&mut f);
                (rate, rate / peak)
            })
            .unzip();
        (median(rates), median(shares))
    }
}

/// The ceiling loop over `CHAINS` vectors of `LANES / CHAINS` lanes;
/// inlined into each wrapper below so it compiles for that wrapper's ISA,
/// as `gemm`'s body does.
#[inline(always)]
fn fma_chains<const LANES: usize>() {
    let mut acc = [1.0f32; LANES];
    let (a, b) = (black_box(0.999_999f32), black_box(1e-6f32));
    for _ in 0..ITERS {
        for x in acc.iter_mut() {
            *x = x.mul_add(a, b);
        }
    }
    black_box(acc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn fma_chains_avx512() {
    fma_chains::<{ CHAINS * 16 }>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2() {
    fma_chains::<{ CHAINS * 8 }>()
}

fn rand(n: usize, seed: u64) -> Vec<f32> {
    Tensor::rand_uniform([n], -0.5, 0.5, seed).into_vec()
}

/// The three layouts at `M = S` tokens, hidden `H`, FFN width `F`:
/// `2·M·H·F` FLOPs each. Returns `[nn, nt, tn]` as (GFLOP/s, ceiling share).
fn bench_matmul(cfg: &ModelConfig, seq: usize, peak: &Ceiling, reps: usize) -> [(f64, f64); 3] {
    let (m, h, f) = (seq, cfg.hidden, cfg.ffn);
    let (x, w, dy) = (rand(m * h, 1), rand(f * h, 2), rand(m * f, 3));
    let (mut y, mut dx, mut dw) = (
        vec![0.0f32; m * f],
        vec![0.0f32; m * h],
        vec![0.0f32; f * h],
    );
    let gflop = (2 * m * h * f) as f64 / 1e9;
    let nn = peak.rate_and_share(reps, gflop, || matmul_nn(&mut dx, &dy, &w, m, f, h));
    let nt = peak.rate_and_share(reps, gflop, || matmul_nt(&mut y, &x, &w, m, h, f));
    let tn = peak.rate_and_share(reps, gflop, || matmul_tn(&mut dw, &dy, &x, f, m, h));
    black_box((&y, &dx, &dw));
    [nn, nt, tn]
}

struct AttnData {
    dims: AttnDims,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    dout: Vec<f32>,
}

impl AttnData {
    fn new(cfg: &ModelConfig, seq: usize) -> Self {
        let dims = AttnDims::mha(1, seq, cfg.heads, cfg.head_dim());
        let n = seq * cfg.hidden;
        AttnData {
            dims,
            q: rand(n, 5),
            k: rand(n, 6),
            v: rand(n, 7),
            dout: rand(n, 8),
        }
    }
}

/// Causal attention: `QKᵀ` and `PV` over the lower triangle are `2·S²·H`
/// FLOPs forward; backward recomputes the scores and forms `dV`, `dP`, `dQ`
/// and `dK`, five such products. Returns `[fwd, bwd]` as (GFLOP/s, ceiling
/// share).
fn bench_attention(cfg: &ModelConfig, seq: usize, peak: &Ceiling, reps: usize) -> [(f64, f64); 2] {
    let d = AttnData::new(cfg, seq);
    let n = d.q.len();
    let sc = Scratch::new();
    let gflop = (seq * seq * cfg.hidden) as f64 / 1e9;
    let mut o = vec![0.0f32; n];
    let fwd = peak.rate_and_share(reps, 2.0 * gflop, || {
        streaming_forward(&mut o, &d.q, &d.k, &d.v, d.dims, &sc);
    });
    let ctx = streaming_forward(&mut o, &d.q, &d.k, &d.v, d.dims, &sc);
    let (mut dq, mut dk, mut dv) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
    let bwd = peak.rate_and_share(reps, 5.0 * gflop, || {
        streaming_backward(
            &mut dq, &mut dk, &mut dv, &d.dout, &d.q, &d.k, &d.v, &o, &ctx, d.dims, &sc,
        );
    });
    [fwd, bwd]
}

/// The wire path's per-byte kernels over one ring chunk of the repo
/// benchmark's `widecomm` workload (H256, 4 layers over 2 ranks), each in
/// GB/s of f32 bytes read or produced: `[copy, pack_f16, unpack_f16,
/// checksum]`, `copy` being `copy_from_slice` of the chunk.
fn bench_wire(reps: usize) -> [f64; 4] {
    let widecomm = ModelConfig::llama_like(256, 4, 4, 256, 64);
    let chunk = rand(widecomm.layers / 2 * BlockLayout::new(&widecomm).len(), 9);
    let mut floats = vec![0.0f32; chunk.len()];
    let mut halves = vec![0u16; chunk.len()];
    let copy = median_secs(reps, || floats.copy_from_slice(black_box(&chunk)));
    let pack = median_secs(reps, || pack_f16(&mut halves, black_box(&chunk)));
    let unpack = median_secs(reps, || unpack_f16(&mut floats, black_box(&halves)));
    let checksum = median_secs(reps, || {
        black_box(checksum_of(black_box(&chunk)));
    });
    black_box((&floats, &halves));
    [copy, pack, unpack, checksum].map(|secs| (chunk.len() * 4) as f64 / secs / 1e9)
}

/// Smoke check 1: the parallel dispatch must be bit-identical to the forced
/// sequential path for the same inputs.
fn check_bit_identity(cfg: &ModelConfig, seq: usize) -> Result<(), String> {
    let d = AttnData::new(cfg, seq);
    let n = d.q.len();
    let sc = Scratch::new();

    let run = |sc: &Scratch| {
        let mut o = vec![0.0f32; n];
        let ctx = streaming_forward(&mut o, &d.q, &d.k, &d.v, d.dims, sc);
        let (mut dq, mut dk, mut dv) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        streaming_backward(
            &mut dq, &mut dk, &mut dv, &d.dout, &d.q, &d.k, &d.v, &o, &ctx, d.dims, sc,
        );
        (o, dq, dk, dv)
    };
    let par = run(&sc);
    let seq_out = rayon::force_sequential(|| run(&sc));
    for (got, want, what) in [
        (&par.0, &seq_out.0, "forward"),
        (&par.1, &seq_out.1, "dq"),
        (&par.2, &seq_out.2, "dk"),
        (&par.3, &seq_out.3, "dv"),
    ] {
        if got != want {
            return Err(format!("attention {what} not bit-identical (S={seq})"));
        }
    }
    Ok(())
}

/// Run a 1×1 product on every pool thread, so each allocates its
/// thread-local matmul pack buffers before the allocation count starts:
/// `T` tasks that each wait for all `T` to have started can only be running
/// on `T` distinct threads.
fn warm_every_pool_thread() {
    let threads = rayon::current_num_threads();
    let all_started = Barrier::new(threads);
    rayon::par_indices(threads, |_| {
        all_started.wait();
        let mut c = [0.0f32];
        matmul_nn(&mut c, &[1.0], &[1.0], 1, 1, 1);
    });
}

/// Smoke check 2: once the scratch arena is warm, a full block
/// forward + backward iteration performs zero heap allocations. Returns
/// the allocation count of the measured iteration.
fn check_zero_alloc(cfg: &ModelConfig, seq: usize) -> (usize, Result<(), String>) {
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
    // Warm the pool's threads, then the arena with two iterations.
    warm_every_pool_thread();
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
    let reps = if smoke { 5 } else { 15 };
    // The repo benchmark's `longctx` shape.
    let seq = 1024;
    let cfg = ModelConfig::llama_like(128, 4, 1, 256, seq);
    println!(
        "# wp-bench kernels  (H={} F={} S={seq} heads={}, median of {reps}, one core; pool of {}, gemm {:?}, f16c {})",
        cfg.hidden,
        cfg.ffn,
        cfg.heads,
        rayon::current_num_threads(),
        gemm::isa(),
        wp_tensor::dtype::uses_f16c(),
    );
    let peak = Ceiling::new();
    let ceiling = median((0..reps).map(|_| peak.gflops()).collect());
    let matmul = bench_matmul(&cfg, seq, &peak, reps);
    let attn = bench_attention(&cfg, seq, &peak, reps);
    let share = |ks: &[(f64, f64)]| ks.iter().map(|k| k.1).fold(f64::INFINITY, f64::min);
    let (matmul_share, attn_share) = (share(&matmul), share(&attn));
    println!(
        "ceiling    fma {ceiling:>6.1} GFLOP/s  ({CHAINS} chains of {} lanes, {:?})",
        peak.lanes, peak.isa
    );
    println!(
        "matmul     nn {:>6.1}  nt {:>6.1}  tn {:>6.1} GFLOP/s   slowest / ceiling {matmul_share:.2}",
        matmul[0].0, matmul[1].0, matmul[2].0,
    );
    println!(
        "attention  fwd {:>5.1}  bwd {:>5.1} GFLOP/s              slower / ceiling {attn_share:.2}",
        attn[0].0, attn[1].0,
    );
    let wire = bench_wire(reps);
    let (pack_share, checksum_share) = (wire[1] / wire[0], wire[3] / wire[0]);
    println!(
        "wire       copy {:>5.1}  pack_f16 {:>5.1}  unpack_f16 {:>5.1}  checksum {:>5.1} GB/s   pack / copy {pack_share:.2}  checksum / copy {checksum_share:.2}",
        wire[0], wire[1], wire[2], wire[3],
    );
    let mut report = Report::new("kernels");
    report
        .metric("ceiling_gflops", ceiling)
        .metric("matmul_nn_gflops", matmul[0].0)
        .metric("matmul_nt_gflops", matmul[1].0)
        .metric("matmul_tn_gflops", matmul[2].0)
        .metric("attn_fwd_gflops", attn[0].0)
        .metric("attn_bwd_gflops", attn[1].0)
        .metric("matmul_ceiling_share", matmul_share)
        .metric("attn_ceiling_share", attn_share)
        .metric("copy_gbps", wire[0])
        .metric("pack_f16_gbps", wire[1])
        .metric("unpack_f16_gbps", wire[2])
        .metric("checksum_gbps", wire[3])
        .metric("pack_f16_copy_share", pack_share)
        .metric("checksum_copy_share", checksum_share);
    if smoke {
        ci::check(
            "kernels",
            "bit-identity: parallel == sequential (attention fwd+bwd, S=192)",
            check_bit_identity(&cfg, 192),
        );
        let (allocs, verdict) = check_zero_alloc(&cfg, 256);
        report.metric("warm_allocs", allocs as f64);
        ci::check(
            "kernels",
            "zero-alloc: warm block fwd+bwd iteration",
            verdict,
        );
    }
    match report.write(std::path::Path::new("results")) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => ci::fail("kernels", &e),
    }
}
