//! Kernel microbenchmark: absolute single-core throughput of the hot
//! kernels against this host's multiply-add ceiling.
//!
//! Times the three matmul layouts at the shapes the block's FFN gives them
//! and streaming attention forward/backward, all at the repo benchmark's
//! `longctx` shape (H128, S1024, 4 heads), on one core (`force_sequential`),
//! and prints GFLOP/s beside an in-process ceiling: independent fused
//! multiply-add chains held in registers, run through `gemm::with_isa` so
//! they compile for the `gemm` instantiation this host picks, with enough
//! vector chains to cover FMA latency on two ports. The header's `f16c` is
//! whether `pack_f16` / `unpack_f16` run F16C: on any tier but the portable.
//! `matmul_ceiling_share` and `attn_ceiling_share` — the slowest layout and
//! the slower attention direction as a share of that ceiling — have floors
//! in [`FLOORS`], so a kernel that silently falls back to a narrower build
//! (an AVX-512 host running the AVX2 one, or a callee that escaped the
//! wrapper and runs baseline code) fails the run.
//!
//! The pointwise and per-byte kernels get the same treatment against a
//! different ceiling, an in-process `copy_from_slice` of as many floats:
//! SwiGLU forward + in-place backward at the same shape's FFN activation
//! (S × F), as a block runs them, and `pack_f16`, `unpack_f16` and the
//! frame checksum over one `widecomm` ring chunk (1.58 M elements), the
//! last three in GB/s of f32 bytes.
//! `swiglu_copy_share`, `pack_f16_copy_share` and `checksum_copy_share` have
//! floors too: a libm `exp` per element, a SwiGLU body left outside the
//! ISA wrapper, a scalar converter or a byte-at-a-time hash fails them.
//!
//! Every run checks every floor right after measuring and prints each with
//! its value; one below its floor exits 1 with one
//! `wp-bench kernels: FAIL: …` line per violated bound. `--smoke` only takes
//! fewer samples. That the parallel kernels are bit-identical to the
//! sequential ones and that a warm block iteration allocates nothing are
//! facts, not measurements: tests in `wp-nn` and `wp-tensor` hold them.

use std::hint::black_box;
use std::time::Instant;

use wp_bench::has_flag;
use wp_comm::transport::checksum_of;
use wp_nn::attention::{streaming_backward, streaming_forward, AttnDims};
use wp_nn::config::ModelConfig;
use wp_nn::params::BlockLayout;
use wp_nn::scratch::Scratch;
use wp_tensor::dtype::{pack_f16, unpack_f16};
use wp_tensor::ops::gemm::{self, Isa};
use wp_tensor::ops::par;
use wp_tensor::ops::{matmul_nn, matmul_nt, matmul_tn, swiglu_backward_in_place, swiglu_forward};
use wp_tensor::Tensor;

/// Wall time of one run of `f` on one core.
fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    par::force_sequential(f);
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

/// What a run must reach, as `(bound, floor)`, in the order `main` measures
/// the shares. The kernel and SwiGLU floors are 0.8 × the lowest of ten
/// runs on the AVX-512 reference host, raised only when a later ten-run
/// minimum (`results/kernels.txt`) puts 0.8 × it above them; there its AVX2
/// build (matmul 0.25–0.34) and pointwise bodies left outside the ISA
/// wrapper (SwiGLU 0.07) fail them. The wire floors sit far above a scalar
/// loop's 0.06.
const FLOORS: [(&str, f64); 5] = [
    ("kernels.matmul_ceiling_share", 0.36),
    ("kernels.attn_ceiling_share", 0.21),
    ("kernels.swiglu_copy_share", 0.12),
    ("kernels.pack_f16_copy_share", 0.6),
    ("kernels.checksum_copy_share", 0.6),
];

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
        let secs = secs(|| {
            gemm::with_isa(
                #[inline(always)]
                || match self.isa {
                    Isa::Avx512Fma => fma_chains::<{ CHAINS * 16 }>(),
                    Isa::Avx2Fma => fma_chains::<{ CHAINS * 8 }>(),
                    Isa::Portable => fma_chains::<{ CHAINS * 4 }>(),
                },
            )
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
/// inlined into `with_isa`'s wrapper so it compiles for that wrapper's ISA,
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

/// SwiGLU forward then its in-place backward over one `S × F` FFN
/// activation, as a block runs them, and a `copy_from_slice` of as many
/// floats: `(swiglu, copy)` median seconds. Each sample starts from fresh
/// copies of `gate` and `up`, made outside the timed region.
fn bench_swiglu(cfg: &ModelConfig, seq: usize, reps: usize) -> (f64, f64) {
    let n = seq * cfg.ffn;
    let (gate, up, dy) = (rand(n, 10), rand(n, 11), rand(n, 12));
    let (mut out, mut g, mut u) = (vec![0.0f32; n], gate.clone(), up.clone());
    let samples = (0..reps).map(|_| {
        g.copy_from_slice(&gate);
        u.copy_from_slice(&up);
        secs(|| {
            swiglu_forward(&mut out, black_box(&g), black_box(&u));
            swiglu_backward_in_place(&mut g, &mut u, black_box(&dy));
        })
    });
    let swiglu = median(samples.collect());
    let copy = median_secs(reps, || out.copy_from_slice(black_box(&gate)));
    black_box((&out, &g, &u));
    (swiglu, copy)
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

fn main() {
    let reps = if has_flag("--smoke") { 5 } else { 15 };
    // The repo benchmark's `longctx` shape.
    let seq = 1024;
    let cfg = ModelConfig::llama_like(128, 4, 1, 256, seq);
    println!(
        "# wp-bench kernels  (H={} F={} S={seq} heads={}, median of {reps}, one core; pool of {}, gemm {:?}, f16c {})",
        cfg.hidden,
        cfg.ffn,
        cfg.heads,
        par::current_num_threads(),
        gemm::isa(),
        gemm::isa() != Isa::Portable,
    );
    let peak = Ceiling::new();
    let ceiling = median((0..reps).map(|_| peak.gflops()).collect());
    let matmul = bench_matmul(&cfg, seq, &peak, reps);
    let attn = bench_attention(&cfg, seq, &peak, reps);
    let (swiglu, swiglu_copy) = bench_swiglu(&cfg, seq, reps);
    let share = |ks: &[(f64, f64)]| ks.iter().map(|k| k.1).fold(f64::INFINITY, f64::min);
    let (matmul_share, attn_share) = (share(&matmul), share(&attn));
    let swiglu_share = swiglu_copy / swiglu;
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
    println!(
        "swiglu     fwd+bwd {:>5.3} ms  copy {:>5.3} ms                   copy / swiglu {swiglu_share:.2}",
        swiglu * 1e3,
        swiglu_copy * 1e3,
    );
    let wire = bench_wire(reps);
    let (pack_share, checksum_share) = (wire[1] / wire[0], wire[3] / wire[0]);
    println!(
        "wire       copy {:>5.1}  pack_f16 {:>5.1}  unpack_f16 {:>5.1}  checksum {:>5.1} GB/s   pack / copy {pack_share:.2}  checksum / copy {checksum_share:.2}",
        wire[0], wire[1], wire[2], wire[3],
    );
    let shares = [
        matmul_share,
        attn_share,
        swiglu_share,
        pack_share,
        checksum_share,
    ];
    let mut violated = false;
    for ((bound, floor), value) in FLOORS.into_iter().zip(shares) {
        println!("bound      {bound} {value:.3}  (floor {floor})");
        if value < floor {
            eprintln!("wp-bench kernels: FAIL: {bound} = {value:.3} is below its floor {floor}");
            violated = true;
        }
    }
    if violated {
        std::process::exit(1);
    }
}
