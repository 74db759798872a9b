//! The cost model: maps schedule ops to seconds and bytes for a concrete
//! (model, batch, hardware) configuration.
//!
//! Conventions, matching the paper's evaluation setup (§5):
//!
//! * Only the `L` transformer layers are modelled. The paper never states a
//!   vocabulary size and its model configs are `(H, S, G, layers, heads)`
//!   only, so embedding/head cost is excluded — as in most pipeline
//!   scheduling studies. (The thread runtime *does* train embed/head; this
//!   is a measurement scope choice, not a correctness one.)
//! * FLOPs per layer per microbatch (forward):
//!   attention projections `8·G·S·H²`, causal attention `2·G·S²·H`
//!   (half of the dense `4·G·S²·H`), SwiGLU FFN `6·G·S·H·F`.
//! * The fused backward costs 2× forward (the paper's `T_B ≈ 2·T_F`);
//!   the split *B pass* costs 1× forward plus the attention recompute term,
//!   and the *W pass* the remaining ~1× of linear-layer work.
//!   Recomputation adds one forward to the fused backward.
//! * Wire format is fp16 (2 bytes) for weights, weight grads and
//!   activations; bf16 (2 bytes) for activation grads (§4.3).

use wp_sched::{MemUnit, Schedule};

/// Accelerator characteristics.
#[derive(Debug, Clone, Copy)]
pub struct GpuSpec {
    /// Peak half-precision throughput, FLOP/s.
    pub peak_flops: f64,
    /// Device memory, bytes.
    pub mem_bytes: u64,
    /// Model FLOPs utilisation actually achieved (calibration constant).
    pub mfu: f64,
}

impl GpuSpec {
    /// NVIDIA A800: 312 TFLOP/s fp16/bf16 tensor cores, 80 GB HBM (§5.4).
    pub const fn a800() -> Self {
        GpuSpec {
            peak_flops: 312e12,
            mem_bytes: 80 * (1 << 30),
            mfu: 0.42,
        }
    }
}

/// Model + batch dimensions the simulator needs.
#[derive(Debug, Clone, Copy)]
pub struct ModelDims {
    /// Hidden size `H`.
    pub hidden: usize,
    /// FFN inner size `F` (≈ `8H/3` for Llama accounting).
    pub ffn: usize,
    /// Total transformer layers `L`.
    pub layers: usize,
    /// Attention heads (paper fixes 32).
    pub heads: usize,
    /// Sequence length `S`.
    pub seq: usize,
    /// Microbatch size `G`.
    pub microbatch: usize,
}

impl ModelDims {
    /// Paper-shaped dims: `F` = `8H/3` rounded to 8, 32 heads.
    pub fn paper(hidden: usize, layers: usize, seq: usize, microbatch: usize) -> Self {
        let f = (8 * hidden).div_ceil(3).div_ceil(8) * 8;
        ModelDims {
            hidden,
            ffn: f,
            layers,
            heads: 32,
            seq,
            microbatch,
        }
    }

    /// Parameters in one layer (`4H² + 3HF + 2H ≈ 12H²`).
    pub fn layer_params(&self) -> u64 {
        (4 * self.hidden * self.hidden + 3 * self.hidden * self.ffn + 2 * self.hidden) as u64
    }
}

/// Tensor-parallel overlay (our exploration of the paper's §7.3 future
/// work: "Interaction with Tensor Parallelism … is not explored").
///
/// Each pipeline rank becomes a TP group of `degree` GPUs: layer matmuls
/// shard `degree`-ways (Megatron column/row parallelism), each shard holds
/// `1/degree` of every weight chunk (so the circulating WeiPipe messages
/// shrink by the same factor, one ring per shard), and every layer pays
/// 2 activation all-reduces forward + 2 backward inside the TP group.
#[derive(Debug, Clone, Copy)]
pub struct TpOverlay {
    /// GPUs per tensor-parallel group (1 = disabled).
    pub degree: usize,
    /// Link inside the TP group (TP is intra-node by construction).
    pub link: crate::cluster::Link,
    /// Efficiency of the sharded matmuls relative to ideal `1/degree`
    /// scaling (thin-kernel losses).
    pub efficiency: f64,
}

impl TpOverlay {
    /// TP disabled.
    pub fn off() -> Self {
        TpOverlay {
            degree: 1,
            link: crate::cluster::Link::nvlink_a800(),
            efficiency: 1.0,
        }
    }

    /// `degree`-way TP over NVLink.
    pub fn nvlink(degree: usize) -> Self {
        TpOverlay {
            degree,
            link: crate::cluster::Link::nvlink_a800(),
            efficiency: 0.92,
        }
    }

    /// Ring all-reduce time of `bytes` within the TP group.
    fn all_reduce_s(&self, bytes: u64) -> f64 {
        if self.degree <= 1 {
            return 0.0;
        }
        let d = self.degree as f64;
        2.0 * (d - 1.0) * (bytes as f64 / d / self.link.bandwidth + self.link.latency)
    }
}

/// Everything needed to price one op.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Model and batch dimensions.
    pub dims: ModelDims,
    /// Accelerator.
    pub gpu: GpuSpec,
    /// Chunks the schedule divides the model into (usually `P`).
    pub chunks: usize,
    /// Whether activation checkpointing is on (recompute inside backward).
    pub recompute: bool,
    /// Whether attention uses the streaming (FlashAttention-style) kernel;
    /// turns the saved attention state from `O(S²)` into `O(S)`.
    pub flash_attention: bool,
    /// Tensor-parallel overlay inside each pipeline rank.
    pub tp: TpOverlay,
}

impl CostModel {
    /// Model for a schedule (takes `chunks` and `recompute` from it).
    pub fn for_schedule(dims: ModelDims, gpu: GpuSpec, s: &Schedule) -> Self {
        CostModel {
            dims,
            gpu,
            chunks: s.chunks,
            recompute: s.recompute,
            flash_attention: true,
            tp: TpOverlay::off(),
        }
    }

    /// The same model with a TP overlay.
    pub fn with_tp(mut self, tp: TpOverlay) -> Self {
        self.tp = tp;
        self
    }

    /// Exposed TP all-reduce time per layer per direction (2 all-reduces of
    /// the `G·S·H` activations — Megatron column/row pairs).
    fn tp_layer_comm_s(&self) -> f64 {
        let bytes = (self.dims.microbatch * self.dims.seq * self.dims.hidden) as u64 * 2;
        2.0 * self.tp.all_reduce_s(bytes)
    }

    /// Layers per chunk (the circulation / stage unit).
    pub fn layers_per_chunk(&self) -> usize {
        self.dims.layers.div_ceil(self.chunks)
    }

    // ---- FLOPs ------------------------------------------------------------

    /// Forward FLOPs of one layer for one microbatch, split into
    /// (linear, attention) parts.
    fn layer_fwd_flops(&self) -> (f64, f64) {
        let d = &self.dims;
        let g = d.microbatch as f64;
        let s = d.seq as f64;
        let h = d.hidden as f64;
        let f = d.ffn as f64;
        let linear = 8.0 * g * s * h * h + 6.0 * g * s * h * f;
        let attn = 2.0 * g * s * s * h; // causal: half of 4·G·S²·H
        (linear, attn)
    }

    /// Effective FLOP/s: peak × MFU × a kernel-efficiency factor in the
    /// microbatch token count `G·S`. Small microbatches launch thin kernels
    /// that cannot saturate the tensor cores — the reason the paper's ZB
    /// baselines (forced to `G ∈ {1, 4}` by memory) lose ground despite
    /// skipping recomputation (§6.1).
    fn eff_flops(&self) -> f64 {
        let gs = (self.dims.microbatch * self.dims.seq) as f64;
        let eff = gs / (gs + 8192.0);
        let tp_scale = self.tp.degree as f64 * self.tp.efficiency;
        self.gpu.peak_flops * self.gpu.mfu * eff * tp_scale
    }

    fn secs(&self, flops: f64) -> f64 {
        flops / self.eff_flops()
    }

    /// Duration of a forward op over one chunk (includes the exposed TP
    /// all-reduces when a TP overlay is active).
    pub fn t_fwd(&self) -> f64 {
        let (lin, attn) = self.layer_fwd_flops();
        self.secs((lin + attn) * self.layers_per_chunk() as f64)
            + self.tp_layer_comm_s() * self.layers_per_chunk() as f64
    }

    /// Duration of a fused backward op over one chunk (2× forward; +1×
    /// forward when checkpointing recomputes).
    pub fn t_bwd_full(&self) -> f64 {
        let re = if self.recompute { self.t_fwd() } else { 0.0 };
        2.0 * self.t_fwd() + re
    }

    /// GPUs per pipeline rank (1 without TP).
    pub fn gpus_per_rank(&self) -> usize {
        self.tp.degree
    }

    /// Duration of a split *B pass* (data gradients ≈ 1× forward; attention
    /// backward recompute of score rows included).
    pub fn t_bwd_data(&self) -> f64 {
        let (lin, attn) = self.layer_fwd_flops();
        // dX for every linear ≈ the forward linear FLOPs; attention backward
        // recomputes rows and forms three gradient products ≈ 2× fwd attn.
        self.secs((lin + 2.0 * attn) * self.layers_per_chunk() as f64)
    }

    /// Duration of a split *W pass* (`dW = dYᵀ·X` per linear; no attention
    /// term).
    pub fn t_bwd_weight(&self) -> f64 {
        let (lin, _) = self.layer_fwd_flops();
        self.secs(lin * self.layers_per_chunk() as f64)
    }

    /// Duration of an optimizer update for one chunk (bandwidth-bound sweep
    /// over parameters; ~20 B touched per parameter at ~1.5 TB/s HBM).
    pub fn t_update(&self) -> f64 {
        let params = self.layer_params_per_chunk() as f64;
        params * 20.0 / 1.5e12
    }

    // ---- Bytes ------------------------------------------------------------

    /// Parameters in one chunk.
    pub fn layer_params_per_chunk(&self) -> u64 {
        self.dims.layer_params() * self.layers_per_chunk() as u64
    }

    /// Wire bytes of one weight chunk (fp16). With a TP overlay each shard
    /// circulates only its `1/degree` slice (one ring per shard).
    pub fn weight_chunk_bytes(&self) -> u64 {
        self.layer_params_per_chunk() * 2 / self.tp.degree as u64
    }

    /// Wire bytes of one gradient chunk (fp16).
    pub fn grad_chunk_bytes(&self) -> u64 {
        self.layer_params_per_chunk() * 2 / self.tp.degree as u64
    }

    /// Wire bytes of one microbatch's boundary activations (fp16 `G·S·H`).
    pub fn act_boundary_bytes(&self) -> u64 {
        (self.dims.microbatch * self.dims.seq * self.dims.hidden) as u64 * 2
    }

    /// Wire bytes of boundary activation gradients (bf16, same count).
    pub fn act_grad_boundary_bytes(&self) -> u64 {
        self.act_boundary_bytes()
    }

    /// Byte model for `wp_sched::analysis`.
    pub fn byte_model(&self) -> wp_sched::analysis::ByteModel {
        wp_sched::analysis::ByteModel {
            weight_chunk: self.weight_chunk_bytes(),
            grad_chunk: self.grad_chunk_bytes(),
            act_boundary: self.act_boundary_bytes(),
            act_grad_boundary: self.act_grad_boundary_bytes(),
        }
    }

    // ---- Memory -----------------------------------------------------------

    /// Bytes of one symbolic memory unit.
    pub fn mem_unit_bytes(&self, unit: MemUnit) -> u64 {
        let d = &self.dims;
        let g = d.microbatch as u64;
        let s = d.seq as u64;
        let h = d.hidden as u64;
        let f = d.ffn as u64;
        let tokens = g * s;
        let per_layer_saved = {
            // BlockCtx: x, x1, q, k, v, attn_o, x2, x3 (8·GSH) + gate, up,
            // hg (3·GSF) + attention state.
            let attn_state = if self.flash_attention {
                g * s * d.heads as u64 // per-row LSE
            } else {
                g * d.heads as u64 * s * s // full probability matrix
            };
            8 * tokens * h + 3 * tokens * f + attn_state
        };
        let lpc = self.layers_per_chunk() as u64;
        match unit {
            // Stored in fp16 (2 B/elem).
            MemUnit::FwdCtx => per_layer_saved * lpc * 2,
            MemUnit::CkptInput => tokens * h * 2,
            // BPassCtx: 5·GSH + 2·GSF in bf16.
            MemUnit::BCtx => (5 * tokens * h + 2 * tokens * f) * lpc * 2,
            MemUnit::ActBoundary => tokens * h * 2,
            MemUnit::ActGradBoundary => tokens * h * 2,
            // Beyond what a rank holds throughout (`static_mem_bytes`).
            MemUnit::WeightChunk => self.weight_chunk_bytes(),
            MemUnit::GradChunk => self.grad_chunk_bytes(),
        }
    }

    /// Transient bytes a checkpointed backward materialises: the full
    /// forward ctx of the chunk exists between the recompute and the end of
    /// the backward. Charged by the engine for the duration of `BwdFull`
    /// ops when `recompute` is on.
    pub fn recompute_transient_bytes(&self) -> u64 {
        let saved = self.mem_unit_bytes(MemUnit::FwdCtx);
        // The ckpt input itself is already charged; avoid double counting.
        saved.saturating_sub(self.mem_unit_bytes(MemUnit::CkptInput))
    }

    /// Constant per-rank overhead: CUDA context, cuBLAS/cuDNN workspaces,
    /// allocator fragmentation — the floor under every measured column of
    /// the paper's Table 2.
    pub const FRAMEWORK_OVERHEAD_BYTES: u64 = 2 * (1 << 30);

    /// What `rank` holds for the whole iteration under `s` — weight copies,
    /// gradient accumulators, optimizer state (fp32 master + Adam moments =
    /// 12 B/param), all counted by [`wp_sched::analysis::resident`] — plus
    /// the framework floor. Everything transient is an op's `MemUnit` delta.
    pub fn static_mem_bytes(&self, s: &Schedule, rank: usize) -> u64 {
        let held = wp_sched::analysis::resident(s, rank);
        let slices = held.weights * self.weight_chunk_bytes()
            + held.grads * self.grad_chunk_bytes()
            + held.optimizer * self.layer_params_per_chunk() * 12;
        Self::FRAMEWORK_OVERHEAD_BYTES + slices / s.ranks as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_sched::Strategy;

    fn dims() -> ModelDims {
        ModelDims::paper(1024, 32, 4096, 16)
    }

    fn cm(recompute: bool) -> CostModel {
        CostModel {
            dims: dims(),
            gpu: GpuSpec::a800(),
            chunks: 16,
            recompute,
            flash_attention: true,
            tp: TpOverlay::off(),
        }
    }

    #[test]
    fn backward_costs_twice_forward() {
        let c = cm(false);
        assert!((c.t_bwd_full() / c.t_fwd() - 2.0).abs() < 1e-9);
        let cr = cm(true);
        assert!((cr.t_bwd_full() / cr.t_fwd() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn split_backward_sums_to_full() {
        // B + W ≈ 2×F up to the attention-recompute term.
        let c = cm(false);
        let sum = c.t_bwd_data() + c.t_bwd_weight();
        assert!(
            sum >= c.t_bwd_full() * 0.95 && sum <= c.t_bwd_full() * 1.4,
            "{sum}"
        );
    }

    #[test]
    fn weight_bytes_match_12h2_accounting() {
        let c = cm(true);
        // One layer ≈ 12H² params → chunk (2 layers) ≈ 24H² × 2 B.
        let expect = 24.0 * 1024.0 * 1024.0 * 2.0;
        let got = c.weight_chunk_bytes() as f64;
        assert!(
            (got / expect - 1.0).abs() < 0.05,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn crossover_visible_in_bytes() {
        // H=1024, S=4096, G=16: activations per boundary ≫ weight chunk /
        // layers… the paper's regime where WeiPipe wins.
        let c = cm(true);
        let act = c.act_boundary_bytes() as f64;
        let w_per_layer = (c.dims.layer_params() * 2) as f64;
        assert!(act / w_per_layer > 5.0, "ratio {}", act / w_per_layer);
    }

    #[test]
    fn flash_attention_shrinks_ctx() {
        let mut c = cm(false);
        let with = c.mem_unit_bytes(MemUnit::FwdCtx);
        c.flash_attention = false;
        let without = c.mem_unit_bytes(MemUnit::FwdCtx);
        assert!(
            without > 4 * with,
            "naive attention must dominate ctx memory"
        );
    }

    #[test]
    fn ckpt_input_much_smaller_than_full_ctx() {
        let c = cm(true);
        assert!(c.mem_unit_bytes(MemUnit::FwdCtx) > 8 * c.mem_unit_bytes(MemUnit::CkptInput));
    }

    #[test]
    fn static_memory_orderings() {
        let c = cm(true);
        let p = 16;
        let held = |strategy, rank| {
            let s = wp_sched::build(strategy, wp_sched::PipelineSpec::new(p, p));
            c.static_mem_bytes(&s, rank)
        };
        let ddp = held(Strategy::Ddp, 0);
        let fsdp = held(Strategy::Fsdp, 0);
        let pp = held(Strategy::OneFOneB, 0);
        let wp = held(Strategy::WeiPipeInterleave, 0);
        assert!(ddp > fsdp, "DDP replicates everything");
        assert!(wp > pp, "WeiPipe carries extra circulating copies");
        assert!(wp < ddp);
        // WZB2 skews: last rank holds all optimizer state.
        assert!(held(Strategy::Wzb2, p - 1) > 2 * held(Strategy::Wzb2, 3));
    }

    #[test]
    fn tp_overlay_scales_compute_and_shrinks_messages() {
        let base = cm(false);
        let tp = base.with_tp(TpOverlay::nvlink(4));
        // Compute per op shrinks (4-way sharding beats the all-reduce cost
        // at NVLink speeds)…
        assert!(tp.t_fwd() < base.t_fwd());
        // …but not by the full 4× (efficiency + exposed all-reduces).
        assert!(tp.t_fwd() > base.t_fwd() / 4.0);
        // Each shard ring carries 1/4 of the weights.
        assert_eq!(tp.weight_chunk_bytes(), base.weight_chunk_bytes() / 4);
        assert_eq!(tp.gpus_per_rank(), 4);
    }

    #[test]
    fn update_time_is_small_but_positive() {
        let c = cm(true);
        assert!(c.t_update() > 0.0);
        assert!(c.t_update() < c.t_fwd());
    }
}
