//! Model configuration.

use wp_tensor::ops::RopeTable;

/// Llama-style decoder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Hidden dimension `H`.
    pub hidden: usize,
    /// Attention (query) head count (paper fixes 32; tests use small values).
    pub heads: usize,
    /// Key/value head count: equal to `heads` for classic multi-head
    /// attention, smaller for grouped-query attention (must divide `heads`).
    pub kv_heads: usize,
    /// FFN inner dimension `F`. See [`ModelConfig::llama_ffn_dim`].
    pub ffn: usize,
    /// Number of transformer blocks `L`.
    pub layers: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Longest sequence the RoPE table covers.
    pub max_seq: usize,
    /// RMSNorm epsilon.
    pub eps: f32,
    /// RoPE base frequency.
    pub rope_theta: f32,
}

impl ModelConfig {
    /// The FFN width that makes one block's parameter count ≈ `12·H²`
    /// (the paper's Llama accounting: `4H²` attention + `8H²` FFN, i.e.
    /// three `H×F` matrices with `F = 8H/3`), rounded to a multiple of 8.
    pub fn llama_ffn_dim(hidden: usize) -> usize {
        let f = (8 * hidden).div_ceil(3);
        f.div_ceil(8) * 8
    }

    /// A paper-shaped config: `F = 8H/3`, RoPE θ = 10⁴, ε = 1e-5.
    pub fn llama_like(
        hidden: usize,
        heads: usize,
        layers: usize,
        vocab: usize,
        max_seq: usize,
    ) -> Self {
        assert!(
            hidden.is_multiple_of(heads),
            "hidden must divide evenly into heads"
        );
        assert!(
            (hidden / heads).is_multiple_of(2),
            "head_dim must be even for RoPE"
        );
        ModelConfig {
            hidden,
            heads,
            kv_heads: heads,
            ffn: Self::llama_ffn_dim(hidden),
            layers,
            vocab,
            max_seq,
            eps: 1e-5,
            rope_theta: 10000.0,
        }
    }

    /// A tiny config for tests: small everything, still structurally a
    /// Llama block.
    pub fn tiny(layers: usize) -> Self {
        let mut c = Self::llama_like(16, 2, layers, 11, 12);
        c.ffn = 24;
        c
    }

    /// Switch to grouped-query attention with `kv_heads` key/value heads.
    pub fn with_gqa(mut self, kv_heads: usize) -> Self {
        assert!(
            kv_heads >= 1 && self.heads.is_multiple_of(kv_heads),
            "kv_heads must divide heads"
        );
        self.kv_heads = kv_heads;
        self
    }

    /// Head dimension `H / heads`.
    #[inline]
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Width of the key/value projections (`kv_heads · head_dim`).
    #[inline]
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim()
    }

    /// Build the RoPE table this config needs.
    pub fn rope_table(&self) -> RopeTable {
        RopeTable::new(self.head_dim(), self.max_seq, self.rope_theta)
    }

    /// Parameters in one transformer block:
    /// `2H² + 2·kv_dim·H + 3HF + 2H` (the paper's `12H²` for MHA).
    pub fn block_params(&self) -> usize {
        2 * self.hidden * self.hidden
            + 2 * self.kv_dim() * self.hidden
            + 3 * self.hidden * self.ffn
            + 2 * self.hidden
    }

    /// Parameters in the embedding table.
    pub fn embed_params(&self) -> usize {
        self.vocab * self.hidden
    }

    /// Parameters in the output head (final norm gain + projection).
    pub fn head_params(&self) -> usize {
        self.hidden + self.vocab * self.hidden
    }

    /// Total model parameters.
    pub fn total_params(&self) -> usize {
        self.embed_params() + self.layers * self.block_params() + self.head_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama_ffn_near_8h_over_3() {
        let f = ModelConfig::llama_ffn_dim(4096);
        assert!(f.is_multiple_of(8));
        let ratio = f as f64 / 4096.0;
        assert!((ratio - 8.0 / 3.0).abs() < 0.01, "F/H = {ratio}");
    }

    #[test]
    fn block_params_close_to_12h2() {
        let c = ModelConfig::llama_like(1024, 32, 32, 32000, 4096);
        let p = c.block_params() as f64;
        let twelve_h2 = 12.0 * 1024.0 * 1024.0;
        assert!(
            (p / twelve_h2 - 1.0).abs() < 0.02,
            "block params {p} vs 12H² {twelve_h2}"
        );
    }

    #[test]
    fn paper_model_sizes() {
        // Paper: H∈{1024,2048,4096}, 32 layers, models 384M–6.1B.
        let small = ModelConfig::llama_like(1024, 32, 32, 32000, 16384);
        let big = ModelConfig::llama_like(4096, 32, 32, 32000, 16384);
        let sp = small.total_params();
        let bp = big.total_params();
        assert!(sp > 300_000_000 && sp < 600_000_000, "H=1024 params {sp}");
        assert!(
            bp > 5_000_000_000 && bp < 8_000_000_000,
            "H=4096 params {bp}"
        );
    }

    #[test]
    fn tiny_is_consistent() {
        let c = ModelConfig::tiny(2);
        assert_eq!(c.head_dim(), 8);
        assert!(c.total_params() > 0);
        let rope = c.rope_table();
        assert_eq!(rope.head_dim(), 8);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_heads_rejected() {
        ModelConfig::llama_like(10, 3, 1, 7, 8);
    }
}
