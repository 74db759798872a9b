//! Rotary positional embeddings (RoPE), as used by Llama.
//!
//! Each attention head's feature vector of width `d` is treated as `d/2`
//! complex pairs `(x[2i], x[2i+1])`; position `p` rotates pair `i` by angle
//! `p · θ^(−2i/d)`. The rotation is orthogonal, so the backward pass is the
//! forward rotation with the angle negated.

/// Precomputed cos/sin tables for all (position, pair) combinations.
#[derive(Debug, Clone)]
pub struct RopeTable {
    /// `cos[p * (d/2) + i]`
    cos: Vec<f32>,
    /// `sin[p * (d/2) + i]`
    sin: Vec<f32>,
    head_dim: usize,
    max_pos: usize,
}

impl RopeTable {
    /// Build tables for positions `0..max_pos` and an (even) head dimension.
    pub fn new(head_dim: usize, max_pos: usize, theta: f32) -> Self {
        assert!(head_dim.is_multiple_of(2), "RoPE head_dim must be even");
        let half = head_dim / 2;
        let mut cos = Vec::with_capacity(max_pos * half);
        let mut sin = Vec::with_capacity(max_pos * half);
        for p in 0..max_pos {
            for i in 0..half {
                let freq = 1.0 / theta.powf(2.0 * i as f32 / head_dim as f32);
                let angle = p as f32 * freq;
                cos.push(angle.cos());
                sin.push(angle.sin());
            }
        }
        RopeTable {
            cos,
            sin,
            head_dim,
            max_pos,
        }
    }

    /// Head dimension the table was built for.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Number of positions covered.
    pub fn max_pos(&self) -> usize {
        self.max_pos
    }

    /// Rotate one head vector `x` (length `head_dim`) in place for position
    /// `pos`. `dir = +1` applies the forward rotation, `dir = -1` the inverse
    /// (used by the backward pass).
    #[inline]
    pub fn rotate(&self, x: &mut [f32], pos: usize, dir: f32) {
        debug_assert_eq!(x.len(), self.head_dim);
        debug_assert!(pos < self.max_pos, "position {pos} beyond table");
        let half = self.head_dim / 2;
        let base = pos * half;
        for i in 0..half {
            let c = self.cos[base + i];
            let s = self.sin[base + i] * dir;
            let a = x[2 * i];
            let b = x[2 * i + 1];
            x[2 * i] = a * c - b * s;
            x[2 * i + 1] = a * s + b * c;
        }
    }

    /// Apply RoPE to a `[seq, heads, head_dim]` buffer in place (forward).
    pub fn apply_forward(&self, x: &mut [f32], seq: usize, heads: usize) {
        self.apply(x, seq, heads, 1.0);
    }

    /// Apply the inverse rotation (backward pass for gradients).
    pub fn apply_backward(&self, x: &mut [f32], seq: usize, heads: usize) {
        self.apply(x, seq, heads, -1.0);
    }

    fn apply(&self, x: &mut [f32], seq: usize, heads: usize, dir: f32) {
        assert_eq!(x.len(), seq * heads * self.head_dim);
        let stride = heads * self.head_dim;
        let one_pos = |row: &mut [f32], p: usize| {
            for h in 0..heads {
                let o = h * self.head_dim;
                self.rotate(&mut row[o..o + self.head_dim], p, dir);
            }
        };
        // Positions are independent: split the sequence across the pool.
        let xp = super::par::RawMut(x.as_mut_ptr());
        super::par::par_row_bands(seq, x.len(), move |p0, p1| {
            for p in p0..p1 {
                one_pos(unsafe { xp.slice(p * stride, stride) }, p);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn position_zero_is_identity() {
        let table = RopeTable::new(8, 4, 10000.0);
        let mut x: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let orig = x.clone();
        table.rotate(&mut x, 0, 1.0);
        assert_eq!(x, orig);
    }

    #[test]
    fn rotation_preserves_norm() {
        let table = RopeTable::new(16, 64, 10000.0);
        let x0 = Tensor::randn([16], 1.0, 31).into_vec();
        for pos in [1usize, 7, 63] {
            let mut x = x0.clone();
            table.rotate(&mut x, pos, 1.0);
            let n0: f32 = x0.iter().map(|v| v * v).sum();
            let n1: f32 = x.iter().map(|v| v * v).sum();
            assert!((n0 - n1).abs() < 1e-4, "norm changed at pos {pos}");
        }
    }

    #[test]
    fn backward_inverts_forward() {
        let table = RopeTable::new(8, 32, 10000.0);
        let x0 = Tensor::randn([4 * 2 * 8], 1.0, 32).into_vec();
        let mut x = x0.clone();
        table.apply_forward(&mut x, 4, 2);
        table.apply_backward(&mut x, 4, 2);
        for (a, b) in x.iter().zip(&x0) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn relative_position_property() {
        // RoPE's defining property: <rot_p(q), rot_k(k)> depends only on p−k.
        let d = 8;
        let table = RopeTable::new(d, 64, 10000.0);
        let q0 = Tensor::randn([d], 1.0, 33).into_vec();
        let k0 = Tensor::randn([d], 1.0, 34).into_vec();
        let dot_at = |p: usize, k: usize| -> f32 {
            let mut q = q0.clone();
            let mut kk = k0.clone();
            table.rotate(&mut q, p, 1.0);
            table.rotate(&mut kk, k, 1.0);
            q.iter().zip(&kk).map(|(a, b)| a * b).sum()
        };
        let d1 = dot_at(5, 2);
        let d2 = dot_at(13, 10);
        let d3 = dot_at(40, 37);
        assert!(
            (d1 - d2).abs() < 1e-3 && (d2 - d3).abs() < 1e-3,
            "{d1} {d2} {d3}"
        );
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_head_dim_rejected() {
        RopeTable::new(7, 4, 10000.0);
    }
}
