//! Seeded random vectors: the workspace's weight initialisation and test
//! inputs. Every rank of a distributed job materialises identical weights
//! from a seed without communicating.

use rand::distr::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded random `f32` vector of `shape[0]` elements; take the buffer
/// with [`Tensor::into_vec`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor(Vec<f32>);

impl Tensor {
    /// Deterministic N(0, std²) values from a seed (Box–Muller over a
    /// seeded PRNG).
    pub fn randn(shape: [usize; 1], std: f32, seed: u64) -> Self {
        let [n] = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let unif = Uniform::new(f32::EPSILON, 1.0f32).expect("valid range");
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = unif.sample(&mut rng);
            let u2: f32 = unif.sample(&mut rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor(data)
    }

    /// Deterministic uniform values in `[lo, hi)` from a seed.
    pub fn rand_uniform(shape: [usize; 1], lo: f32, hi: f32, seed: u64) -> Self {
        let [n] = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let unif = Uniform::new(lo, hi).expect("valid range");
        Tensor((0..n).map(|_| unif.sample(&mut rng)).collect())
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_is_deterministic_and_normal_ish() {
        let a = Tensor::randn([1000], 1.0, 42);
        assert_eq!(a, Tensor::randn([1000], 1.0, 42), "same seed, same values");
        assert_ne!(a, Tensor::randn([1000], 1.0, 43), "different seeds differ");
        let a = a.into_vec();
        let mean = a.iter().sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.15, "mean {mean} too far from 0");
        let var: f32 = a.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 999.0;
        assert!((var - 1.0).abs() < 0.2, "variance {var} too far from 1");
    }
}
