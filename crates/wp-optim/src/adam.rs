//! Adam / AdamW with bias correction.
//!
//! State (`m`, `v`) is kept in f32 — the paper stores optimizer state in
//! fp32 distributed across workers (§4.3); in WeiPipe each worker holds the
//! state only for the layers it owns, which is why the state lives beside
//! the layer buffer rather than in a global table.

use crate::Optimizer;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW). 0 gives plain Adam.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam(W) state for one flat parameter buffer.
///
/// `PartialEq` compares the full state (`m`, `v`, `t`, config) bit-for-bit —
/// tests use it to prove a skipped step leaves the optimizer untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamW {
    cfg: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamW {
    /// Optimizer for `n` parameters.
    pub fn new(n: usize, cfg: AdamConfig) -> Self {
        AdamW {
            cfg,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }
}

impl Optimizer for AdamW {
    fn step_with_lr(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        assert_eq!(params.len(), self.m.len(), "state sized for another buffer");
        self.t += 1;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let eps = self.cfg.eps;
        let wd = self.cfg.weight_decay;
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * params[i]);
        }
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }

    fn export_state(&self) -> (u64, Vec<Vec<f32>>) {
        (self.t, vec![self.m.clone(), self.v.clone()])
    }

    fn import_state(&mut self, t: u64, bufs: &[Vec<f32>]) -> Result<(), String> {
        if bufs.len() != 2 {
            return Err(format!("AdamW expects 2 state buffers, got {}", bufs.len()));
        }
        if bufs[0].len() != self.m.len() || bufs[1].len() != self.v.len() {
            return Err(format!(
                "AdamW state sized for {} params, got m={} v={}",
                self.m.len(),
                bufs[0].len(),
                bufs[1].len()
            ));
        }
        self.m.copy_from_slice(&bufs[0]);
        self.v.copy_from_slice(&bufs[1]);
        self.t = t;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        let mut p = vec![5.0f32, -3.0];
        let mut opt = AdamW::new(
            2,
            AdamConfig {
                lr: 0.1,
                ..Default::default()
            },
        );
        for _ in 0..300 {
            let g: Vec<f32> = p.iter().map(|&x| 2.0 * x).collect();
            opt.step(&mut p, &g);
        }
        assert!(p.iter().all(|x| x.abs() < 1e-2), "{p:?}");
    }

    #[test]
    fn first_step_is_lr_sized() {
        // With bias correction, the first Adam step ≈ lr · sign(g).
        let mut p = vec![0.0f32];
        let mut opt = AdamW::new(
            1,
            AdamConfig {
                lr: 0.01,
                ..Default::default()
            },
        );
        opt.step(&mut p, &[123.456]);
        assert!((p[0] + 0.01).abs() < 1e-4, "{}", p[0]);
    }

    #[test]
    fn invariant_to_gradient_scale() {
        // Adam normalises by the gradient magnitude: scaling all grads by a
        // constant leaves the trajectory (nearly) unchanged.
        let run = |scale: f32| -> f32 {
            let mut p = vec![2.0f32];
            let mut opt = AdamW::new(
                1,
                AdamConfig {
                    lr: 0.05,
                    eps: 1e-12,
                    ..Default::default()
                },
            );
            for _ in 0..20 {
                let g = vec![2.0 * p[0] * scale];
                opt.step(&mut p, &g);
            }
            p[0]
        };
        assert!((run(1.0) - run(1000.0)).abs() < 1e-3);
    }

    #[test]
    fn weight_decay_decouples_from_moments() {
        // With zero gradient, AdamW still decays weights; Adam (wd=0) does not.
        let mut p = vec![1.0f32];
        let mut opt = AdamW::new(
            1,
            AdamConfig {
                lr: 0.1,
                weight_decay: 0.1,
                ..Default::default()
            },
        );
        opt.step(&mut p, &[0.0]);
        assert!((p[0] - (1.0 - 0.1 * 0.1)).abs() < 1e-6);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut p1 = vec![1.0f32, -2.0];
        let mut p2 = p1.clone();
        let mut o1 = AdamW::new(2, AdamConfig::default());
        let mut o2 = AdamW::new(2, AdamConfig::default());
        for s in 0..10 {
            let g = vec![s as f32 * 0.1, -0.3];
            o1.step(&mut p1, &g);
            o2.step(&mut p2, &g);
        }
        assert_eq!(p1, p2);
        assert_eq!(
            o1.export_state().0,
            10,
            "one bias-correction step per update"
        );
    }
}
