//! Stochastic gradient descent with optional momentum and decoupled weight
//! decay.

use crate::Optimizer;

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables the velocity buffer).
    pub momentum: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }
}

/// SGD state for one flat parameter buffer.
#[derive(Debug, Clone)]
pub struct Sgd {
    cfg: SgdConfig,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Optimizer for `n` parameters.
    pub fn new(n: usize, cfg: SgdConfig) -> Self {
        let velocity = if cfg.momentum != 0.0 {
            vec![0.0; n]
        } else {
            Vec::new()
        };
        Sgd { cfg, velocity }
    }
}

impl Optimizer for Sgd {
    fn step_with_lr(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.cfg.momentum != 0.0 {
            assert_eq!(
                self.velocity.len(),
                params.len(),
                "state sized for another buffer"
            );
            for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
                *v = self.cfg.momentum * *v + g;
                *p -= lr * (*v + self.cfg.weight_decay * *p);
            }
        } else {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= lr * (g + self.cfg.weight_decay * *p);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }

    fn export_state(&self) -> (u64, Vec<Vec<f32>>) {
        // Exactly one buffer either way: empty when momentum is off, so the
        // exported shape is deterministic from the config alone.
        (0, vec![self.velocity.clone()])
    }

    fn import_state(&mut self, _t: u64, bufs: &[Vec<f32>]) -> Result<(), String> {
        if bufs.len() != 1 {
            return Err(format!("Sgd expects 1 state buffer, got {}", bufs.len()));
        }
        if bufs[0].len() != self.velocity.len() {
            return Err(format!(
                "Sgd velocity sized {}, got {}",
                self.velocity.len(),
                bufs[0].len()
            ));
        }
        self.velocity.copy_from_slice(&bufs[0]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_descends_quadratic() {
        // f(p) = p², grad = 2p. lr 0.25 converges.
        let mut p = vec![4.0f32];
        let mut opt = Sgd::new(
            1,
            SgdConfig {
                lr: 0.25,
                ..Default::default()
            },
        );
        for _ in 0..50 {
            let g = vec![2.0 * p[0]];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-4, "p = {}", p[0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut p = vec![0.0f32];
        let mut opt = Sgd::new(
            1,
            SgdConfig {
                lr: 1.0,
                momentum: 0.9,
                weight_decay: 0.0,
            },
        );
        opt.step(&mut p, &[1.0]);
        assert_eq!(p[0], -1.0);
        opt.step(&mut p, &[1.0]);
        // v = 0.9·1 + 1 = 1.9
        assert!((p[0] - (-1.0 - 1.9)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let mut p = vec![10.0f32];
        let mut opt = Sgd::new(
            1,
            SgdConfig {
                lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.5,
            },
        );
        opt.step(&mut p, &[0.0]);
        assert!((p[0] - (10.0 - 0.1 * 0.5 * 10.0)).abs() < 1e-6);
    }

    #[test]
    fn no_momentum_allocates_no_state() {
        let opt = Sgd::new(1000, SgdConfig::default());
        assert_eq!(opt.export_state().1[0].len(), 0);
        let opt = Sgd::new(
            1000,
            SgdConfig {
                momentum: 0.9,
                ..Default::default()
            },
        );
        assert_eq!(opt.export_state().1[0].len(), 1000);
    }
}
