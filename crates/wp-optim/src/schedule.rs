//! Learning-rate schedules.

/// A learning-rate schedule: maps step index to a multiplier on the base LR.
#[derive(Debug, Clone, Copy)]
pub enum LrSchedule {
    /// Constant multiplier 1.
    Constant,
    /// Linear warmup then cosine decay; built by
    /// [`LrSchedule::warmup_cosine`], the one place its shape is checked.
    WarmupCosine(WarmupCosine),
}

/// The shape of an [`LrSchedule::WarmupCosine`]: linear warmup over
/// `warmup` steps, then cosine decay to `min_ratio` at `total > warmup`.
/// Its fields are private, so every value has passed
/// [`LrSchedule::warmup_cosine`].
#[derive(Debug, Clone, Copy)]
pub struct WarmupCosine {
    warmup: u64,
    total: u64,
    min_ratio: f32,
}

impl LrSchedule {
    /// Linear warmup over `warmup` steps, then cosine decay to `min_ratio`
    /// at step `total`.
    ///
    /// Rejects `total <= warmup` (the decay phase would be empty) and a
    /// `min_ratio` outside `[0, 1]` or NaN.
    pub fn warmup_cosine(warmup: u64, total: u64, min_ratio: f32) -> Result<Self, String> {
        if total <= warmup {
            return Err(format!(
                "WarmupCosine needs total > warmup, got total = {total}, warmup = {warmup}"
            ));
        }
        if !(0.0..=1.0).contains(&min_ratio) {
            return Err(format!(
                "WarmupCosine min_ratio must be in [0, 1], got {min_ratio}"
            ));
        }
        Ok(LrSchedule::WarmupCosine(WarmupCosine {
            warmup,
            total,
            min_ratio,
        }))
    }

    /// Multiplier at `step` (0-based).
    pub fn multiplier(&self, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::WarmupCosine(WarmupCosine {
                warmup,
                total,
                min_ratio,
            }) => {
                if step < warmup {
                    return (step + 1) as f32 / warmup as f32;
                }
                let progress = ((step - warmup) as f32 / (total - warmup) as f32).min(1.0);
                let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
                min_ratio + (1.0 - min_ratio) * cos
            }
        }
    }

    /// Learning rate at `step` given a base LR.
    pub fn lr_at(&self, base_lr: f32, step: u64) -> f32 {
        base_lr * self.multiplier(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        assert_eq!(LrSchedule::Constant.multiplier(0), 1.0);
        assert_eq!(LrSchedule::Constant.multiplier(10_000), 1.0);
    }

    #[test]
    fn warmup_ramps_linearly() {
        let s = LrSchedule::warmup_cosine(4, 100, 0.1).unwrap();
        assert_eq!(s.multiplier(0), 0.25);
        assert_eq!(s.multiplier(1), 0.5);
        assert_eq!(s.multiplier(3), 1.0);
        assert!((s.multiplier(4) - 1.0).abs() < 1e-6);
        // No warmup: the decay starts at the peak.
        let s = LrSchedule::warmup_cosine(0, 10, 0.1).unwrap();
        assert!((s.multiplier(0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_decays_to_min() {
        let s = LrSchedule::warmup_cosine(2, 12, 0.1).unwrap();
        assert!(s.multiplier(0) < s.multiplier(1));
        let peak = s.multiplier(2);
        assert!((peak - 1.0).abs() < 1e-6);
        let end = s.multiplier(12);
        assert!((end - 0.1).abs() < 1e-6);
        // Monotone decreasing after warmup.
        let mut prev = peak;
        for step in 3..=12 {
            let m = s.multiplier(step);
            assert!(m <= prev + 1e-6, "not monotone at {step}");
            prev = m;
        }
        // Clamped past the end.
        assert!((s.multiplier(1000) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn lr_at_scales_base() {
        let s = LrSchedule::warmup_cosine(2, 12, 0.1).unwrap();
        assert_eq!(s.lr_at(0.2, 0), 0.1);
    }

    #[test]
    fn warmup_cosine_constructor_validates() {
        assert!(LrSchedule::warmup_cosine(2, 12, 0.1).is_ok());
        // The decay phase must be non-empty: total <= warmup is an error, not
        // a silent rewrite of `total`.
        assert!(LrSchedule::warmup_cosine(10, 10, 0.1).is_err());
        assert!(LrSchedule::warmup_cosine(10, 5, 0.1).is_err());
        assert!(LrSchedule::warmup_cosine(2, 12, -0.1).is_err());
        assert!(LrSchedule::warmup_cosine(2, 12, 1.5).is_err());
        assert!(LrSchedule::warmup_cosine(2, 12, f32::NAN).is_err());
    }
}
