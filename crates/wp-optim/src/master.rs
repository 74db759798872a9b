//! fp32 master weights for mixed-precision training.
//!
//! The model's working copy of a parameter buffer may live quantized to fp16
//! (what the GPU kernels read); the optimizer must not accumulate updates in
//! fp16 or small updates vanish. [`MasterWeights`] keeps the fp32 truth,
//! applies optimizer steps to it, and republishes the quantized working copy
//! — the scheme of the paper's §4.3 (fp16 weights, fp32 optimizer states).

use crate::scaler::GradScaler;
use crate::Optimizer;
use wp_metrics::Probe;
use wp_tensor::dtype::quantize_slice;
use wp_tensor::DType;

/// fp32 master copy of a (possibly lower-precision) working buffer.
#[derive(Debug, Clone)]
pub struct MasterWeights {
    master: Vec<f32>,
    /// Storage format of the working copy.
    working_dtype: DType,
}

impl MasterWeights {
    /// Capture the master copy from the current working values.
    pub fn capture(working: &[f32], working_dtype: DType) -> Self {
        MasterWeights {
            master: working.to_vec(),
            working_dtype,
        }
    }

    /// Rebuild from a previously-captured fp32 master buffer — the
    /// checkpoint-restore counterpart of [`capture`](Self::capture), which
    /// would otherwise re-quantize an already-quantized working copy and
    /// lose the fp32 truth.
    pub fn from_master(master: Vec<f32>, working_dtype: DType) -> Self {
        MasterWeights {
            master,
            working_dtype,
        }
    }

    /// The fp32 master values.
    pub fn master(&self) -> &[f32] {
        &self.master
    }

    /// Apply one optimizer step to the master weights, then write the
    /// re-quantized result into `working`.
    pub fn step<O: Optimizer + ?Sized>(
        &mut self,
        opt: &mut O,
        working: &mut [f32],
        grads: &[f32],
        lr: f32,
    ) {
        assert_eq!(working.len(), self.master.len(), "buffer length changed");
        opt.step_with_lr(&mut self.master, grads, lr);
        working.copy_from_slice(&self.master);
        quantize_slice(working, self.working_dtype);
    }

    /// [`step`](Self::step), reported to the rank's telemetry: one
    /// `OptimStep` span whose duration is also the
    /// [`OptimStepNs`](wp_metrics::Hist::OptimStepNs) observation, plus the
    /// applied learning rate. Strictly observational — the numeric update
    /// is `step` either way. The caller (the runtime's update op) supplies
    /// identity context via its own enclosing `Update` span; this one
    /// measures just the math.
    pub fn step_observed<O: Optimizer + ?Sized>(
        &mut self,
        opt: &mut O,
        working: &mut [f32],
        grads: &[f32],
        lr: f32,
        probe: &Probe,
    ) {
        let t0 = probe.now();
        self.step(opt, working, grads, lr);
        probe.optim_step(t0, lr);
    }

    /// One mixed-precision step under dynamic loss scaling.
    ///
    /// Unscales `grads` in place, then either applies one optimizer step
    /// (finite gradients) or skips it entirely (overflow). On a skip
    /// *nothing* advances: not the optimizer's internal step count `t` (so
    /// Adam bias correction stays aligned with applied updates), not the
    /// master or working weights. Callers driving an LR schedule must key it
    /// off applied steps (e.g. [`AdamW::steps`](crate::AdamW::steps)), not
    /// attempted iterations, so a skip does not consume a schedule step
    /// either. Returns `true` if the step was applied.
    ///
    /// An applied step is reported like [`step_observed`](Self::step_observed)
    /// and a skip is counted; the trajectory — skip decisions and scale
    /// dynamics included — does not depend on what `probe` records.
    pub fn step_scaled<O: Optimizer + ?Sized>(
        &mut self,
        opt: &mut O,
        working: &mut [f32],
        grads: &mut [f32],
        lr: f32,
        scaler: &mut GradScaler,
        probe: &Probe,
    ) -> bool {
        let finite = scaler.unscale(grads);
        let apply = scaler.update(!finite);
        if apply {
            self.step_observed(opt, working, grads, lr, probe);
        } else {
            probe.overflow_skipped();
        }
        apply
    }

    /// Memory the master copy occupies, in f32 elements.
    pub fn state_elems(&self) -> usize {
        self.master.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::{AdamConfig, AdamW};
    use crate::sgd::{Sgd, SgdConfig};
    use wp_metrics::{Counter, Gauge, Hist, MetricsRegistry};
    use wp_trace::{SpanKind, TraceCollector};

    /// A probe with neither sink attached.
    fn bare() -> Probe {
        Probe::new(MetricsRegistry::new(1).handle(0), false, None)
    }

    #[test]
    fn small_updates_survive_through_master() {
        // A tiny update that fp16 cannot represent relative to 1.0:
        // 1.0 + 1e-4 rounds back to 1.0 in fp16, so naive fp16 training
        // stalls; the master copy accumulates it.
        let mut working = vec![1.0f32];
        quantize_slice(&mut working, DType::F16);
        let mut mw = MasterWeights::capture(&working, DType::F16);
        let mut opt = Sgd::new(
            1,
            SgdConfig {
                lr: 1.0,
                ..Default::default()
            },
        );
        for _ in 0..10 {
            mw.step(&mut opt, &mut working, &[-1e-4], 1.0);
        }
        assert!((mw.master()[0] - 1.001).abs() < 1e-6, "master accumulated");
        // After 10 steps the accumulated 0.1% change is visible in fp16 too.
        assert!(working[0] > 1.0, "working copy eventually moves");
    }

    #[test]
    fn working_copy_is_quantized() {
        let mut working = vec![0.0f32];
        let mut mw = MasterWeights::capture(&working, DType::F16);
        let mut opt = Sgd::new(
            1,
            SgdConfig {
                lr: 1.0,
                ..Default::default()
            },
        );
        mw.step(&mut opt, &mut working, &[-(1.0 + 2f32.powi(-13))], 1.0);
        // Master holds the exact value; working is the fp16 rounding.
        assert_eq!(mw.master()[0], 1.0 + 2f32.powi(-13));
        assert_eq!(working[0], 1.0);
    }

    #[test]
    fn step_observed_matches_step_and_records_one_measurement() {
        let sgd = || {
            Sgd::new(
                1,
                SgdConfig {
                    lr: 1.0,
                    ..Default::default()
                },
            )
        };
        let (mut opt_a, mut opt_b) = (sgd(), sgd());
        let mut wa = vec![1.0f32];
        let mut wb = vec![1.0f32];
        let mut ma = MasterWeights::capture(&wa, DType::F32);
        let mut mb = MasterWeights::capture(&wb, DType::F32);
        let registry = MetricsRegistry::new(1);
        let collector = TraceCollector::new(1, 8);
        let probe = Probe::new(registry.handle(0), true, Some(collector.tracer(0)));
        ma.step(&mut opt_a, &mut wa, &[0.25], 0.5);
        mb.step_observed(&mut opt_b, &mut wb, &[0.25], 0.5, &probe);
        assert_eq!(wa, wb, "observation must not perturb the update");
        assert_eq!(wb[0], 1.0 - 0.5 * 0.25);
        let trace = collector.snapshot();
        let span = trace.tracks[0]
            .of_kind(SpanKind::OptimStep)
            .next()
            .expect("one optim-step span");
        let snap = registry.snapshot_rank(0);
        assert_eq!(snap.hist(Hist::OptimStepNs).count, 1);
        assert_eq!(snap.hist(Hist::OptimStepNs).sum, span.dur_ns());
        assert_eq!(snap.gauge(Gauge::CurrentLr), 0.5);
        // And with no sink attached it records nothing and still steps.
        mb.step_observed(&mut opt_b, &mut wb, &[0.25], 0.5, &bare());
        assert_eq!(collector.snapshot().span_count(), 1);
    }

    #[test]
    fn skipped_step_leaves_all_state_bit_identical() {
        // Regression: AdamW::step_with_lr advances `t` unconditionally, so a
        // naive "unscale, then step anyway" overflow path used to desync the
        // bias correction from the number of applied updates. step_scaled
        // must not touch the optimizer at all on overflow.
        let mut working = vec![1.0f32, -0.5];
        let mut mw = MasterWeights::capture(&working, DType::F32);
        let mut opt = AdamW::new(2, AdamConfig::default());
        let mut scaler = GradScaler::with_scale(8.0);

        // One clean step so the optimizer has non-trivial state.
        let mut g = vec![0.8f32, -1.6];
        assert!(mw.step_scaled(&mut opt, &mut working, &mut g, 1e-3, &mut scaler, &bare()));
        assert_eq!(opt.steps(), 1);

        let opt_before = opt.clone();
        let master_before = mw.master().to_vec();
        let working_before = working.clone();

        // Overflowed gradients: the step must be skipped wholesale.
        let mut bad = vec![f32::INFINITY, 1.0];
        assert!(!mw.step_scaled(&mut opt, &mut working, &mut bad, 1e-3, &mut scaler, &bare()));
        assert_eq!(
            opt, opt_before,
            "optimizer state (m, v, t) must not move on a skip"
        );
        assert_eq!(
            opt.steps(),
            1,
            "bias-correction step count must not advance"
        );
        assert_eq!(mw.master(), &master_before[..]);
        assert_eq!(working, working_before);
        assert_eq!(scaler.skipped_steps(), 1);
        assert_eq!(scaler.scale(), 4.0, "overflow backs the scale off");
    }

    #[test]
    fn skip_then_clean_step_matches_never_skipped_trajectory() {
        // A skipped iteration must be invisible to the trajectory: optimizer
        // state after [clean, skip, clean] equals state after [clean, clean].
        let run = |with_skip: bool| {
            let mut working = vec![0.3f32, 0.9];
            let mut mw = MasterWeights::capture(&working, DType::F32);
            let mut opt = AdamW::new(2, AdamConfig::default());
            let mut scaler = GradScaler::with_scale(4.0);
            let mut g1 = vec![0.4f32, -0.8];
            mw.step_scaled(&mut opt, &mut working, &mut g1, 1e-3, &mut scaler, &bare());
            if with_skip {
                let mut bad = vec![f32::NAN, 0.0];
                mw.step_scaled(&mut opt, &mut working, &mut bad, 1e-3, &mut scaler, &bare());
            }
            // Same post-step scale so the unscaled gradients match: feed
            // pre-scaled values through a fresh scaler of the current scale.
            let mut g2 = vec![scaler.scale() * 0.2, scaler.scale() * -0.1];
            mw.step_scaled(&mut opt, &mut working, &mut g2, 1e-3, &mut scaler, &bare());
            (opt, working)
        };
        let (opt_a, w_a) = run(false);
        let (opt_b, w_b) = run(true);
        assert_eq!(opt_a, opt_b);
        assert_eq!(w_a, w_b);
    }

    #[test]
    fn step_scaled_counts_skips_only_on_overflow() {
        let registry = MetricsRegistry::new(1);
        let probe = Probe::new(registry.handle(0), true, None);
        let mut working = vec![1.0f32, -0.5];
        let mut mw = MasterWeights::capture(&working, DType::F32);
        let mut opt = AdamW::new(2, AdamConfig::default());
        let mut scaler = GradScaler::with_scale(8.0);

        let mut good = vec![0.8f32, -1.6];
        assert!(mw.step_scaled(&mut opt, &mut working, &mut good, 1e-3, &mut scaler, &probe));
        let mut bad = vec![f32::INFINITY, 1.0];
        assert!(!mw.step_scaled(&mut opt, &mut working, &mut bad, 1e-3, &mut scaler, &probe));

        let snap = registry.snapshot();
        assert_eq!(snap.ranks[0].counter(Counter::OverflowSkipped), 1);
        assert_eq!(
            snap.ranks[0].hist(Hist::OptimStepNs).count,
            1,
            "only the applied step is timed"
        );
        assert_eq!(
            scaler.skipped_steps(),
            1,
            "observation must not change scaler dynamics"
        );
    }

    #[test]
    fn f32_working_dtype_is_lossless() {
        let mut working = vec![0.5f32, -0.25];
        let mut mw = MasterWeights::capture(&working, DType::F32);
        let mut opt = Sgd::new(
            2,
            SgdConfig {
                lr: 0.1,
                ..Default::default()
            },
        );
        mw.step(&mut opt, &mut working, &[1.0, 2.0], 0.1);
        assert_eq!(working, mw.master());
    }
}
