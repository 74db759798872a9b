//! fp32 master weights for mixed-precision training.
//!
//! The model's working copy of a parameter buffer may live quantized to fp16
//! (what the GPU kernels read); the optimizer must not accumulate updates in
//! fp16 or small updates vanish. [`MasterWeights`] keeps the fp32 truth,
//! applies optimizer steps to it, and republishes the quantized working copy
//! — the scheme of the paper's §4.3 (fp16 weights, fp32 optimizer states).

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::{Sgd, SgdConfig};
    use wp_metrics::{Gauge, Hist, MetricsRegistry};
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
