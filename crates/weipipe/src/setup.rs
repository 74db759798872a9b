//! Run configuration and results.

use std::sync::Arc;
use wp_comm::{CommConfig, FaultPlan, LinkModel, TransportKind};
use wp_metrics::{MetricsConfig, MetricsSnapshot};
use wp_nn::{ModelConfig, TrainState};
use wp_optim::{AdamConfig, AdamW, LrSchedule, Optimizer, Sgd, SgdConfig};
use wp_sched::tune::Candidate;
use wp_tensor::DType;
use wp_trace::{Trace, TraceConfig};

/// Which optimizer trains the model.
#[derive(Debug, Clone, Copy)]
pub enum OptimKind {
    /// Plain SGD at the given learning rate.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// AdamW with default betas at the given learning rate.
    AdamW {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimKind {
    /// Instantiate the optimizer for a flat buffer of `n` parameters.
    pub fn build(&self, n: usize) -> Box<dyn Optimizer + Send> {
        match *self {
            OptimKind::Sgd { lr } => Box::new(Sgd::new(
                n,
                SgdConfig {
                    lr,
                    ..Default::default()
                },
            )),
            OptimKind::AdamW { lr } => Box::new(AdamW::new(
                n,
                AdamConfig {
                    lr,
                    ..Default::default()
                },
            )),
        }
    }
}

/// Where training batches come from. Every rank derives any (iteration,
/// microbatch) pair deterministically and locally — no data-loader ranks,
/// no shipping token ids.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// The synthetic arithmetic-sequence task of `wp_nn::data` (the default;
    /// used by all correctness tests).
    Synthetic,
    /// Next-token prediction over a token corpus: microbatch windows are
    /// sliced at deterministic offsets derived from (iteration, microbatch).
    Corpus(std::sync::Arc<Vec<u32>>),
}

impl DataSource {
    /// The (ids, targets) pair for microbatch `mb` of iteration `iter`.
    pub fn batch(
        &self,
        vocab: usize,
        batch: usize,
        seq: usize,
        iter: usize,
        mb: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        match self {
            DataSource::Synthetic => wp_nn::data::microbatch(vocab, batch, seq, iter, mb),
            DataSource::Corpus(tokens) => {
                assert!(
                    tokens.len() > seq + 1,
                    "corpus ({} tokens) shorter than one window ({seq}+1)",
                    tokens.len()
                );
                let span = tokens.len() - seq - 1;
                let mut ids = Vec::with_capacity(batch * seq);
                let mut targets = Vec::with_capacity(batch * seq);
                for g in 0..batch {
                    // Deterministic pseudo-random window start per sample.
                    let mix = (iter as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((mb as u64) << 20)
                        .wrapping_add(g as u64)
                        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    let start = (mix % span as u64) as usize;
                    ids.extend_from_slice(&tokens[start..start + seq]);
                    targets.extend_from_slice(&tokens[start + 1..start + seq + 1]);
                }
                for &t in ids.iter().chain(&targets) {
                    debug_assert!((t as usize) < vocab, "corpus token out of vocab");
                }
                (ids, targets)
            }
        }
    }
}

/// Everything a training run needs.
#[derive(Debug, Clone)]
pub struct TrainSetup {
    /// Model architecture.
    pub model: ModelConfig,
    /// Weight-init and data seed.
    pub seed: u64,
    /// Microbatch size `G`.
    pub microbatch: usize,
    /// Sequence length `S`.
    pub seq: usize,
    /// Microbatches per iteration `N`.
    pub microbatches: usize,
    /// Training iterations.
    pub iters: usize,
    /// Optimizer.
    pub optim: OptimKind,
    /// Learning-rate schedule applied per iteration on top of the
    /// optimizer's base LR.
    pub lr_schedule: LrSchedule,
    /// Static loss scale (§4.3 mixed precision): the loss gradient is
    /// multiplied by this before backward and gradients are divided by it
    /// before the optimizer step, keeping small fp16 gradients
    /// representable. 1.0 disables scaling. Numerically transparent in f32.
    pub loss_scale: f32,
    /// Wire storage format for every message (use `F32` for exact
    /// strategy-equivalence tests, `F16` for the paper's mixed-precision
    /// configuration).
    pub wire: DType,
    /// Link pacing (instant for correctness runs).
    pub link: LinkModel,
    /// Activation checkpointing in pipelines.
    pub recompute: bool,
    /// Double-buffered weight ring (§4.3): pre-post next-round receives and
    /// relay outgoing chunks before compute, waiting only at the round
    /// boundary. Bit-identical to the blocking path; only wall clock and
    /// span shapes differ. Ignored by non-weight-passing strategies.
    pub overlap: bool,
    /// Training data.
    pub data: DataSource,
    /// Deterministic fault plan injected into the communication ring
    /// (`None` for a healthy world). Delay-only plans must not change the
    /// training result; destructive plans surface as `CommError`s.
    pub faults: Option<FaultPlan>,
    /// Timeout/retry policy for blocking receives.
    pub comm: CommConfig,
    /// Substrate the ranks communicate over: in-process channels (default)
    /// or real localhost TCP sockets. Training results, traffic, and error
    /// taxonomy are byte-identical across kinds (the cross-transport
    /// conformance suite enforces it); only the wires differ.
    pub transport: TransportKind,
    /// Span tracing policy (default off). When enabled, every rank records
    /// compute/comm spans into a pre-sized ring buffer and the run's
    /// [`RunOutput::trace`] carries the snapshot.
    pub trace: TraceConfig,
    /// Metrics policy (default off). When enabled, every rank records
    /// counters/gauges/histograms into a fixed-slot lock-free registry and
    /// the run's [`RunOutput::metrics`] carries the snapshot. Metrics are
    /// strictly off the numeric path: an enabled run trains bit-identically
    /// to a disabled one.
    pub metrics: MetricsConfig,
    /// W-pass lag override for split-backward strategies (ZB1), mirroring
    /// [`wp_sched::PipelineSpec::with_w_lag`]. `None` keeps the builder
    /// default.
    pub w_lag: Option<usize>,
    /// Collective chunk-count override for FSDP/DDP, mirroring
    /// [`wp_sched::PipelineSpec::with_chunks`]. `None` chunks per rank.
    pub chunks: Option<usize>,
    /// Hierarchical group size (WeiPipe-Hier schedules), mirroring
    /// [`wp_sched::PipelineSpec::with_group`].
    pub group: Option<usize>,
    /// Full training state to resume from (elastic recovery, or any warm
    /// restart). When set, the runtime restores model weights, fp32
    /// masters, optimizer moments, and the loss scale from the snapshot
    /// instead of seeding fresh, and the run covers absolute iterations
    /// `start_iter..start_iter + iters`.
    pub resume: Option<Arc<TrainState>>,
    /// First absolute iteration index of this run (0 for a fresh run; the
    /// snapshot's `next_iter` when resuming). Data batches and the LR
    /// schedule are keyed on absolute iterations, so a resumed run replays
    /// exactly the batches and learning rates a never-interrupted run would
    /// have seen.
    pub start_iter: usize,
}

impl TrainSetup {
    /// A tiny, fast setup for tests: `L`-layer tiny model, N microbatches.
    pub fn tiny(layers: usize, microbatches: usize) -> Self {
        let model = ModelConfig::tiny(layers);
        TrainSetup {
            model,
            seed: 42,
            microbatch: 2,
            seq: 8,
            microbatches,
            iters: 2,
            optim: OptimKind::Sgd { lr: 0.2 },
            lr_schedule: LrSchedule::Constant,
            loss_scale: 1.0,
            wire: DType::F32,
            link: LinkModel::instant(),
            recompute: false,
            overlap: true,
            data: DataSource::Synthetic,
            faults: None,
            comm: CommConfig::default(),
            transport: TransportKind::InProcess,
            trace: TraceConfig::off(),
            metrics: MetricsConfig::off(),
            w_lag: None,
            chunks: None,
            group: None,
            resume: None,
            start_iter: 0,
        }
    }

    /// Build a runnable setup straight from an autotuner [`Candidate`] —
    /// the winning point of a `wp-bench tune` sweep becomes a training
    /// configuration without hand-copying knobs. Every schedule-shaping
    /// knob the candidate carries (microbatches, overlap, W-lag, chunk
    /// count, group size, recompute forced off for split-backward
    /// strategies) lands on the setup, so
    /// [`build_schedule`](crate::build_schedule) reconstructs exactly
    /// [`Candidate::spec`]. The candidate's strategy is *not* stored here —
    /// pass it to [`run_distributed`](crate::run_distributed) alongside.
    ///
    /// ```
    /// use weipipe::TrainSetup;
    /// use wp_sched::tune::Candidate;
    /// use wp_sched::Strategy;
    ///
    /// let winner = Candidate { w_lag: Some(2), ..Candidate::default_for(Strategy::Zb1, 8) };
    /// let setup = TrainSetup::from_candidate(&winner);
    /// assert_eq!(setup.microbatches, 8);
    /// assert_eq!(setup.w_lag, Some(2));
    /// assert!(!setup.recompute, "split backward forces checkpointing off");
    /// ```
    pub fn from_candidate(c: &Candidate) -> Self {
        let mut s = TrainSetup::tiny(12, c.microbatches).with_overlap(c.overlap);
        // Candidate::spec keeps the builders' recompute default on except for
        // split-backward strategies, which forbid it; mirror that choice so
        // build_schedule reconstructs the candidate's spec op-for-op.
        s.recompute = !c.split_backward();
        s.w_lag = c.w_lag;
        s.chunks = c.chunks;
        s.group = c.group;
        s
    }

    /// Set the communication policy (timeouts, retry budget).
    ///
    /// ```
    /// use std::time::Duration;
    /// use weipipe::{CommConfig, TrainSetup};
    ///
    /// let setup = TrainSetup::tiny(2, 4)
    ///     .with_comm_config(CommConfig { recv_timeout: Duration::from_millis(500), ..Default::default() });
    /// assert_eq!(setup.comm.recv_timeout, Duration::from_millis(500));
    /// ```
    pub fn with_comm_config(mut self, comm: CommConfig) -> Self {
        self.comm = comm;
        self
    }

    /// Inject a deterministic fault plan into the communication ring.
    ///
    /// ```
    /// use std::time::Duration;
    /// use weipipe::{FaultPlan, TrainSetup};
    ///
    /// let setup = TrainSetup::tiny(2, 4)
    ///     .with_fault_plan(FaultPlan::new(2).with_stall(0, 1, 3, 2, Duration::from_millis(5)));
    /// assert!(setup.faults.is_some());
    /// ```
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable span tracing with the given policy.
    ///
    /// ```
    /// use weipipe::TrainSetup;
    /// use wp_trace::TraceConfig;
    ///
    /// let setup = TrainSetup::tiny(2, 4).with_trace(TraceConfig::on());
    /// assert!(setup.trace.enabled);
    /// ```
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Enable metrics collection with the given policy.
    ///
    /// ```
    /// use weipipe::TrainSetup;
    /// use wp_metrics::MetricsConfig;
    ///
    /// let setup = TrainSetup::tiny(2, 4).with_metrics(MetricsConfig::on());
    /// assert!(setup.metrics.enabled);
    /// ```
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Select the communication substrate (in-process channels by default).
    ///
    /// ```
    /// use weipipe::TrainSetup;
    /// use wp_comm::TransportKind;
    ///
    /// let setup = TrainSetup::tiny(2, 4).with_transport(TransportKind::TcpLocalhost);
    /// assert_eq!(setup.transport, TransportKind::TcpLocalhost);
    /// ```
    pub fn with_transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Toggle the double-buffered weight ring (on by default).
    ///
    /// ```
    /// use weipipe::TrainSetup;
    ///
    /// let setup = TrainSetup::tiny(2, 4).with_overlap(false);
    /// assert!(!setup.overlap);
    /// ```
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Override the split-backward W-pass lag (mirrors
    /// [`wp_sched::PipelineSpec::with_w_lag`]).
    ///
    /// ```
    /// use weipipe::TrainSetup;
    ///
    /// let setup = TrainSetup::tiny(2, 4).with_w_lag(2);
    /// assert_eq!(setup.w_lag, Some(2));
    /// ```
    pub fn with_w_lag(mut self, lag: usize) -> Self {
        self.w_lag = Some(lag);
        self
    }

    /// Override the collective chunk count for FSDP/DDP (mirrors
    /// [`wp_sched::PipelineSpec::with_chunks`]).
    ///
    /// ```
    /// use weipipe::TrainSetup;
    ///
    /// let setup = TrainSetup::tiny(2, 4).with_chunks(2);
    /// assert_eq!(setup.chunks, Some(2));
    /// ```
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = Some(chunks);
        self
    }

    /// Set the hierarchical group size (mirrors
    /// [`wp_sched::PipelineSpec::with_group`]).
    ///
    /// ```
    /// use weipipe::TrainSetup;
    ///
    /// let setup = TrainSetup::tiny(2, 4).with_group(2);
    /// assert_eq!(setup.group, Some(2));
    /// ```
    pub fn with_group(mut self, group: usize) -> Self {
        self.group = Some(group);
        self
    }

    /// Resume from a full training-state snapshot: adopt its model config,
    /// seed, and loss scale, and start at the snapshot's next iteration.
    /// `iters` still means "iterations to run *from here*".
    ///
    /// # Panics
    /// Panics if the snapshot fails its internal consistency check
    /// ([`TrainState::validate`]) — a corrupted or hand-built state must
    /// not silently train.
    pub fn with_resume(mut self, state: TrainState) -> Self {
        state
            .validate()
            .expect("resume snapshot must be consistent");
        self.model = state.config.clone();
        self.seed = state.seed;
        self.loss_scale = state.loss_scale;
        self.start_iter = state.next_iter as usize;
        self.resume = Some(Arc::new(state));
        self
    }

    /// The (ids, targets) pair for microbatch `mb` of iteration `iter`.
    pub fn batch_for(&self, iter: usize, mb: usize) -> (Vec<u32>, Vec<u32>) {
        self.data
            .batch(self.model.vocab, self.microbatch, self.seq, iter, mb)
    }

    /// Base learning rate of the configured optimizer.
    pub fn base_lr(&self) -> f32 {
        match self.optim {
            OptimKind::Sgd { lr } | OptimKind::AdamW { lr } => lr,
        }
    }

    /// Scheduled learning rate at iteration `iter`.
    pub fn lr_at(&self, iter: usize) -> f32 {
        self.lr_schedule.lr_at(self.base_lr(), iter as u64)
    }

    /// Tokens processed per iteration.
    pub fn tokens_per_iter(&self) -> usize {
        self.microbatch * self.seq * self.microbatches
    }
}

/// The outcome of a run: per-iteration mean loss and the final parameters
/// (assembled on every rank, returned from rank 0).
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Mean training loss per iteration.
    pub losses: Vec<f32>,
    /// Final embedding table.
    pub embed: Vec<f32>,
    /// Final per-layer flat parameter buffers.
    pub blocks: Vec<Vec<f32>>,
    /// Final head buffer.
    pub head: Vec<f32>,
    /// Total bytes sent across all ranks (from the traffic meter).
    pub bytes_sent: u64,
    /// Wall-clock seconds of the training loop (excludes setup/assembly).
    pub wall_seconds: f64,
    /// Recorded span trace of the whole world, when
    /// [`TrainSetup::trace`] was enabled (`None` otherwise, and always
    /// `None` for the single-process reference).
    pub trace: Option<Trace>,
    /// Metrics snapshot of the whole world, when [`TrainSetup::metrics`]
    /// was enabled (`None` otherwise, and always `None` for the
    /// single-process reference).
    pub metrics: Option<MetricsSnapshot>,
}

impl RunOutput {
    /// Tokens per second across the whole run.
    pub fn tokens_per_second(&self, setup: &TrainSetup) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        (setup.tokens_per_iter() * self.losses.len()) as f64 / self.wall_seconds
    }
}

impl RunOutput {
    /// Whether both runs produced the same losses and final parameters bit
    /// for bit (`-0.0` and `0.0` differ, equal NaN payloads agree) — the
    /// relation the bit-identity lattice is stated in.
    pub fn bit_identical(&self, other: &RunOutput) -> bool {
        fn f32_bits_eq(a: &[f32], b: &[f32]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        f32_bits_eq(&self.losses, &other.losses)
            && f32_bits_eq(&self.embed, &other.embed)
            && f32_bits_eq(&self.head, &other.head)
            && self.blocks.len() == other.blocks.len()
            && self
                .blocks
                .iter()
                .zip(&other.blocks)
                .all(|(a, b)| f32_bits_eq(a, b))
    }

    /// Largest absolute parameter difference against another run.
    pub fn max_param_diff(&self, other: &RunOutput) -> f32 {
        let mut m = 0.0f32;
        for (a, b) in self.embed.iter().zip(&other.embed) {
            m = m.max((a - b).abs());
        }
        for (ba, bb) in self.blocks.iter().zip(&other.blocks) {
            for (a, b) in ba.iter().zip(bb) {
                m = m.max((a - b).abs());
            }
        }
        for (a, b) in self.head.iter().zip(&other.head) {
            m = m.max((a - b).abs());
        }
        m
    }

    /// Largest absolute per-iteration loss difference against another run.
    pub fn max_loss_diff(&self, other: &RunOutput) -> f32 {
        assert_eq!(
            self.losses.len(),
            other.losses.len(),
            "iteration counts differ"
        );
        self.losses
            .iter()
            .zip(&other.losses)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_setup_is_consistent() {
        let s = TrainSetup::tiny(4, 8);
        assert_eq!(s.model.layers, 4);
        assert_eq!(s.tokens_per_iter(), 2 * 8 * 8);
    }

    #[test]
    fn optim_kinds_build() {
        let mut p = vec![1.0f32];
        let g = vec![1.0f32];
        let mut o = OptimKind::Sgd { lr: 0.5 }.build(1);
        o.step(&mut p, &g);
        assert_eq!(p[0], 0.5);
        let mut o2 = OptimKind::AdamW { lr: 0.5 }.build(1);
        o2.step(&mut p, &g);
        assert!(p[0] < 0.5);
    }
}
