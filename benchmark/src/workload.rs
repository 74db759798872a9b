//! The four workloads. Shapes are fixed: a run that has to be shorter runs
//! fewer rounds, never a smaller model.

use weipipe::{DataSource, OptimKind, TrainSetup};
use wp_comm::{LinkModel, TransportKind};
use wp_nn::ModelConfig;
use wp_sched::Strategy;
use wp_tensor::DType;

/// Ranks in every workload: the reference host has two cores.
pub const RANKS: usize = 2;
/// Untimed steps after set-up: the first fills the scratch arenas and
/// creates the optimizer state lazily, the second runs warm and sizes the
/// timed phase.
pub const WARMUP_STEPS: usize = 2;

/// One set of inputs the benchmark runs.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, one line (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub strategy: Strategy,
    pub transport: TransportKind,
    pub link: LinkModel,
    pub wire: DType,
    pub recompute: bool,
    pub hidden: usize,
    pub layers: usize,
    pub seq: usize,
    pub microbatches: usize,
    /// Consecutive timed steps in one round.
    pub round_steps: usize,
}

const HEADS: usize = 4;
const VOCAB: usize = 256;
const MICROBATCH: usize = 1;

/// Commodity-interconnect emulation, scaled so that one step's link
/// occupancy exceeds its compute on the reference host.
const SLOW_LINK: LinkModel = LinkModel {
    bandwidth_bps: 4e6,
    latency_s: 50e-6,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "longctx",
        why: "The paper's configuration: long sequence, recompute, streaming attention, weight ring over an instant link; kernels do nearly all the work, so kernel changes must show here.",
        strategy: Strategy::WeiPipeInterleave,
        transport: TransportKind::InProcess,
        link: LinkModel::instant(),
        wire: DType::F32,
        recompute: true,
        hidden: 128,
        layers: 2,
        seq: 1024,
        microbatches: 4,
        round_steps: 3,
    },
    Workload {
        name: "widecomm",
        why: "Parameter-heavy, token-light weight ring over unpaced localhost TCP in f16: quantisation, checksums, frame copies, socket threads and AdamW dominate, kernels do little.",
        strategy: Strategy::WeiPipeInterleave,
        transport: TransportKind::TcpLocalhost,
        link: LinkModel::instant(),
        wire: DType::F16,
        recompute: false,
        hidden: 256,
        layers: 4,
        seq: 64,
        microbatches: 8,
        round_steps: 3,
    },
    Workload {
        name: "ether",
        why: "The longctx shape over a paced slow link in f16: the step is link-bound, so only wait that compute did not hide is the program's to win; kernel speed-ups should not move it.",
        strategy: Strategy::WeiPipeInterleave,
        transport: TransportKind::InProcess,
        link: SLOW_LINK,
        wire: DType::F16,
        recompute: false,
        hidden: 128,
        layers: 2,
        seq: 1024,
        microbatches: 4,
        round_steps: 2,
    },
    Workload {
        name: "actzb1",
        why: "The paper's strongest baseline on the longctx shape: ZB1 passes small activations, keeps weights resident and splits the backward; a gain bought at the classic pipeline's cost shows here.",
        strategy: Strategy::Zb1,
        transport: TransportKind::InProcess,
        link: LinkModel::instant(),
        wire: DType::F32,
        recompute: false,
        hidden: 128,
        layers: 2,
        seq: 1024,
        microbatches: 4,
        round_steps: 3,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The training inputs for `seed`. `smoke` shrinks hidden size and
    /// sequence so tests cover every code path in seconds; strategy,
    /// transport, link, wire format, depth and microbatch count stay.
    pub fn setup(&self, seed: u64, smoke: bool) -> TrainSetup {
        let (hidden, seq) = if smoke {
            (32, 32)
        } else {
            (self.hidden, self.seq)
        };
        let mut s = TrainSetup::tiny(self.layers, self.microbatches);
        s.model = ModelConfig::llama_like(hidden, HEADS, self.layers, VOCAB, seq);
        s.seed = seed;
        s.microbatch = MICROBATCH;
        s.seq = seq;
        s.optim = OptimKind::AdamW { lr: 1e-3 };
        s.data = DataSource::Synthetic;
        s.wire = self.wire;
        s.link = self.link;
        s.recompute = self.recompute;
        s.overlap = true;
        s.transport = self.transport;
        s
    }

    /// Largest accepted gap between a distributed loss and `run_single`'s.
    pub fn loss_tolerance(&self) -> f32 {
        match self.wire {
            DType::F32 => 2e-4,
            _ => 5e-3,
        }
    }
}
