//! Per-layer probes: each layer's public functions, called from outside at
//! the workload's own shapes and timed. Every number is the median of
//! [`REPS`] warm repetitions. The FLOP and byte counts behind the rates are
//! the formulas in `benchmark/README.md`.

use crate::stats::{median, median_secs};
use crate::workload::{Workload, RANKS};
use crate::{host, ALLOC};
use std::hint::black_box;
use std::time::Instant;
use weipipe::{build_schedule, OptimKind, TrainSetup};
use wp_comm::transport::checksum_of;
use wp_comm::{Communicator, TransportKind, World};
use wp_nn::attention::{streaming_backward, streaming_forward, AttnDims};
use wp_nn::block::{
    block_backward_data, block_backward_full, block_backward_recompute, block_backward_weight,
    block_forward,
};
use wp_nn::params::{init_block, BlockLayout};
use wp_nn::Scratch;
use wp_sched::{build, PipelineSpec, Schedule, Strategy};
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, Link, ModelDims, SimOptions};
use wp_tensor::dtype::quantize_slice;
use wp_tensor::ops::{matmul_nn, matmul_nt, matmul_tn};
use wp_tensor::{DType, Tensor};

pub const REPS: usize = 5;

pub type Metrics = Vec<(&'static str, f64)>;

fn rand(n: usize, seed: u64) -> Vec<f32> {
    Tensor::rand_uniform([n], -0.5, 0.5, seed).into_vec()
}

/// f32 elements in one ring chunk: `L/P` layers' flat parameter buffers.
pub fn chunk_elems(setup: &TrainSetup) -> usize {
    setup.model.layers / RANKS * BlockLayout::new(&setup.model).len()
}

pub const MIB: f64 = (1 << 20) as f64;

/// The three matmul layouts at the shapes the block's FFN gives them
/// (`M = G·S` tokens, hidden `H`, FFN width `F`), `2·M·H·F` FLOPs each, and
/// f16 quantisation of one chunk in place.
pub fn tensor(setup: &TrainSetup, out: &mut Metrics) {
    let (m, h, f) = (
        setup.microbatch * setup.seq,
        setup.model.hidden,
        setup.model.ffn,
    );
    let gflop = (2 * m * h * f) as f64 / 1e9;
    let (x, w, dy) = (rand(m * h, 1), rand(f * h, 2), rand(m * f, 3));
    // Forward `Y = X·Wᵀ`.
    let mut y = vec![0.0f32; m * f];
    let nt = median_secs(REPS, || matmul_nt(&mut y, &x, &w, m, h, f));
    // Data gradient `dX = dY·W`.
    let mut dx = vec![0.0f32; m * h];
    let nn = median_secs(REPS, || matmul_nn(&mut dx, &dy, &w, m, f, h));
    // Weight gradient `dW = dYᵀ·X`.
    let mut dw = vec![0.0f32; f * h];
    let tn = median_secs(REPS, || matmul_tn(&mut dw, &dy, &x, f, m, h));
    black_box((&y, &dx, &dw));
    out.push(("wp-tensor.matmul_nn_gflops", gflop / nn));
    out.push(("wp-tensor.matmul_nt_gflops", gflop / nt));
    out.push(("wp-tensor.matmul_tn_gflops", gflop / tn));

    let mut chunk = rand(chunk_elems(setup), 4);
    let q = median_secs(REPS, || quantize_slice(black_box(&mut chunk), DType::F16));
    out.push((
        "wp-tensor.quantize_f16_gbps",
        (chunk.len() * 4) as f64 / q / 1e9,
    ));
}

/// Streaming attention and one transformer block at `(G, S)`.
pub fn nn(setup: &TrainSetup, out: &mut Metrics) {
    let cfg = &setup.model;
    let (g, s, h) = (setup.microbatch, setup.seq, cfg.hidden);
    let n = g * s * h;
    let sc = Scratch::new();

    // Causal attention: QKᵀ and PV over the lower triangle are 2·G·S²·H
    // FLOPs forward; backward recomputes the scores and forms dV, dP, dQ
    // and dK, five such products.
    let dims = AttnDims::mha(g, s, cfg.heads, cfg.head_dim());
    let (q, k, v, dout) = (rand(n, 5), rand(n, 6), rand(n, 7), rand(n, 8));
    let mut o = vec![0.0f32; n];
    let fwd = median_secs(REPS, || {
        streaming_forward(&mut o, &q, &k, &v, dims, &sc);
    });
    let ctx = streaming_forward(&mut o, &q, &k, &v, dims, &sc);
    let (mut dq, mut dk, mut dv) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
    let bwd = median_secs(REPS, || {
        streaming_backward(
            &mut dq, &mut dk, &mut dv, &dout, &q, &k, &v, &o, &ctx, dims, &sc,
        );
    });
    let attn_gflop = (g * s * s * h) as f64 / 1e9;
    out.push(("wp-nn.attn_fwd_gflops", 2.0 * attn_gflop / fwd));
    out.push(("wp-nn.attn_bwd_gflops", 5.0 * attn_gflop / bwd));

    let rope = cfg.rope_table();
    let w = init_block(cfg, setup.seed, 0);
    let (x, dy) = (rand(n, 9), rand(n, 10));
    let mut dw = vec![0.0f32; w.len()];
    let ms = |secs: f64| secs * 1e3;
    let block_fwd = median_secs(REPS, || {
        block_forward(cfg, &rope, &w, &x, g, s, &sc);
    });
    let (_, bctx_src) = block_forward(cfg, &rope, &w, &x, g, s, &sc);
    let bwd_full = median_secs(REPS, || {
        block_backward_full(cfg, &rope, &w, &bctx_src, &dy, &mut dw, g, s, &sc);
    });
    let bwd_recompute = median_secs(REPS, || {
        block_backward_recompute(cfg, &rope, &w, &x, &dy, &mut dw, g, s, &sc);
    });
    let bwd_data = median_secs(REPS, || {
        block_backward_data(cfg, &rope, &w, &bctx_src, &dy, g, s, &sc);
    });
    let (_, bpass) = block_backward_data(cfg, &rope, &w, &bctx_src, &dy, g, s, &sc);
    let bwd_weight = median_secs(REPS, || {
        block_backward_weight(cfg, &bctx_src, &bpass, &mut dw, g, s);
    });
    out.push(("wp-nn.block_fwd_ms", ms(block_fwd)));
    out.push(("wp-nn.block_bwd_full_ms", ms(bwd_full)));
    out.push(("wp-nn.block_bwd_recompute_ms", ms(bwd_recompute)));
    out.push(("wp-nn.block_bwd_data_ms", ms(bwd_data)));
    out.push(("wp-nn.block_bwd_weight_ms", ms(bwd_weight)));

    // Nothing else in the process is running, so the allocator's count over
    // the third identical forward + fused backward is the block's own.
    drop((bctx_src, bpass));
    let mut step = || {
        let (_, ctx) = block_forward(cfg, &rope, &w, &x, g, s, &sc);
        block_backward_full(cfg, &rope, &w, &ctx, &dy, &mut dw, g, s, &sc);
    };
    step();
    step();
    let before = ALLOC.alloc_count();
    step();
    out.push(("wp-nn.warm_allocs", (ALLOC.alloc_count() - before) as f64));
}

/// One AdamW step over one chunk.
pub fn optim(setup: &TrainSetup, out: &mut Metrics) {
    let n = chunk_elems(setup);
    let (mut p, g) = (rand(n, 11), rand(n, 12));
    let mut opt = OptimKind::AdamW { lr: 1e-3 }.build(n);
    let secs = median_secs(REPS, || opt.step(&mut p, &g));
    out.push(("wp-optim.adamw_ns_per_param", secs * 1e9 / n as f64));
}

const STREAM_MSGS: usize = 16;
const PING_ELEMS: usize = 1024;
const PING_TRIPS: usize = 200;

/// Rank 0 streams `STREAM_MSGS` chunk-sized messages to rank 1 and stops the
/// clock on rank 1's one-element acknowledgement.
fn stream_secs(comm: &mut Communicator, chunk: &[f32], wire: DType, tag: u64) -> f64 {
    let t0 = Instant::now();
    if comm.rank() == 0 {
        for i in 0..STREAM_MSGS {
            comm.send(1, tag + i as u64, chunk, wire)
                .expect("probe send");
        }
        comm.recv(1, tag).expect("probe ack");
    } else {
        for i in 0..STREAM_MSGS {
            black_box(comm.recv(0, tag + i as u64).expect("probe recv"));
        }
        comm.send(0, tag, &[1.0], DType::F32).expect("probe ack");
    }
    t0.elapsed().as_secs_f64()
}

/// `PING_TRIPS` round trips of a 4 KiB message between the two ranks.
fn ping_secs(comm: &mut Communicator, tag: u64) -> f64 {
    let msg = vec![1.0f32; PING_ELEMS];
    let peer = 1 - comm.rank();
    let t0 = Instant::now();
    for _ in 0..PING_TRIPS {
        if comm.rank() == 0 {
            comm.send(peer, tag, &msg, DType::F32).expect("ping");
            comm.recv(peer, tag).expect("pong");
        } else {
            comm.recv(peer, tag).expect("ping");
            comm.send(peer, tag, &msg, DType::F32).expect("pong");
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Rank 0's medians over a fresh unpaced 2-rank world of `kind`:
/// `(stream seconds, ping seconds, all-reduce seconds)`.
fn link_probe(kind: TransportKind, chunk: &[f32], wire: DType) -> (f64, f64, f64) {
    let (outs, _) = World::builder(RANKS).transport(kind).run(|mut comm| {
        let mut tag = 0u64;
        let mut reps = |f: &mut dyn FnMut(&mut Communicator, u64) -> f64| {
            let samples: Vec<f64> = (0..=REPS)
                .map(|_| {
                    tag += STREAM_MSGS as u64;
                    f(&mut comm, tag)
                })
                .collect();
            median(&samples[1..])
        };
        let stream = reps(&mut |c, tag| stream_secs(c, chunk, wire, tag));
        let ping = reps(&mut |c, tag| ping_secs(c, tag));
        let mut buf = chunk.to_vec();
        let reduce = reps(&mut |c, _| {
            let t0 = Instant::now();
            c.all_reduce_sum(&mut buf, wire).expect("probe all-reduce");
            t0.elapsed().as_secs_f64()
        });
        (stream, ping, reduce)
    });
    outs[0]
}

/// Both transports at chunk and 4 KiB payloads, the ring all-reduce of one
/// chunk over the workload's transport, and the frame checksum.
pub fn comm(w: &Workload, setup: &TrainSetup, out: &mut Metrics) {
    let chunk = rand(chunk_elems(setup), 13);
    let wire_gb = (STREAM_MSGS * chunk.len() * w.wire.size_bytes()) as f64 / 1e9;
    let half_trip_us = |secs: f64| secs / (2 * PING_TRIPS) as f64 * 1e6;
    let chan = link_probe(TransportKind::InProcess, &chunk, w.wire);
    let tcp = link_probe(TransportKind::TcpLocalhost, &chunk, w.wire);
    out.push(("wp-comm.chan_chunk_gbps", wire_gb / chan.0));
    out.push(("wp-comm.tcp_chunk_gbps", wire_gb / tcp.0));
    out.push(("wp-comm.chan_msg_us", half_trip_us(chan.1)));
    out.push(("wp-comm.tcp_msg_us", half_trip_us(tcp.1)));
    let own = if w.transport == TransportKind::TcpLocalhost {
        tcp
    } else {
        chan
    };
    out.push(("wp-comm.allreduce_chunk_ms", own.2 * 1e3));
    let sum = median_secs(REPS, || {
        black_box(checksum_of(black_box(&chunk)));
    });
    out.push((
        "wp-comm.checksum_gbps",
        (chunk.len() * 4) as f64 / sum / 1e9,
    ));
}

/// Bytes the schedule says one step moves point to point: the schedule's own
/// sends priced by `analysis::total_traffic`, plus the backward-flow reseed
/// `reseed_bwd_flow` ships between steps (one chunk per ring chunk whose
/// owner is not its backward-flow holder).
pub fn analytic_p2p_bytes(w: &Workload, setup: &TrainSetup, schedule: &Schedule) -> u64 {
    let el = w.wire.size_bytes() as u64;
    let chunk = chunk_elems(setup) as u64 * el;
    let act = (setup.microbatch * setup.seq * setup.model.hidden) as u64 * el;
    let bytes = wp_sched::analysis::ByteModel {
        weight_chunk: chunk,
        grad_chunk: chunk,
        act_boundary: act,
        act_grad_boundary: act,
    };
    let scheduled: u64 = wp_sched::analysis::traffic(schedule, &bytes)
        .iter()
        .map(|r| r.p2p)
        .sum();
    let offset = match schedule.strategy {
        Strategy::WeiPipeInterleave => 1,
        Strategy::WeiPipeNaive => 2,
        _ => return scheduled,
    };
    let reseeds = (0..schedule.chunks)
        .filter(|&c| schedule.initial_holder[c] != (c + offset) % schedule.ranks)
        .count() as u64;
    scheduled + reseeds * chunk
}

/// Schedule construction cost and size, and the analytic traffic.
pub fn sched(w: &Workload, setup: &TrainSetup, schedule: &Schedule, out: &mut Metrics) {
    let secs = median_secs(REPS, || {
        black_box(build_schedule(w.strategy, RANKS, setup));
    });
    out.push(("wp-sched.build_validate_ms", secs * 1e3));
    out.push((
        "wp-sched.ops_per_rank",
        (schedule.total_ops() / RANKS) as f64,
    ));
    out.push((
        "wp-sched.analytic_mib_per_step",
        analytic_p2p_bytes(w, setup, schedule) as f64 / MIB,
    ));
}

/// The simulator on this workload's schedule and on a fleet-sized one.
/// Returns the simulated bubble ratio for the drift metric.
pub fn sim(w: &Workload, setup: &TrainSetup, schedule: &Schedule, out: &mut Metrics) -> f64 {
    let cfg = &setup.model;
    let dims = ModelDims {
        hidden: cfg.hidden,
        ffn: cfg.ffn,
        layers: cfg.layers,
        heads: cfg.heads,
        seq: setup.seq,
        microbatch: setup.microbatch,
    };
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), schedule);
    let link = if w.link.is_instant() {
        Link::nvlink_a800()
    } else {
        Link::ethernet_10g()
    };
    let cluster = ClusterSpec::validated(RANKS, 1, link, link).expect("two one-rank nodes");
    let run = || simulate(schedule, &cost, &cluster, SimOptions::default()).expect("schedule fits");
    let secs = median_secs(REPS, || {
        black_box(run());
    });
    out.push(("wp-sim.simulate_ms", secs * 1e3));

    // The same fleet point on every workload: P=64, N=128 on the paper's
    // PCIe + 10 GbE cluster shape.
    let fleet = build(Strategy::WeiPipeInterleave, PipelineSpec::new(64, 128));
    let fleet_cost =
        CostModel::for_schedule(ModelDims::paper(1024, 64, 4096, 4), GpuSpec::a800(), &fleet);
    let fleet_cluster = ClusterSpec::validated(64, 4, Link::pcie4(), Link::ethernet_10g())
        .expect("sixteen four-rank nodes");
    let fleet_secs = median_secs(REPS, || {
        black_box(
            simulate(&fleet, &fleet_cost, &fleet_cluster, SimOptions::default())
                .expect("fleet fits"),
        );
    });
    out.push((
        "wp-sim.fleet_ops_per_s",
        fleet.total_ops() as f64 / fleet_secs,
    ));
    run().bubble_ratio
}

/// Context for comparing machines; not targets.
pub fn host(pool_threads: usize, out: &mut Metrics) {
    out.push(("host.fma_gflops", host::fma_gflops()));
    out.push(("host.stream_gbps", host::stream_gbps()));
    out.push(("host.nproc", host::nproc() as f64));
    out.push(("host.pool_threads", pool_threads as f64));
}
