//! The benchmark's contract in one place: metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is this table
//! rendered by the `manifest` subcommand; a unit test keeps the two equal.

use crate::workload::WORKLOADS;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}
use Better::{Higher, Lower};

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Higher => "higher",
            Lower => "lower",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Higher => (base - new) / base,
            Lower => (new - base) / base,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures, as the driver passes to `--seconds`.
pub const RUN_SECONDS: u64 = 20;
/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;

pub const END_TO_END: [EndToEnd; 6] = [
    // The timing bounds are as wide as the contract allows: on the 2-vCPU
    // reference host the run-to-run spread of every timing is 2-14 % whatever
    // the run length (see the README), and a bound must exceed the spread.
    EndToEnd {
        name: "tokens_per_s",
        unit: "tok/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // The arenas never shrink, so the mark sits on one of a few levels 4 %
    // apart, set by the widest interleaving the ranks happened to reach;
    // ten `actzb1` runs spread over three of them (8 %).
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
    // An exact count; the bound only has to be smaller than one message.
    EndToEnd {
        name: "comm_mib_per_step",
        unit: "MiB",
        better: Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "cpu_ms_per_token",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 57] = [
    layer("wp-tensor.matmul_nn_gflops", "GFLOP/s", Higher),
    layer("wp-tensor.matmul_nt_gflops", "GFLOP/s", Higher),
    layer("wp-tensor.matmul_tn_gflops", "GFLOP/s", Higher),
    layer("wp-tensor.quantize_f16_gbps", "GB/s", Higher),
    layer("wp-nn.attn_fwd_gflops", "GFLOP/s", Higher),
    layer("wp-nn.attn_bwd_gflops", "GFLOP/s", Higher),
    layer("wp-nn.block_fwd_ms", "ms", Lower),
    layer("wp-nn.block_bwd_full_ms", "ms", Lower),
    layer("wp-nn.block_bwd_recompute_ms", "ms", Lower),
    layer("wp-nn.block_bwd_data_ms", "ms", Lower),
    layer("wp-nn.block_bwd_weight_ms", "ms", Lower),
    layer("wp-nn.warm_allocs", "count", Lower),
    layer("wp-nn.fwd_share", "share", Lower),
    layer("wp-nn.bwd_share", "share", Lower),
    layer("wp-nn.wgrad_share", "share", Lower),
    layer("wp-optim.adamw_ns_per_param", "ns", Lower),
    layer("wp-optim.step_share", "share", Lower),
    layer("wp-comm.p2p_msgs_per_step", "count", Lower),
    layer("wp-comm.p2p_mib_per_step", "MiB", Lower),
    layer("wp-comm.coll_mib_per_step", "MiB", Lower),
    layer("wp-comm.chan_chunk_gbps", "GB/s", Higher),
    layer("wp-comm.tcp_chunk_gbps", "GB/s", Higher),
    layer("wp-comm.chan_msg_us", "us", Lower),
    layer("wp-comm.tcp_msg_us", "us", Lower),
    layer("wp-comm.allreduce_chunk_ms", "ms", Lower),
    layer("wp-comm.checksum_gbps", "GB/s", Higher),
    layer("wp-comm.recv_wait_share", "share", Lower),
    layer("wp-comm.recv_xfer_share", "share", Lower),
    layer("wp-comm.send_share", "share", Lower),
    layer("wp-comm.coll_self_share", "share", Lower),
    layer("wp-comm.pacing_stall_share", "share", Lower),
    layer("wp-comm.recv_retries_per_step", "count", Lower),
    layer("wp-comm.world_spawn_ms", "ms", Lower),
    layer("wp-sched.build_validate_ms", "ms", Lower),
    layer("wp-sched.ops_per_rank", "count", Lower),
    layer("wp-sched.analytic_mib_per_step", "MiB", Lower),
    layer("weipipe.bubble_share", "share", Lower),
    layer("weipipe.other_share", "share", Lower),
    layer("weipipe.interp_us_per_op", "us", Lower),
    layer("weipipe.runtime_init_ms", "ms", Lower),
    layer("weipipe.warmup_ms", "ms", Lower),
    layer("weipipe.ckpt_capture_ms", "ms", Lower),
    layer("weipipe.assemble_ms", "ms", Lower),
    layer("weipipe.single_tokens_per_s", "tok/s", Higher),
    layer("weipipe.scaling_efficiency", "share", Higher),
    layer("weipipe.step_ms_max", "ms", Lower),
    layer("weipipe.window_tokens_per_s", "tok/s", Higher),
    layer("weipipe.trace_overhead_pct", "%", Lower),
    layer("wp-sim.simulate_ms", "ms", Lower),
    layer("wp-sim.fleet_ops_per_s", "1/s", Higher),
    layer("wp-sim.bubble_drift_pp", "pp", Lower),
    layer("wp-trace.spans_per_step", "count", Lower),
    layer("wp-trace.dropped_spans", "count", Lower),
    layer("host.fma_gflops", "GFLOP/s", Higher),
    layer("host.stream_gbps", "GB/s", Higher),
    layer("host.nproc", "count", Higher),
    layer("host.pool_threads", "count", Higher),
];

/// The declared unit of a metric name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
    }
}
