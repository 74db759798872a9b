//! Quickstart: train a small Llama-style model with WeiPipe-Interleave on
//! four worker threads, and verify the result against single-process
//! training.
//!
//! ```text
//! cargo run --release -p wp-examples --bin quickstart
//! ```
//!
//! Pass `--trace-out <path>` to record every rank's compute/comm spans and
//! export them as Chrome trace-event JSON — open the file at
//! <https://ui.perfetto.dev> (or `chrome://tracing`). The traced run also
//! injects benign (delay-only) faults so the fault instant events are
//! visible on the timeline; delay-only faults never change the result.
//!
//! Pass `--metrics-out <path>` to meter the run (counters, gauges,
//! latency histograms on every rank) and export the world snapshot: JSON —
//! the exact, validated form — when the path ends in `.json`, the
//! Prometheus text view otherwise. Metrics are strictly observational — the metered run trains
//! bit-identically to an unmetered one.

use weipipe::{run_distributed, run_single, OptimKind, Strategy, TrainSetup};
use wp_comm::{FaultPlan, LinkModel};
use wp_nn::ModelConfig;
use wp_tensor::DType;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).expect("--trace-out needs a path").clone());
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .map(|i| args.get(i + 1).expect("--metrics-out needs a path").clone());

    // A 4-layer model small enough to train on threads in seconds, but
    // structurally a real Llama block stack (RMSNorm, RoPE attention,
    // SwiGLU FFN, tied causal-LM loss).
    let model = ModelConfig::llama_like(32, 2, 4, 64, 64);
    let setup = TrainSetup {
        model,
        seed: 7,
        microbatch: 2,
        seq: 16,
        microbatches: 8,
        iters: 8,
        lr_schedule: wp_optim::LrSchedule::Constant,
        loss_scale: 1.0,
        optim: OptimKind::AdamW { lr: 3e-3 },
        wire: DType::F32,
        link: LinkModel::instant(),
        recompute: false,
        data: weipipe::DataSource::Synthetic,
        faults: trace_out
            .is_some()
            .then(|| FaultPlan::new(7).with_delay_jitter(std::time::Duration::from_micros(40))),
        comm: wp_comm::CommConfig::default(),
        trace: if trace_out.is_some() {
            weipipe::TraceConfig::on()
        } else {
            weipipe::TraceConfig::off()
        },
        metrics: if metrics_out.is_some() {
            weipipe::MetricsConfig::on()
        } else {
            weipipe::MetricsConfig::off()
        },
        overlap: true,
        transport: weipipe::TransportKind::InProcess,
        w_lag: None,
        chunks: None,
        group: None,
        resume: None,
        start_iter: 0,
    };

    println!("training 4-layer model on 4 ranks with WeiPipe-Interleave…\n");
    let wp = run_distributed(Strategy::WeiPipeInterleave, 4, &setup).expect("healthy world");
    let reference = run_single(&setup);

    println!("iter |  WeiPipe loss | single-process loss");
    for (i, (a, b)) in wp.losses.iter().zip(&reference.losses).enumerate() {
        println!("{i:>4} | {a:>13.5} | {b:>19.5}");
    }
    println!(
        "\nmax loss difference:  {:.2e}",
        wp.max_loss_diff(&reference)
    );
    println!(
        "max weight difference: {:.2e}",
        wp.max_param_diff(&reference)
    );
    println!(
        "bytes moved by the weight pipeline: {:.1} MiB",
        wp.bytes_sent as f64 / (1 << 20) as f64
    );
    assert!(
        wp.losses.last().expect("ran") < wp.losses.first().expect("ran"),
        "training should reduce the loss"
    );

    if let Some(path) = trace_out {
        let trace = wp.trace.as_ref().expect("tracing was enabled");
        let json = wp_trace::export_chrome_json(trace);
        let stats = wp_trace::validate_chrome_json(&json).expect("export must be valid");
        assert!(
            stats.instants > 0,
            "injected faults must appear as instant events"
        );
        std::fs::write(&path, &json).expect("write trace file");
        println!(
            "\nwrote {} spans across {} ranks to {path} (measured bubble ratio {:.1}%)",
            trace.span_count(),
            trace.tracks.len(),
            trace.bubble_ratio() * 100.0
        );
        println!("open it at https://ui.perfetto.dev or chrome://tracing");
    }

    if let Some(path) = metrics_out {
        use wp_metrics::Counter;
        let snap = wp.metrics.as_ref().expect("metrics were enabled");
        wp_metrics::write_export(snap, &path).expect("export must validate");
        println!(
            "\nwrote metrics for {} ranks to {path}: {} steps, {} P2P bytes, {} collective bytes",
            snap.world_size(),
            snap.total(Counter::StepsCompleted) / snap.world_size() as u64,
            snap.total(Counter::P2pBytesSent),
            snap.total(Counter::CollBytesSent),
        );
    }

    println!("\nWeiPipe trained the model to the same trajectory as one process. ✓");
}
