//! Long-context motivation: measure (with the byte-exact traffic meter of
//! the real runtime) how communication volume scales with sequence length
//! under activation-passing 1F1B versus WeiPipe — the paper's §3 crossover,
//! observed on live training runs rather than on paper.
//!
//! ```text
//! cargo run --release -p wp-examples --bin long_context
//! ```

use weipipe::{run_distributed, OptimKind, Strategy, TrainSetup};
use wp_nn::ModelConfig;
use wp_sched::analysis::crossover_ratio;

fn traffic_for(seq: usize, strategy: Strategy) -> u64 {
    let mut setup = TrainSetup::tiny(4, 4);
    setup.model = ModelConfig::llama_like(32, 2, 4, 64, seq.max(64));
    setup.seed = 3;
    setup.seq = seq;
    setup.iters = 1;
    setup.optim = OptimKind::Sgd { lr: 0.1 };
    run_distributed(strategy, 4, &setup)
        .expect("healthy world")
        .bytes_sent
}

fn main() {
    println!("communication bytes for ONE training iteration (4 ranks, H=32, G=2):\n");
    println!(
        "{:>5} | {:>12} | {:>12} | {:>9} | GS/(12H)",
        "S", "1F1B bytes", "WeiPipe bytes", "ratio"
    );
    let mut wp_bytes = Vec::new();
    for seq in [8usize, 16, 32, 64] {
        let f1b = traffic_for(seq, Strategy::OneFOneB);
        let wp = traffic_for(seq, Strategy::WeiPipeInterleave);
        wp_bytes.push(wp);
        println!(
            "{seq:>5} | {f1b:>12} | {wp:>12} | {:>9.2} | {:.2}",
            f1b as f64 / wp as f64,
            crossover_ratio(2, seq, 32),
        );
    }
    // The paper's headline property, measured: WeiPipe's bytes do not grow
    // with context length (weight traffic only), while 1F1B's grow linearly.
    let spread =
        *wp_bytes.iter().max().expect("ran") as f64 / *wp_bytes.iter().min().expect("ran") as f64;
    println!(
        "\nWeiPipe traffic spread across an 8× context sweep: {spread:.3}× \
         (activation-passing grows ~8×)."
    );
    assert!(spread < 1.05, "WeiPipe traffic must be context-independent");
}
