//! Character-level language model trained with WeiPipe on real text.
//!
//! The corpus is the paper's own abstract; a 4-layer model learns it with
//! WeiPipe-Interleave across 4 worker threads, and then greedy decoding
//! regenerates the text it memorised — an end-to-end demonstration that the
//! weight pipeline trains a *working* model, not just matching tensors.
//!
//! ```text
//! cargo run --release -p wp-examples --bin char_lm
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use weipipe::{run_distributed, run_single, DataSource, OptimKind, Strategy, TrainSetup};
use wp_nn::generate::generate_greedy;
use wp_nn::{Model, ModelConfig};
use wp_optim::LrSchedule;

const CORPUS: &str = "training large models with long context lengths requires \
significant communication overhead, which becomes a bottleneck in distributed \
training. weipipe is a weight pipeline parallelism method designed to reduce \
communication costs effectively. by dividing the model weights into pipeline \
stages and overlapping communication with computation, weipipe minimizes idle \
times and achieves a communication-efficient training paradigm. ";

/// Char-level tokenizer over the corpus alphabet.
struct CharVocab {
    to_id: BTreeMap<char, u32>,
    to_char: Vec<char>,
}

impl CharVocab {
    fn new(text: &str) -> Self {
        let mut chars: Vec<char> = text.chars().collect();
        chars.sort_unstable();
        chars.dedup();
        let to_id = chars
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        CharVocab {
            to_id,
            to_char: chars,
        }
    }

    fn encode(&self, text: &str) -> Vec<u32> {
        text.chars().map(|c| self.to_id[&c]).collect()
    }

    fn decode(&self, ids: &[u32]) -> String {
        ids.iter().map(|&i| self.to_char[i as usize]).collect()
    }

    fn len(&self) -> usize {
        self.to_char.len()
    }
}

fn main() {
    let vocab = CharVocab::new(CORPUS);
    let tokens = Arc::new(vocab.encode(CORPUS));
    println!(
        "corpus: {} chars, alphabet {} symbols\n",
        tokens.len(),
        vocab.len()
    );

    let model = ModelConfig::llama_like(64, 4, 4, vocab.len(), 64);
    let mut setup = TrainSetup::tiny(4, 8);
    setup.model = model.clone();
    setup.seed = 1234;
    setup.microbatch = 8;
    setup.seq = 48;
    setup.iters = 60;
    setup.optim = OptimKind::AdamW { lr: 6e-3 };
    setup.lr_schedule = LrSchedule::WarmupCosine {
        warmup: 5,
        total: 60,
        min_ratio: 0.1,
    };
    setup.data = DataSource::Corpus(tokens.clone());

    println!(
        "training {} params on 4 ranks with WeiPipe-Interleave…",
        model.total_params()
    );
    let out = run_distributed(Strategy::WeiPipeInterleave, 4, &setup).expect("healthy world");
    for (i, l) in out.losses.iter().enumerate() {
        if i % 10 == 0 || i + 1 == out.losses.len() {
            println!("  iter {i:>3}: loss {l:.4}");
        }
    }
    println!(
        "\n{:.1} kTok/s across 4 threads, {:.1} MiB weight traffic",
        out.tokens_per_second(&setup) / 1000.0,
        out.bytes_sent as f64 / (1 << 20) as f64
    );

    // Rebuild a Model from the trained parameters and sample from it.
    let trained = Model::from_parts(
        model.clone(),
        out.embed.clone(),
        out.blocks.clone(),
        out.head.clone(),
    )
    .expect("trained buffers match the config");
    let prompt = "weipipe is a ";
    let generated = generate_greedy(&trained, &vocab.encode(prompt), 60);
    println!("\nprompt:    {prompt:?}");
    println!("generated: {:?}", vocab.decode(&generated));

    // Sanity: the distributed result must match single-process training.
    let reference = run_single(&setup);
    println!(
        "\nconsistency vs single process: loss diff {:.2e}, weight diff {:.2e}",
        out.max_loss_diff(&reference),
        out.max_param_diff(&reference)
    );
    assert!(
        out.losses.last().expect("ran") < &1.0,
        "model should fit the corpus"
    );
}
