//! The frozen fixture for the builders' bits: every strategy over a grid of
//! `(P, N, overlap, recompute)` and every knob value its `Candidate::check`
//! admits (printed under the column of the knob kind the strategy reads)
//! must build the op streams, the memory ledger they imply
//! ([`wp_sched::analysis::mem_deltas`]), seeds, holders, recompute flag and
//! chunk count whose hash is checked in at
//! `tests/fixtures/schedule_fingerprints.txt`, or panic where the fixture
//! says `panic`. A builder refactor leaves the file byte-identical; a change
//! that is meant to move a schedule regenerates it in the same commit:
//!
//! ```sh
//! cargo test -p wp-sched --test schedule_fingerprints -- --ignored
//! ```

use std::fmt::Write as _;
use std::panic::{catch_unwind, set_hook, take_hook};
use std::path::PathBuf;
use std::sync::Mutex;

use wp_sched::analysis::mem_deltas;
use wp_sched::builders::Knob;
use wp_sched::tune::Candidate;
use wp_sched::{build, PipelineSpec, Strategy, ALL_STRATEGIES};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fingerprint(strategy: Strategy, spec: PipelineSpec) -> String {
    match catch_unwind(|| build(strategy, spec)) {
        Ok(s) => {
            let ledger = mem_deltas(&s);
            let ledger: Vec<Vec<Vec<_>>> = (s.ops.iter().zip(&ledger))
                .map(|(ops, ledger)| (0..ops.len()).map(|i| ledger.of(i).collect()).collect())
                .collect();
            let text = format!(
                "{:?}",
                (
                    &s.ops,
                    &ledger,
                    &s.seeds,
                    &s.initial_holder,
                    s.recompute,
                    s.chunks
                )
            );
            format!("{:016x}", fnv1a(text.as_bytes()))
        }
        Err(_) => "panic".to_string(),
    }
}

/// `values` without repeats, first occurrence kept.
fn distinct(values: &[Option<usize>]) -> Vec<Option<usize>> {
    let mut out = Vec::new();
    for v in values {
        if !out.contains(v) {
            out.push(*v);
        }
    }
    out
}

/// The knob values of `values` that `Candidate::check` admits on `strategy`
/// at world size `p` (on an otherwise-default candidate the builders accept
/// there); `None`, the strategy default, always is.
fn admitted(strategy: Strategy, p: usize, values: &[Option<usize>]) -> Vec<Option<usize>> {
    distinct(values)
        .into_iter()
        .filter(|&knob| {
            let c = Candidate {
                knob,
                ..Candidate::default_for(strategy, 2 * p)
            };
            knob.is_none() || c.check(p).is_ok()
        })
        .collect()
}

fn show(knob: Option<usize>) -> String {
    knob.map_or("-".to_string(), |v| v.to_string())
}

/// One line per configuration, in a fixed order.
fn sweep() -> String {
    let mut out = String::new();
    for &strategy in ALL_STRATEGIES {
        for p in [2usize, 3, 4, 8] {
            let kind = strategy.shape().knob.map(|(kind, _)| kind);
            let values = match kind {
                Some(Knob::WLag) => vec![None, Some(0), Some(1), Some(2), Some(5)],
                Some(Knob::Chunks) => vec![None, Some(2), Some(2 * p)],
                Some(Knob::Group) => vec![None, Some(2), Some(p / 2)],
                None => vec![None],
            };
            let knobs = admitted(strategy, p, &values);

            let ns = distinct(&[p, 2 * p, 4 * p, p + 1, 3].map(Some));
            for n in ns.into_iter().flatten() {
                for overlap in [true, false] {
                    for recompute in [true, false] {
                        for &knob in &knobs {
                            let spec = PipelineSpec {
                                recompute,
                                overlap,
                                knob,
                                ..PipelineSpec::new(p, n)
                            };
                            let column = |k| show(knob.filter(|_| kind == Some(k)));
                            writeln!(
                                out,
                                "{} P={p} N={n} overlap={} recompute={} w_lag={} chunks={} group={} : {}",
                                strategy.label(),
                                u8::from(overlap),
                                u8::from(recompute),
                                column(Knob::WLag),
                                column(Knob::Chunks),
                                column(Knob::Group),
                                fingerprint(strategy, spec),
                            )
                            .expect("writing to a String");
                        }
                    }
                }
            }
        }
    }
    out
}

/// [`sweep`] with the panic hook silenced: a builder that rejects a
/// configuration is an expected row here, not a message on stderr. The hook
/// is process-wide, so the two tests take turns at it.
fn quiet_sweep() -> String {
    static HOOK: Mutex<()> = Mutex::new(());
    let _turn = HOOK.lock().expect("no sweep panics outside catch_unwind");
    let hook = take_hook();
    set_hook(Box::new(|_| {}));
    let out = sweep();
    set_hook(hook);
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/schedule_fingerprints.txt")
}

#[test]
fn every_builder_emits_the_checked_in_schedule() {
    let got = quiet_sweep();
    let want = include_str!("fixtures/schedule_fingerprints.txt");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "schedule_fingerprints.txt line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "row count");
}

#[test]
#[ignore = "rewrites tests/fixtures/schedule_fingerprints.txt"]
fn regenerate_the_fixture() {
    std::fs::write(fixture_path(), quiet_sweep()).expect("fixture is writable");
}
