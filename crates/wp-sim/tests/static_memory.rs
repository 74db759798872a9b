//! The frozen fixture for what a rank holds for the whole iteration:
//! [`CostModel::static_mem_bytes`] of every rank, for every strategy at
//! P ∈ {2, 4, 8} and every knob value its `Candidate::check` admits, must
//! equal `tests/fixtures/static_mem.txt`. A change that is meant to move a
//! cell rewrites the file in the same commit, and the diff is the list of
//! cells that moved:
//!
//! ```sh
//! cargo test -p wp-sim --test static_memory -- --ignored
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use wp_sched::tune::Candidate;
use wp_sched::{build, ALL_STRATEGIES};
use wp_sim::{CostModel, GpuSpec, ModelDims};

/// One line per configuration — every rank's bytes — in a fixed order.
fn sweep() -> String {
    let mut out = String::new();
    for &strategy in ALL_STRATEGIES {
        for p in [2usize, 4, 8] {
            let base = Candidate::default_for(strategy, 2 * p);
            let mut knobs = vec![base];
            for v in [0, 1, 2, 5, p / 2, 2 * p] {
                let c = Candidate {
                    knob: Some(v),
                    ..base
                };
                if !knobs.contains(&c) {
                    knobs.push(c);
                }
            }
            for c in knobs.iter().filter(|c| c.check(p).is_ok()) {
                let s = build(strategy, c.spec(p));
                let dims = ModelDims::paper(1024, 32, 4096, 16);
                let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &s);
                let ranks: Vec<String> = (0..p)
                    .map(|r| cost.static_mem_bytes(&s, r).to_string())
                    .collect();
                writeln!(out, "P={p} {} : {}", c.label(), ranks.join(" "))
                    .expect("writing to a String");
            }
        }
    }
    out
}

#[test]
fn every_rank_holds_the_checked_in_bytes() {
    let got = sweep();
    let want = include_str!("fixtures/static_mem.txt");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "static_mem.txt line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "row count");
}

#[test]
#[ignore = "rewrites tests/fixtures/static_mem.txt"]
fn regenerate_the_fixture() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/static_mem.txt");
    std::fs::write(path, sweep()).expect("fixture is writable");
}
