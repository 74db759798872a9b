//! The frozen fixtures for the simulator's bits: Tables 2–4, the
//! flat-vs-grouped ring comparison and the autotuner's smoke point, rebuilt
//! in memory, must equal the checked-in `results/csv/*.csv` byte for byte.
//! A refactor of the engine, the cost model, a builder or the grid search
//! that moves any priced cell — throughput, memory, OOM flag, bubble ratio;
//! an iteration time by one ulp, a cross-node byte, the tuner's winner or
//! how many candidates it priced — fails here; an intended change
//! regenerates the files in the same commit (the three `--csv-dir
//! results/csv` commands at the top of EXPERIMENTS.md).

use wp_bench::tune::{points, tune_csv};
use wp_bench::{hier_csv, table_csv};
use wp_sim::experiments::{hier_flat_vs_grouped, table2, table3, table4};

fn assert_matches(file: &str, got: &str, want: &str) {
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "results/csv/{file} line {}", n + 1);
    }
    assert_eq!(got, want, "results/csv/{file}");
}

#[test]
fn tables_2_to_4_match_the_checked_in_csvs_byte_for_byte() {
    let golden = [
        (2, table2(), include_str!("../../../results/csv/table2.csv")),
        (3, table3(), include_str!("../../../results/csv/table3.csv")),
        (4, table4(), include_str!("../../../results/csv/table4.csv")),
    ];
    for (id, rows, want) in golden {
        assert_matches(&format!("table{id}.csv"), &table_csv(&rows), want);
    }
}

#[test]
fn flat_vs_grouped_rings_match_the_checked_in_csv_byte_for_byte() {
    let got = hier_csv(&hier_flat_vs_grouped());
    assert_matches(
        "hier.csv",
        &got,
        include_str!("../../../results/csv/hier.csv"),
    );
}

#[test]
fn the_tuner_smoke_point_matches_the_checked_in_csv_byte_for_byte() {
    let rows: Vec<_> = (points(true).iter())
        .map(|pt| pt.tune().expect("a feasible candidate"))
        .collect();
    assert_matches(
        "tune_smoke.csv",
        &tune_csv(&rows),
        include_str!("../../../results/csv/tune_smoke.csv"),
    );
}
