//! The frozen fixture for the simulator's bits: Tables 2–4, rebuilt in
//! memory, must equal the checked-in `results/csv/table{2,3,4}.csv` byte
//! for byte. A refactor of the engine, the cost model or a builder that
//! moves any priced cell — throughput, memory, OOM flag or bubble ratio —
//! fails here; an intended change regenerates the files
//! (`tables --csv-dir results/csv`, see EXPERIMENTS.md) in the same commit.

use wp_bench::table_csv;
use wp_sim::experiments::{table2, table3, table4};

#[test]
fn tables_2_to_4_match_the_checked_in_csvs_byte_for_byte() {
    let golden = [
        (2, table2(), include_str!("../../../results/csv/table2.csv")),
        (3, table3(), include_str!("../../../results/csv/table3.csv")),
        (4, table4(), include_str!("../../../results/csv/table4.csv")),
    ];
    for (id, rows, want) in golden {
        let got = table_csv(&rows);
        for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "results/csv/table{id}.csv line {}", n + 1);
        }
        assert_eq!(got, want, "results/csv/table{id}.csv");
    }
}
