//! Regenerate the paper's Tables 2, 3 and 4.
//!
//! ```text
//! tables                        # all three
//! tables --table 2              # one table
//! tables --csv-dir results/csv  # also write table{2,3,4}.csv (the golden fixtures)
//! ```

use wp_bench::{format_table, table_csv, write_csv_if_asked};
use wp_sim::experiments::{table2, table3, table4};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u32>().ok());
    if which.is_none() || which == Some(2) {
        let rows = table2();
        write_csv_if_asked("table2.csv", &table_csv(&rows));
        println!(
            "{}",
            format_table(
                "Table 2 — 16×A800, NVLink within two clusters, 32 layers \
                 (throughput tokens/s/GPU + worst-rank memory)",
                &rows,
                true
            )
        );
    }
    if which.is_none() || which == Some(3) {
        let rows = table3();
        write_csv_if_asked("table3.csv", &table_csv(&rows));
        println!(
            "{}",
            format_table(
                "Table 3 — 16×A800 across 4 clusters, PCIe within + 10 GbE between, 32 layers",
                &rows,
                false
            )
        );
    }
    if which.is_none() || which == Some(4) {
        let rows = table4();
        write_csv_if_asked("table4.csv", &table_csv(&rows));
        println!(
            "{}",
            format_table(
                "Table 4 — 8×A800, single NVLink island, 16 layers \
                 (the small/fast corner where baselines can win)",
                &rows,
                true
            )
        );
    }
}
