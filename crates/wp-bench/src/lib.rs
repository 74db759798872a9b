//! Shared formatting helpers for the table/figure binaries, the
//! measured-vs-simulated [`drift`] analysis behind the `trace` binary, the
//! autotuner's [`tune`] points, and the flag readers and one-line failure
//! exit the binaries share.

pub mod drift;
pub mod ranks;
pub mod tune;

use wp_sim::experiments::{CellResult, HierCell, RowConfig, ScalingPoint};

/// The value following flag `name` on this process's command line, when
/// the flag is given — the one flag reader the binaries share.
///
/// # Panics
/// Panics if `name` is the last argument.
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    args.find(|a| a == name).map(|_| {
        args.next()
            .unwrap_or_else(|| panic!("{name} needs a value"))
    })
}

/// Whether flag `name` is on this process's command line.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Print a one-line reason on stderr and exit nonzero — the bench
/// binaries' replacement for `assert!`, so CI logs end with the actual
/// regression instead of a panic backtrace.
pub fn fail(bench: &str, reason: &str) -> ! {
    eprintln!("wp-bench {bench}: FAIL: {reason}");
    std::process::exit(1);
}

/// Render one table in the paper's layout (model config columns, one
/// throughput column per strategy, memory columns).
pub fn format_table(
    title: &str,
    rows: &[(RowConfig, Vec<CellResult>)],
    with_memory: bool,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    let strategies: Vec<&str> = rows
        .first()
        .map(|(_, cells)| cells.iter().map(|c| c.strategy.label()).collect())
        .unwrap_or_default();
    out.push_str(&format!("{:>6} {:>6} {:>4} |", "H", "S", "G"));
    for s in &strategies {
        out.push_str(&format!(" {s:>9}"));
    }
    if with_memory {
        out.push_str(" | Memory(GiB): ");
        out.push_str(&strategies.join("/"));
    }
    out.push('\n');
    for (row, cells) in rows {
        out.push_str(&format!(
            "{:>6} {:>6} {:>4} |",
            row.hidden, row.seq, row.microbatch
        ));
        for c in cells {
            out.push_str(&format!(" {:>9}", c.throughput_str()));
        }
        if with_memory {
            let mems: Vec<String> = cells.iter().map(|c| format!("{:.1}", c.mem_gib)).collect();
            out.push_str(&format!(" | {}", mems.join("/")));
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Render a scaling figure as a text series (total and per-GPU throughput,
/// matching the paper's dual-axis bar charts).
pub fn format_scaling(title: &str, points: &[ScalingPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    let strategies: Vec<&str> = points
        .first()
        .map(|p| p.cells.iter().map(|c| c.strategy.label()).collect())
        .unwrap_or_default();
    out.push_str(&format!("{:>5} {:>6} |", "GPUs", "batch"));
    for s in &strategies {
        out.push_str(&format!(
            " {:>10} {:>10}",
            format!("{s} tot"),
            format!("{s}/gpu")
        ));
    }
    out.push('\n');
    for p in points {
        out.push_str(&format!("{:>5} {:>6} |", p.gpus, p.batch));
        for c in &p.cells {
            let total = c.throughput * p.gpus as f64;
            let (t, g) = if c.oom {
                ("OOM".to_string(), "OOM".to_string())
            } else {
                (
                    format!("{:.0}", total / 1000.0),
                    format!("{:.2}", c.throughput / 1000.0),
                )
            };
            out.push_str(&format!(" {t:>10} {g:>10}"));
        }
        out.push('\n');
    }
    out.push_str("(units: kilo-tokens/s total, kilo-tokens/s/GPU)\n\n");
    out
}

/// Serialize a table as CSV (one row per model config × strategy) for
/// downstream plotting.
pub fn table_csv(rows: &[(RowConfig, Vec<CellResult>)]) -> String {
    let mut out = String::from(
        "hidden,seq,microbatch,strategy,throughput_tokens_per_gpu,mem_gib,oom,bubble_ratio\n",
    );
    for (row, cells) in rows {
        for c in cells {
            out.push_str(&format!(
                "{},{},{},{},{:.1},{:.3},{},{:.4}\n",
                row.hidden,
                row.seq,
                row.microbatch,
                c.strategy.label(),
                c.throughput,
                c.mem_gib,
                c.oom,
                c.bubble_ratio
            ));
        }
    }
    out
}

/// Serialize the flat-vs-grouped comparison as CSV, one row per cluster,
/// seconds in full precision: the pinned form of the `hier` binary's table.
pub fn hier_csv(cells: &[HierCell]) -> String {
    let mut out = String::from(
        "cluster,node_size,flat_iter_s,grouped_iter_s,tuned,tuned_iter_s,\
         flat_xnode_bytes,tuned_xnode_bytes\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            c.label,
            c.node_size,
            c.flat_s,
            c.grouped_s,
            c.tuned.label(),
            c.tuned_s,
            c.flat_xnode_bytes,
            c.tuned_xnode_bytes
        ));
    }
    out
}

/// With `--csv-dir <dir>` on the command line, write `text` to
/// `<dir>/<name>`, the directory created if needed.
///
/// # Panics
/// Panics if the directory or the file cannot be written.
pub fn write_csv_if_asked(name: &str, text: &str) {
    if let Some(dir) = flag_value("--csv-dir") {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        let path = format!("{dir}/{name}");
        std::fs::write(&path, text).expect("write csv");
        eprintln!("(CSV written to {path})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_sched::Strategy;
    use wp_sim::experiments::{run_cell, RowConfig};
    use wp_sim::ClusterSpec;

    #[test]
    fn table_formatting_includes_all_cells() {
        let row = RowConfig {
            hidden: 1024,
            seq: 4096,
            microbatch: 4,
        };
        let cell = run_cell(
            Strategy::WeiPipeInterleave,
            row,
            16,
            &ClusterSpec::nvlink_8(),
            32,
        );
        let txt = format_table("T", &[(row, vec![cell])], true);
        assert!(txt.contains("WeiPipe"));
        assert!(txt.contains("1024"));
        assert!(txt.contains("Memory"));
    }
}
