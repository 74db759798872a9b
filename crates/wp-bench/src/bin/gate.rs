//! Perf-regression gate: compare `results/bench_*.json` reports against
//! the checked-in floors in `ci/bench_floors.json`.
//!
//! Usage: `gate [--floors ci/bench_floors.json] [--results results]`.
//!
//! Every `min` floor and `max` ceiling is checked against the matching
//! `<bench>.<metric>` value; a missing report or metric counts as a
//! violation (a bench that stops emitting a gated number must not pass
//! silently). On regression the gate prints one readable line per
//! violated bound and exits nonzero.

use std::path::Path;

use wp_bench::ci::{self, Floors, Report};
use wp_bench::flag_value;

const BENCH: &str = "gate";

fn main() {
    let floors_path = flag_value("--floors").unwrap_or_else(|| "ci/bench_floors.json".into());
    let results_dir = flag_value("--results").unwrap_or_else(|| "results".into());

    let floors_src = match std::fs::read_to_string(&floors_path) {
        Ok(s) => s,
        Err(e) => ci::fail(BENCH, &format!("read {floors_path}: {e}")),
    };
    let floors = match Floors::parse(&floors_src) {
        Ok(f) => f,
        Err(e) => ci::fail(BENCH, &format!("parse {floors_path}: {e}")),
    };

    let mut reports: Vec<Report> = Vec::new();
    let entries = match std::fs::read_dir(Path::new(&results_dir)) {
        Ok(entries) => entries,
        Err(e) => ci::fail(BENCH, &format!("read {results_dir}/: {e}")),
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("bench_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in &paths {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => ci::fail(BENCH, &format!("read {}: {e}", path.display())),
        };
        match Report::parse(&src) {
            Ok(r) => {
                println!("loaded {} ({} metrics)", path.display(), r.metrics.len());
                reports.push(r);
            }
            Err(e) => ci::fail(BENCH, &format!("parse {}: {e}", path.display())),
        }
    }

    match floors.check(&reports) {
        Ok(lines) => {
            for line in &lines {
                println!("ok   {line}");
            }
            println!("gate: {} bounds satisfied, 0 regressions", lines.len());
        }
        Err(lines) => {
            for line in &lines {
                eprintln!("FAIL {line}");
            }
            ci::fail(
                BENCH,
                &format!("{} bound(s) violated (see lines above)", lines.len()),
            );
        }
    }
}
