//! The frozen fixtures for the simulator's bits: every artefact
//! `wp_bench::results::render` produces — Tables 2–4 and Figures 1–9 as text
//! and SVG, the paper-fidelity scoreboard, the ablations, the flat-vs-grouped
//! ring comparison and the CSVs — must equal the checked-in file under
//! `results/` byte for byte, and `results/` must hold nothing else besides
//! [`NOT_RENDERED`]. A
//! refactor of the engine, the cost model, a builder, the grid search or a
//! formatter that moves any priced cell — throughput, memory, OOM flag,
//! bubble ratio; an iteration time by one ulp, a cross-node byte, the
//! tuner's winner or how many candidates it priced — fails here, and so does
//! an artefact no longer rendered or never registered. An intended change
//! reruns the `results` binary and commits the diff.

use std::collections::BTreeSet;
use std::path::Path;

use wp_bench::results::render;

/// The files under `results/` that no simulator renders: the index, the
/// kernel microbenchmark, which the host measures, and the paper's cells,
/// the scoreboard's hand-entered input.
const NOT_RENDERED: [&str; 3] = ["README.md", "kernels.txt", "paper_cells.csv"];

/// Every file under `dir`, as a path relative to `root`.
fn files_under(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("read results/") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            files_under(root, &path, out);
        } else {
            let rel = path.strip_prefix(root).expect("under results/");
            out.insert(rel.to_str().expect("a UTF-8 path").to_string());
        }
    }
}

/// The first line where `got` and `want` differ, if they do.
fn first_difference(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let mismatch = (got.lines().zip(want.lines())).position(|(g, w)| g != w);
    Some(match mismatch {
        Some(n) => format!(
            "line {}: rendered {:?}, checked in {:?}",
            n + 1,
            got.lines().nth(n).unwrap_or_default(),
            want.lines().nth(n).unwrap_or_default()
        ),
        None => format!(
            "rendered {} lines ({} bytes), checked in {} lines ({} bytes)",
            got.lines().count(),
            got.len(),
            want.lines().count(),
            want.len()
        ),
    })
}

#[test]
fn every_results_artefact_matches_the_checked_in_file_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let artefacts = render();

    let rendered: BTreeSet<String> = artefacts.iter().map(|(path, _)| path.clone()).collect();
    assert_eq!(rendered.len(), artefacts.len(), "a path rendered twice");
    let mut checked_in = BTreeSet::new();
    files_under(&root, &root, &mut checked_in);
    for name in NOT_RENDERED {
        assert!(checked_in.remove(name), "results/{name} is missing");
    }
    let unrendered: Vec<_> = checked_in.difference(&rendered).collect();
    let missing: Vec<_> = rendered.difference(&checked_in).collect();
    assert!(
        unrendered.is_empty() && missing.is_empty(),
        "under results/ but not rendered: {unrendered:?}; rendered but not under results/: {missing:?}"
    );

    let mismatches: Vec<String> = (artefacts.iter())
        .filter_map(|(path, got)| {
            let want = std::fs::read_to_string(root.join(path)).expect("read a results file");
            first_difference(got, &want).map(|d| format!("results/{path} {d}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
