//! Regenerate every simulator artefact under `results/`: Tables 2–4,
//! Figures 1–9, the ablations, the flat-vs-grouped ring comparison and the
//! autotuner's smoke point, as text, SVG and CSV
//! ([`wp_bench::results::render`]). `tests/golden_tables.rs` pins each file
//! byte for byte, so a change meant to move a priced cell reruns this and
//! commits the diff.
//!
//! ```text
//! results            # rewrite results/
//! results out/       # write the same files under out/
//! ```

use std::path::Path;

use wp_bench::{fail, results::render};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = match args.as_slice() {
        [] => "results",
        [dir] if !dir.starts_with('-') => dir,
        _ => fail("results", "usage: results [dir]"),
    };
    for (path, text) in render() {
        let path = Path::new(dir).join(path);
        let parent = path.parent().expect("a file under the directory");
        std::fs::create_dir_all(parent).expect("create the results directory");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("{}", path.display());
    }
}
