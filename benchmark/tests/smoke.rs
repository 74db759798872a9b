//! Drives the built binary on every workload at the `--smoke` shape (H32,
//! S32, one-step rounds): every code path of both runs and the output
//! schema, in seconds. A process of its own per run, as the driver does it,
//! so the allocator-based checks see only the run's own allocations.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_wp-benchmark");

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("start wp-benchmark");
    assert!(
        out.status.success(),
        "wp-benchmark {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// `(name, unit)` of the metrics declared in one section of the manifest.
fn declared(manifest: &str, section: &str, next: Option<&str>) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{section}\""))
        .expect("section exists");
    let end = next.map_or(manifest.len(), |n| {
        manifest.find(&format!("\"{n}\"")).expect("section exists")
    });
    let field = |line: &str, key: &str| {
        let from = line.find(&format!("\"{key}\": \"")).expect("field exists") + key.len() + 5;
        line[from..from + line[from..].find('"').expect("closing quote")].to_string()
    };
    manifest[start..end]
        .lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn check_run(workload: &str, trace: &str, metrics: &[(String, String)]) {
    let out = stdout_of(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--smoke",
    ]);
    let result = out.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": ") && result.ends_with("}}"),
        "{workload} trace {trace}: {out}"
    );
    assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing in {result}"));
        let rest = &result[at + key.len()..];
        let value: f64 = rest[..rest.find(',').expect("a unit follows")]
            .parse()
            .expect("a number");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{workload}: {name}: {rest}"
        );
        // The human-readable listing names the metric too.
        assert!(
            out.lines()
                .any(|l| l.starts_with(name.as_str()) && l.ends_with(unit.as_str())),
            "{name}"
        );
    }
    assert_eq!(
        result.matches("\"value\"").count(),
        metrics.len(),
        "only the declared metrics"
    );
    assert!(out.contains("steps_attempted") && out.contains("steps_failed"));
}

fn check_workload(workload: &str) {
    let manifest = stdout_of(&["manifest"]);
    check_run(
        workload,
        "0",
        &declared(&manifest, "end_to_end", Some("per_layer")),
    );
    check_run(workload, "1", &declared(&manifest, "per_layer", None));
}

#[test]
fn longctx() {
    check_workload("longctx");
}

#[test]
fn widecomm() {
    check_workload("widecomm");
}

#[test]
fn ether() {
    check_workload("ether");
}

#[test]
fn actzb1() {
    check_workload("actzb1");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run"],
        &["run", "--workload", "ether", "--trace", "2"],
        &["frobnicate"],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("start wp-benchmark");
        assert!(!out.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?}"
        );
    }
}

#[test]
fn trace_out_writes_a_valid_trace_and_registry() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-out");
    let dir_arg = dir.to_str().expect("temp path is UTF-8");
    stdout_of(&[
        "run",
        "--workload",
        "actzb1",
        "--seconds",
        "0.2",
        "--trace",
        "1",
        "--smoke",
        "--trace-out",
        dir_arg,
    ]);
    let trace = std::fs::read_to_string(dir.join("actzb1.trace.json")).expect("trace written");
    let registry =
        std::fs::read_to_string(dir.join("actzb1.metrics.json")).expect("registry written");
    std::fs::remove_dir_all(&dir).expect("clean up");
    let stats = wp_trace::validate_chrome_json(&trace).expect("a valid Chrome trace");
    assert!(stats.spans > 0 && stats.tracks == 2);
    wp_metrics::validate_json(&registry).expect("a valid registry export");
}
