//! Offline exporters (hand-written: the build is offline). JSON is the
//! exact form — `u64`s as decimal integers, parsed over `wp_trace::json`,
//! whose numbers stay exact as text; gauges in Rust's shortest-round-trip
//! `Display`, so every finite value comes back to the bit, and the
//! non-finite ones as strings. Prometheus text is a view nothing reads back;
//! `tests/fixtures/sample_snapshot.prom` pins its bytes and the line scans
//! in `tests/export_roundtrip.rs` its structure.

use crate::id::{Counter, Gauge, Hist};
use crate::registry::{
    bucket_upper_bound, HistSnapshot, MetricsSnapshot, RankSnapshot, HIST_BUCKETS,
};
use std::fmt::Write as _;
use wp_trace::json::Json;

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Write `snap` to `path` — as JSON when the path ends in `.json`, re-parsed
/// through [`validate_json`] first; as the Prometheus view otherwise.
///
/// # Errors
/// The validator's complaint (the file is still written, for inspection),
/// or the I/O error.
pub fn write_export(snap: &MetricsSnapshot, path: &str) -> Result<(), String> {
    let json = path.ends_with(".json");
    let text = if json {
        export_json(snap)
    } else {
        export_prometheus(snap)
    };
    std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
    if json {
        validate_json(&text).map_err(|e| format!("metrics export failed validation: {e}"))?;
    }
    Ok(())
}

// ---- Prometheus text exposition (write-only) --------------------------------

/// Render a snapshot in the Prometheus text exposition format: one
/// `# TYPE` header per metric, one sample per rank (label `rank="<r>"`),
/// histograms as cumulative `_bucket{le=...}` series with `_sum` and
/// `_count`. Bucket series stop at the highest occupied bucket (plus the
/// mandatory `+Inf` bucket), so empty tails cost nothing.
pub fn export_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    for &c in Counter::ALL {
        let _ = writeln!(out, "# TYPE {} counter", c.name());
        for r in &snap.ranks {
            let _ = writeln!(out, "{}{{rank=\"{}\"}} {}", c.name(), r.rank, r.counter(c));
        }
    }
    for &g in Gauge::ALL {
        let _ = writeln!(out, "# TYPE {} gauge", g.name());
        for r in &snap.ranks {
            let _ = writeln!(
                out,
                "{}{{rank=\"{}\"}} {}",
                g.name(),
                r.rank,
                fmt_f64(r.gauge(g))
            );
        }
    }
    for &h in Hist::ALL {
        let _ = writeln!(out, "# TYPE {} histogram", h.name());
        for r in &snap.ranks {
            let hist = r.hist(h);
            let top = hist.highest_bucket().unwrap_or(0).min(HIST_BUCKETS - 2);
            let mut cum = 0u64;
            for (i, &b) in hist.buckets.iter().enumerate().take(top + 1) {
                cum += b;
                let _ = writeln!(
                    out,
                    "{}_bucket{{rank=\"{}\",le=\"{}\"}} {}",
                    h.name(),
                    r.rank,
                    bucket_upper_bound(i),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{{rank=\"{}\",le=\"+Inf\"}} {}",
                h.name(),
                r.rank,
                hist.count
            );
            let _ = writeln!(out, "{}_sum{{rank=\"{}\"}} {}", h.name(), r.rank, hist.sum);
            let _ = writeln!(
                out,
                "{}_count{{rank=\"{}\"}} {}",
                h.name(),
                r.rank,
                hist.count
            );
        }
    }
    out
}

// ---- JSON (the exact form) --------------------------------------------------

/// Render a snapshot as a JSON document:
///
/// ```json
/// {"wp_metrics":1,"ranks":[{"rank":0,
///   "counters":{"wp_..._total":0,...},
///   "gauges":{"wp_...":0,...},
///   "histograms":{"wp_...":{"count":2,"sum":9,"buckets":[[1,1],[3,1]]}}}]}
/// ```
///
/// Histogram `buckets` are sparse `[index, count]` pairs; non-finite gauges
/// are emitted as the strings `"NaN"` / `"+Inf"` / `"-Inf"` (JSON has no
/// number literals for them).
pub fn export_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"wp_metrics\":1,\"ranks\":[");
    for (ri, r) in snap.ranks.iter().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"rank\":{},\"counters\":{{", r.rank);
        for (i, &c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.name(), r.counter(c));
        }
        out.push_str("},\"gauges\":{");
        for (i, &g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = r.gauge(g);
            if v.is_finite() {
                let _ = write!(out, "\"{}\":{}", g.name(), fmt_f64(v));
            } else {
                let _ = write!(out, "\"{}\":\"{}\"", g.name(), fmt_f64(v));
            }
        }
        out.push_str("},\"histograms\":{");
        for (i, &h) in Hist::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let hist = r.hist(h);
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.name(),
                hist.count,
                hist.sum
            );
            let mut first = true;
            for (b, &v) in hist.buckets.iter().enumerate() {
                if v > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{b},{v}]");
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// One rank entry of an [`export_json`] document.
fn parse_rank(r: &Json, i: usize) -> Result<RankSnapshot, String> {
    let rank = r
        .get("rank")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("rank entry {i} lacks a rank number"))? as usize;
    let family = |key: &str| {
        r.get(key)
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("rank {rank}: missing {key} object"))
    };
    let mut rs = RankSnapshot::empty(rank);
    for (name, v) in family("counters")? {
        let c = Counter::from_name(name)
            .ok_or_else(|| format!("rank {rank}: unknown counter {name}"))?;
        rs.counters[c.index()] = v
            .as_u64()
            .ok_or_else(|| format!("rank {rank}: counter {name} is not a u64"))?;
    }
    for (name, v) in family("gauges")? {
        let g =
            Gauge::from_name(name).ok_or_else(|| format!("rank {rank}: unknown gauge {name}"))?;
        let value = match v {
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "+Inf" => Some(f64::INFINITY),
                "-Inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            number => number.as_f64(),
        };
        rs.gauges[g.index()] =
            value.ok_or_else(|| format!("rank {rank}: gauge {name} is not a number"))?;
    }
    for (name, v) in family("histograms")? {
        let h = Hist::from_name(name)
            .ok_or_else(|| format!("rank {rank}: unknown histogram {name}"))?;
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("rank {rank}: {name} lacks {key}"))
        };
        let (count, sum) = (field("count")?, field("sum")?);
        let pairs = v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("rank {rank}: {name} lacks buckets"))?;
        let mut buckets = vec![0u64; HIST_BUCKETS];
        let mut total = 0u64;
        for p in pairs {
            let pair = p
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("rank {rank}: {name} bucket is not a pair"))?;
            let b = pair[0]
                .as_u64()
                .filter(|&b| (b as usize) < HIST_BUCKETS)
                .ok_or_else(|| format!("rank {rank}: {name} bucket index out of range"))?
                as usize;
            let v = pair[1]
                .as_u64()
                .ok_or_else(|| format!("rank {rank}: {name} bucket count bad"))?;
            if buckets[b] != 0 {
                return Err(format!("rank {rank}: {name} duplicate bucket {b}"));
            }
            buckets[b] = v;
            total += v;
        }
        if total != count {
            return Err(format!(
                "rank {rank}: {name} buckets sum to {total}, count says {count}"
            ));
        }
        rs.hists[h.index()] = HistSnapshot {
            buckets,
            count,
            sum,
        };
    }
    Ok(rs)
}

/// The rank entries of an [`export_json`] document, as written and in
/// document order — what a reader that expects one particular rank (the
/// `wp-bench ranks` launcher) checks before it merges. Strict: the version
/// field must be present, there must be at least one entry, every key must
/// be a known metric of the right family, and histogram bucket totals must
/// equal their `count`.
pub fn parse_json_ranks(text: &str) -> Result<Vec<RankSnapshot>, String> {
    let doc = Json::parse(text)?;
    let version = doc
        .get("wp_metrics")
        .and_then(Json::as_u64)
        .ok_or("missing wp_metrics version field")?;
    if version != 1 {
        return Err(format!("unsupported wp_metrics version {version}"));
    }
    let ranks = doc
        .get("ranks")
        .and_then(Json::as_arr)
        .ok_or("missing ranks array")?;
    if ranks.is_empty() {
        return Err("document holds no ranks".into());
    }
    ranks
        .iter()
        .enumerate()
        .map(|(i, r)| parse_rank(r, i))
        .collect()
}

/// Parse an [`export_json`] document back into a [`MetricsSnapshot`]
/// (strict as [`parse_json_ranks`]; the entries are merged by rank).
pub fn parse_json(text: &str) -> Result<MetricsSnapshot, String> {
    let mut snap = MetricsSnapshot::default();
    for r in parse_json_ranks(text)? {
        snap.merge_rank(r);
    }
    Ok(snap)
}

/// Validate an [`export_json`] document: it must parse under the strict
/// schema of [`parse_json`].
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new(2);
        let m0 = reg.handle(0);
        m0.add(Counter::P2pBytesSent, 4096);
        m0.incr(Counter::P2pMsgsSent);
        m0.set(Gauge::Loss, 3.5);
        m0.set(Gauge::CurrentLr, 3e-4);
        m0.observe(Hist::FwdNs, 1000);
        m0.observe(Hist::FwdNs, 0);
        m0.observe(Hist::FwdNs, u64::MAX); // clamps into the last bucket
        let m1 = reg.handle(1);
        m1.add(Counter::TokensProcessed, 1 << 60);
        m1.set(Gauge::GradNorm, -0.0);
        reg.snapshot()
    }

    /// The exposition's bytes are pinned: `export_prometheus` is a view
    /// nothing parses back, so its format is what this file says it is.
    /// After adding or removing a metric, rewrite it with
    /// `cargo test -p wp-metrics --lib golden -- --ignored` and read the diff.
    #[test]
    fn prometheus_export_matches_the_golden_exposition() {
        let got = export_prometheus(&sample_snapshot());
        let want = include_str!("../tests/fixtures/sample_snapshot.prom");
        let differs = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        assert!(got == want, "first differing line (0-based): {differs:?}");
    }

    #[test]
    #[ignore = "rewrites tests/fixtures/sample_snapshot.prom"]
    fn regenerate_the_golden_exposition() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/sample_snapshot.prom"
        );
        std::fs::write(path, export_prometheus(&sample_snapshot())).expect("fixture is writable");
    }

    #[test]
    fn json_export_roundtrips_through_parser() {
        let mut snap = sample_snapshot();
        // 2^60 + 1 is not representable as f64; a float intermediate would
        // corrupt it.
        snap.ranks[0].counters[Counter::TokensProcessed.index()] = (1 << 60) + 1;
        let text = export_json(&snap);
        assert_eq!(parse_json(&text).expect("export must parse"), snap);
        let entries = parse_json_ranks(&text).expect("export must parse");
        assert_eq!(entries, snap.ranks, "entries come back as written");
    }

    #[test]
    fn non_finite_gauges_are_spelled_out_in_both_formats() {
        let mut snap = MetricsSnapshot::empty(1);
        snap.ranks[0].gauges[Gauge::Loss.index()] = f64::INFINITY;
        snap.ranks[0].gauges[Gauge::GradNorm.index()] = f64::NEG_INFINITY;
        snap.ranks[0].gauges[Gauge::CurrentLr.index()] = f64::NAN;
        let prom = export_prometheus(&snap);
        for line in [
            "wp_train_loss{rank=\"0\"} +Inf\n",
            "wp_train_grad_norm{rank=\"0\"} -Inf\n",
            "wp_optim_lr{rank=\"0\"} NaN\n",
        ] {
            assert!(prom.contains(line), "{line:?} missing from the exposition");
        }
        let json = export_json(&snap);
        assert!(json.contains("\"wp_train_loss\":\"+Inf\""), "{json}");
        let back = parse_json(&json).unwrap();
        assert_eq!(back.ranks[0].gauge(Gauge::Loss), f64::INFINITY);
        assert_eq!(back.ranks[0].gauge(Gauge::GradNorm), f64::NEG_INFINITY);
        assert!(back.ranks[0].gauge(Gauge::CurrentLr).is_nan());
        // A finite number in string clothes is not a gauge value.
        let quoted = json.replace("\"+Inf\"", "\"1.5\"");
        assert!(parse_json(&quoted).is_err());
    }

    #[test]
    fn json_validator_rejects_malformed_documents() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{}").is_err(), "missing version");
        assert!(
            validate_json("{\"wp_metrics\":2,\"ranks\":[]}").is_err(),
            "bad version"
        );
        assert!(
            validate_json("{\"wp_metrics\":1,\"ranks\":[]}").is_err(),
            "no ranks"
        );
        assert!(
            validate_json(&export_json(&MetricsSnapshot::empty(0))).is_err(),
            "an empty world exports but does not validate"
        );
        let bad_bucket = "{\"wp_metrics\":1,\"ranks\":[{\"rank\":0,\
            \"counters\":{},\"gauges\":{},\"histograms\":{\
            \"wp_train_fwd_ns\":{\"count\":3,\"sum\":9,\"buckets\":[[1,1]]}}}]}";
        let err = validate_json(bad_bucket).unwrap_err();
        assert!(err.contains("count says 3"), "{err}");
        assert!(validate_json("{\"wp_metrics\":1,\"ranks\":[{\"rank\":0").is_err());
    }
}
