//! Property tests for the exporters: for arbitrary registry contents, the
//! JSON document must validate under its strict parser and parse back into
//! the snapshot exactly — counters and histogram sums to the bit (`u64`),
//! gauges to the bit for every finite value (shortest-round-trip
//! `Display`), whole worlds and the one-rank documents the multi-process
//! launcher ships alike — and the Prometheus view, which nothing parses,
//! must be well-formed line by line and carry the same exact values.

use proptest::prelude::*;
use wp_metrics::{
    export_json, export_prometheus, parse_json, parse_json_ranks, validate_json, Counter, Gauge,
    Hist, HistSnapshot, MetricsSnapshot, HIST_BUCKETS,
};

/// Deterministic splitmix64 — fills snapshots from one seed without
/// depending on any RNG crate's distribution details.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn arbitrary_snapshot(seed: u64, ranks: usize, dense: bool) -> MetricsSnapshot {
    let mut s = seed;
    let mut snap = MetricsSnapshot::empty(ranks);
    for r in &mut snap.ranks {
        for c in r.counters.iter_mut() {
            // Mix tiny and huge values; exercise > 2^53 (f64-unsafe) often.
            *c = match splitmix(&mut s) % 4 {
                0 => 0,
                1 => splitmix(&mut s) % 100,
                2 => splitmix(&mut s) >> (splitmix(&mut s) % 40),
                _ => splitmix(&mut s),
            };
        }
        for g in r.gauges.iter_mut() {
            let bits = splitmix(&mut s);
            let v = f64::from_bits(bits);
            // Finite values only: NaN breaks equality, and infinities are
            // covered by a dedicated unit test.
            *g = if v.is_finite() {
                v
            } else {
                (bits >> 11) as f64
            };
        }
        for h in r.hists.iter_mut() {
            let observations = if dense {
                40
            } else {
                splitmix(&mut s) as usize % 8
            };
            let mut hist = HistSnapshot::default();
            for _ in 0..observations {
                let shift = splitmix(&mut s) % 64;
                let bucket = wp_metrics_bucket(splitmix(&mut s) >> shift);
                hist.buckets[bucket] += 1;
                hist.count += 1;
            }
            hist.sum = splitmix(&mut s); // sum is independent of buckets
            *h = hist;
        }
    }
    snap
}

/// The crate's bucket rule, restated so the test does not depend on
/// private internals: 0 → 0, else min(64 − leading_zeros, 63).
fn wp_metrics_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// What a scraper needs of the exposition, checked by plain line scans
/// (nothing reads this format back, so there is no parser to ask): one
/// `# TYPE` per family, ahead of that family's samples; one sample per rank
/// carrying exactly the snapshot's value; every bucket series cumulative
/// over rising bounds and closed by a `+Inf` bucket equal to `_count`.
fn check_exposition(text: &str, snap: &MetricsSnapshot) {
    let mut families: Vec<&str> = Vec::new();
    let mut kind = "";
    let mut scalars = 0;
    let mut series: Vec<(u64, u64)> = Vec::new();
    let mut inf = None;
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, k) = decl.split_once(' ').expect("TYPE <name> <kind>");
            assert!(!families.contains(&name), "duplicate TYPE {name}");
            families.push(name);
            kind = k;
            continue;
        }
        let family = *families.last().expect("a sample precedes every TYPE");
        let (head, value) = line.rsplit_once(' ').expect("<series> <value>");
        let (name, labels) = head.split_once("{rank=\"").expect("a rank label");
        let (rank, rest) = labels.split_once('"').expect("a quoted rank");
        let le = rest
            .strip_prefix(",le=\"")
            .and_then(|l| l.strip_suffix("\"}"));
        assert!(le.is_some() || rest == "}", "label set {labels:?}");
        let rank: usize = rank.parse().expect("rank");
        let r = &snap.ranks[rank];
        match kind {
            "counter" => {
                let c = Counter::from_name(name).filter(|_| name == family);
                assert_eq!(
                    value.parse(),
                    Ok(r.counter(c.expect("sample under its TYPE")))
                );
                scalars += 1;
            }
            "gauge" => {
                let g = Gauge::from_name(name).filter(|_| name == family);
                let v: f64 = value.parse().expect("gauge value");
                assert_eq!(
                    v.to_bits(),
                    r.gauge(g.expect("sample under its TYPE")).to_bits()
                );
                scalars += 1;
            }
            "histogram" => {
                let h = r.hist(Hist::from_name(family).expect("declared histogram"));
                let v: u64 = value.parse().expect("histogram value");
                match name.strip_prefix(family).expect("sample under its TYPE") {
                    "_bucket" => match le.expect("le label") {
                        "+Inf" => inf = Some(v),
                        bound => series.push((bound.parse().expect("le bound"), v)),
                    },
                    "_sum" => assert_eq!(v, h.sum),
                    "_count" => {
                        assert_eq!(v, h.count);
                        assert_eq!(inf.take(), Some(v), "+Inf bucket == _count");
                        assert!(series
                            .windows(2)
                            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
                        for (bound, cum) in series.drain(..) {
                            let upto = &h.buckets[..=wp_metrics_bucket(bound)];
                            assert_eq!(cum, upto.iter().sum::<u64>(), "le={bound}");
                        }
                    }
                    other => panic!("unexpected histogram series suffix {other:?}"),
                }
            }
            other => panic!("unknown TYPE kind {other:?}"),
        }
    }
    assert_eq!(families.len(), Counter::COUNT + Gauge::COUNT + Hist::COUNT);
    assert_eq!(scalars, (Counter::COUNT + Gauge::COUNT) * snap.ranks.len());
    assert!(
        series.is_empty() && inf.is_none(),
        "a bucket series without its _count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prometheus_exposition_is_well_formed(seed in 0u64..u64::MAX, ranks in 1usize..5) {
        let snap = arbitrary_snapshot(seed, ranks, seed % 3 == 0);
        check_exposition(&export_prometheus(&snap), &snap);
    }

    #[test]
    fn json_roundtrips_exactly(seed in 0u64..u64::MAX, ranks in 1usize..5) {
        let snap = arbitrary_snapshot(seed, ranks, seed % 3 == 1);
        let text = export_json(&snap);
        validate_json(&text).expect("export must validate");
        prop_assert_eq!(parse_json(&text).expect("export must parse"), snap);
    }

    #[test]
    fn one_rank_documents_roundtrip_exactly(seed in 0u64..u64::MAX, ranks in 1usize..5) {
        let snap = arbitrary_snapshot(seed, ranks, false);
        for r in &snap.ranks {
            let doc = export_json(&MetricsSnapshot { ranks: vec![r.clone()] });
            prop_assert_eq!(doc.trim_end().lines().count(), 1, "a heartbeat is one line");
            let back = parse_json_ranks(&doc).expect("document must parse");
            prop_assert_eq!(back.as_slice(), std::slice::from_ref(r));
        }
    }

    #[test]
    fn truncated_documents_never_parse(seed in 0u64..u64::MAX, cut in 0.0f64..1.0) {
        // Cutting a JSON document anywhere inside must fail, not yield a
        // quietly different snapshot.
        let json = export_json(&arbitrary_snapshot(seed, 2, true));
        let cut = (cut * (json.trim_end().len() - 1) as f64) as usize;
        prop_assert!(parse_json(&json[..cut]).is_err());
    }
}
