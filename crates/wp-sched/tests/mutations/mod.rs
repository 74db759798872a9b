//! Seeded single-site mutations of built schedules, and the sweep that
//! records what a checker makes of each. Shared by
//! `wp-sched/tests/props.rs` (does `validate` reject it?) and, through
//! `#[path]`, by `wp-sim/tests/engine_equivalence.rs` (do the engines
//! error?); each pins its outcomes in a `tests/fixtures/mutation_*.txt`.

use std::fmt::Write as _;
use wp_sched::{build, MsgKey, MsgKind, OpKind, PipelineSpec, Schedule, ALL_STRATEGIES};

/// Every mutation, by the name its fixture rows carry.
pub const KINDS: [&str; 8] = [
    "drop-op",
    "swap-adjacent",
    "retarget-src",
    "retarget-dst",
    "retarget-round",
    "duplicate-send",
    "drop-collective-entry",
    "retarget-need",
];

fn key_of(kind: &mut OpKind) -> Option<&mut MsgKey> {
    match kind {
        OpKind::Send(k) | OpKind::Recv(k) => Some(k),
        _ => None,
    }
}

fn is_p2p(kind: &OpKind) -> bool {
    !kind.is_compute() && !kind.is_collective()
}

/// Apply mutation `kind` at the site `seed` picks; describes the site, or
/// `None` when the schedule has none (no collective, ...).
pub fn mutate(s: &mut Schedule, kind: &str, seed: u64) -> Option<String> {
    let p = s.ranks;
    // Sites are `(rank, op index)` in rank-major program order.
    let sites = |s: &Schedule, f: &dyn Fn(usize, usize) -> bool| -> Vec<(usize, usize)> {
        let all = (0..p).flat_map(|r| (0..s.ops[r].len()).map(move |i| (r, i)));
        all.filter(|&(r, i)| f(r, i)).collect()
    };
    let pick = |sites: Vec<(usize, usize)>| {
        // splitmix64 of the seed picks the site.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let n = sites.len() as u64;
        (n > 0).then(|| sites[((z ^ (z >> 31)) % n) as usize])
    };
    let (r, i) = match kind {
        "drop-op" => pick(sites(s, &|_, _| true))?,
        "swap-adjacent" => pick(sites(s, &|r, i| i + 1 < s.ops[r].len()))?,
        "retarget-src" | "retarget-dst" | "retarget-round" => {
            pick(sites(s, &|r, i| is_p2p(&s.ops[r][i].kind)))?
        }
        "duplicate-send" => pick(sites(s, &|r, i| {
            matches!(s.ops[r][i].kind, OpKind::Send(_))
        }))?,
        "drop-collective-entry" => pick(sites(s, &|r, i| s.ops[r][i].kind.is_collective()))?,
        // A need of a point-to-point message for which some *other* rank
        // is sent a message the op could name instead (a weight need keeps
        // its chunk: slot resolution asserts on that, not on delivery).
        "retarget-need" => pick(sites(s, &|r, i| {
            (s.ops[r][i].needs.first()).is_some_and(|k| foreign(s, r, k).is_some())
        }))?,
        _ => panic!("unknown mutation {kind}"),
    };
    let before = format!("{:?}", s.ops[r][i].kind);
    match kind {
        "drop-op" | "drop-collective-entry" => drop(s.ops[r].remove(i)),
        "swap-adjacent" => s.ops[r].swap(i, i + 1),
        "retarget-src" => key_of(&mut s.ops[r][i].kind).map(|k| k.src = (k.src + 1) % p)?,
        "retarget-dst" => key_of(&mut s.ops[r][i].kind).map(|k| k.dst = (k.dst + 1) % p)?,
        "retarget-round" => key_of(&mut s.ops[r][i].kind).map(|k| k.round += 1000)?,
        "duplicate-send" => {
            let copy = s.ops[r][i].clone();
            s.ops[r].insert(i, copy);
        }
        "retarget-need" => {
            let other = foreign(s, r, &s.ops[r][i].needs[0])?;
            s.ops[r][i].needs[0] = other;
        }
        _ => unreachable!(),
    }
    Some(format!("rank {r} op {i} {before}"))
}

/// The first sent key that `like` could be swapped for in a `needs` list
/// on `rank` and that is delivered to some other rank.
fn foreign(s: &Schedule, rank: usize, like: &MsgKey) -> Option<MsgKey> {
    let fits = |k: &MsgKey| {
        k.dst != rank
            && k.kind == like.kind
            && (k.kind != MsgKind::Weights || k.chunk == like.chunk)
    };
    (like.src != like.dst).then_some(())?;
    s.iter_ops().find_map(|(_, op)| match op.kind {
        OpKind::Send(k) if fits(&k) => Some(k),
        _ => None,
    })
}

/// One fixture row per `(strategy, P, overlap, mutation, seed)` with a
/// site: `outcome` judges the mutated schedule.
pub fn sweep(outcome: impl Fn(&Schedule) -> String) -> String {
    let mut out = String::new();
    for &strategy in ALL_STRATEGIES {
        for p in [2usize, 4] {
            for overlap in [true, false] {
                let built = build(strategy, PipelineSpec::new(p, 2 * p).with_overlap(overlap));
                for kind in KINDS {
                    for seed in 0..3 {
                        let mut s = built.clone();
                        let Some(site) = mutate(&mut s, kind, seed) else {
                            continue;
                        };
                        writeln!(
                            out,
                            "{} P={p} overlap={} {kind} seed={seed} ({site}): {}",
                            strategy.label(),
                            u8::from(overlap),
                            outcome(&s)
                        )
                        .expect("writing to a String");
                    }
                }
            }
        }
    }
    out
}

/// Compare a sweep with its checked-in fixture, row by row.
pub fn assert_pinned(got: &str, want: &str, file: &str) {
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{file} line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{file} rows");
}
