//! Property-based tests over the schedule builders: validity and the
//! paper's traffic invariants must hold for arbitrary (strategy, P, N).

mod mutations;

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wp_sched::analysis::{total_traffic, ByteModel};
use wp_sched::{build, validate, DepGraph, PipelineSpec, Strategy as Strat, ALL_STRATEGIES};

fn arb_strategy() -> impl Strategy<Value = Strat> {
    prop::sample::select(ALL_STRATEGIES.to_vec())
}

/// `validate`'s verdict on every seeded mutation: `ok`, `reject`, or
/// `panic` where it does not return at all.
fn mutation_verdicts() -> String {
    mutations::sweep(|s| match catch_unwind(AssertUnwindSafe(|| validate(s))) {
        Ok(Ok(())) => "ok".into(),
        Ok(Err(_)) => "reject".into(),
        Err(_) => "panic".into(),
    })
}

/// One broken op per case (`tests/mutations`): what `validate` says of each
/// is pinned in `tests/fixtures/mutation_verdicts.txt`. A change to the
/// validator may turn an `ok` into a `reject`, never the reverse; rewrite
/// the file with `-- --ignored` and read the diff.
#[test]
fn validate_judges_every_mutation_as_pinned() {
    let (got, want) = (
        mutation_verdicts(),
        include_str!("fixtures/mutation_verdicts.txt"),
    );
    mutations::assert_pinned(&got, want, "mutation_verdicts.txt");
    // The two kinds the walkers before `DepGraph` let through.
    for row in got.lines() {
        let caught = !row.contains(" retarget-need ") && !row.contains(" drop-collective-entry ");
        assert!(caught || row.ends_with(": reject"), "{row}");
    }
}

/// A rejection by the graph itself names the edge: a rank, an op index and
/// a key (whose other end is the peer).
#[test]
fn every_mutation_the_graph_rejects_names_its_edge() {
    mutations::sweep(|s| {
        let order = DepGraph::build(s).and_then(|g| g.topological_order());
        let said = order.err().map_or("rank op MsgKey {".into(), |e| e.0);
        assert!(
            ["rank ", " op ", "MsgKey {"]
                .iter()
                .all(|part| said.contains(part)),
            "{said}"
        );
        said
    });
}

#[test]
#[ignore = "rewrites tests/fixtures/mutation_verdicts.txt"]
fn regenerate_the_mutation_verdicts() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/mutation_verdicts.txt"
    );
    std::fs::write(path, mutation_verdicts()).expect("fixture is writable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_builder_validates_everywhere(
        strategy in arb_strategy(),
        p in 2usize..7,
        mult in 1usize..4,
        recompute in any::<bool>()
    ) {
        // WZB1 needs even P; round up.
        let p = if strategy == Strat::Wzb1 { p + p % 2 } else { p };
        let n = 2 * p * mult; // satisfies every builder's divisibility rule
        let spec = if recompute {
            PipelineSpec::new(p, n)
        } else {
            PipelineSpec::new(p, n).without_recompute()
        };
        let s = build(strategy, spec);
        prop_assert!(validate(&s).is_ok(), "{:?} P={} N={}", strategy, p, n);
        prop_assert_eq!(s.ranks, p);
        prop_assert_eq!(s.microbatches, n);
    }

    /// Every seed is load-bearing: take any one away and some op reads or
    /// sends a weight copy its rank does not hold, which the validator
    /// reports instead of leaving the runtime to panic on it.
    #[test]
    fn a_dropped_seed_fails_validation(
        strategy in arb_strategy(),
        p in 2usize..7,
        mult in 1usize..3,
        pick in any::<usize>()
    ) {
        let p = if strategy == Strat::Wzb1 { p + p % 2 } else { p };
        let mut s = build(strategy, PipelineSpec::new(p, 2 * p * mult));
        let rank = pick % p;
        let seeds = &mut s.seeds[rank];
        let dropped = seeds.remove((pick / p) % seeds.len());
        let err = validate(&s);
        prop_assert!(
            err.as_ref().is_err_and(|e| e.0.contains("weight copy")),
            "{:?} P={}: rank {} lost {:?}, validate said {:?}", strategy, p, rank, dropped, err
        );
    }

    #[test]
    fn weight_passing_traffic_ignores_activation_payload(
        p in 2usize..6,
        mult in 1usize..4,
        act in 1u64..1_000_000,
        weight in 1u64..1_000_000
    ) {
        let n = 2 * p * mult;
        for strategy in [Strat::WeiPipeNaive, Strat::WeiPipeInterleave, Strat::Wzb2] {
            let s = build(strategy, PipelineSpec::new(p, n));
            let t1 = total_traffic(&s, &ByteModel {
                weight_chunk: weight, grad_chunk: weight,
                act_boundary: 1, act_grad_boundary: 1,
            });
            let t2 = total_traffic(&s, &ByteModel {
                weight_chunk: weight, grad_chunk: weight,
                act_boundary: act, act_grad_boundary: act,
            });
            prop_assert_eq!(t1, t2, "{:?}", strategy);
        }
    }

    #[test]
    fn act_passing_traffic_ignores_weight_payload(
        p in 2usize..6,
        mult in 1usize..4,
        weight in 1u64..1_000_000
    ) {
        let n = p * mult;
        for strategy in [Strat::GPipe, Strat::OneFOneB, Strat::Zb1, Strat::Zb2] {
            let s = build(strategy, PipelineSpec::new(p, n));
            let t1 = total_traffic(&s, &ByteModel {
                weight_chunk: 1, grad_chunk: 1,
                act_boundary: 777, act_grad_boundary: 777,
            });
            let t2 = total_traffic(&s, &ByteModel {
                weight_chunk: weight, grad_chunk: weight,
                act_boundary: 777, act_grad_boundary: 777,
            });
            prop_assert_eq!(t1, t2, "{:?}", strategy);
        }
    }

    #[test]
    fn act_passing_traffic_scales_linearly_with_microbatches(
        p in 2usize..6,
        mult in 1usize..4
    ) {
        let bm = ByteModel { weight_chunk: 0, grad_chunk: 0, act_boundary: 100, act_grad_boundary: 100 };
        let n1 = p * mult;
        let n2 = 2 * n1;
        let t1 = total_traffic(&build(Strat::OneFOneB, PipelineSpec::new(p, n1)), &bm);
        let t2 = total_traffic(&build(Strat::OneFOneB, PipelineSpec::new(p, n2)), &bm);
        prop_assert_eq!(t2, 2 * t1, "activation traffic is linear in N");
    }

    #[test]
    fn compute_work_identical_across_strategies(
        p in 2usize..6,
        mult in 1usize..4
    ) {
        // Every strategy performs exactly N×C forward chunk-ops and the
        // backward-equivalent — the work is invariant; only the schedule
        // differs. (DDP/FSDP count once per mb too: their ranks split N.)
        let n = 2 * p * mult;
        let mut counts = Vec::new();
        for &strategy in ALL_STRATEGIES {
            if strategy == Strat::Wzb1 && p % 2 == 1 {
                continue;
            }
            let s = build(strategy, PipelineSpec::new(p, n));
            let fwd = s
                .iter_ops()
                .filter(|(_, op)| matches!(op.kind, wp_sched::OpKind::Fwd { .. }))
                .count();
            counts.push((strategy, fwd));
        }
        for (strategy, fwd) in counts {
            prop_assert_eq!(fwd, n * p, "{:?}", strategy);
        }
    }

    /// Traffic conservation on grouped hierarchical schedules: every send
    /// has exactly one matching recv posting world-wide, and per-class
    /// byte totals balance — nothing is lost or duplicated at the bridge
    /// store-and-forward hops.
    #[test]
    fn grouped_hier_traffic_conserves_per_class(
        shape in 0usize..4,
        mult in 1usize..4,
        overlap in any::<bool>()
    ) {
        use std::collections::{HashMap, HashSet};
        use wp_sched::{MsgKey, MsgKind, OpKind};

        let (p, g) = [(4, 2), (6, 3), (8, 2), (8, 4)][shape];
        let n = p * mult;
        let spec = PipelineSpec::new(p, n).with_overlap(overlap).with_group(g);
        let s = build(Strat::WeiPipeHier, spec);
        prop_assert!(validate(&s).is_ok(), "P={} g={} N={}", p, g, n);

        let bm = ByteModel {
            weight_chunk: 1_000, grad_chunk: 7,
            act_boundary: 100_000, act_grad_boundary: 3_000_000,
        };
        let class_bytes = |k: &MsgKey| match k.kind {
            MsgKind::Weights => bm.weight_chunk,
            MsgKind::WeightGrads => bm.grad_chunk,
            MsgKind::Act => bm.act_boundary,
            MsgKind::ActGrad => bm.act_grad_boundary,
        };
        let mut sent: HashMap<MsgKind, u64> = HashMap::new();
        let mut recvd: HashMap<MsgKind, u64> = HashMap::new();
        let mut sent_keys: HashSet<MsgKey> = HashSet::new();
        let mut recv_keys: HashSet<MsgKey> = HashSet::new();
        for (_, op) in s.iter_ops() {
            match &op.kind {
                OpKind::Send(k) => {
                    *sent.entry(k.kind).or_default() += class_bytes(k);
                    prop_assert!(sent_keys.insert(*k), "duplicate send {:?}", k);
                }
                OpKind::Recv(k) | OpKind::PrePost(k) => {
                    *recvd.entry(k.kind).or_default() += class_bytes(k);
                    prop_assert!(recv_keys.insert(*k), "duplicate recv posting {:?}", k);
                }
                _ => {}
            }
        }
        prop_assert_eq!(sent, recvd, "per-class send/recv bytes diverge");
        prop_assert_eq!(sent_keys, recv_keys, "send/recv key sets diverge");
    }
}
