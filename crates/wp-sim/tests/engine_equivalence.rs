//! Property tests: [`wp_sim::simulate`] — one pass over the topological
//! order of the schedule's dependency graph — must be observationally
//! *identical*, to the bit, to the round-robin fixpoint driver
//! [`wp_sim::engine::simulate_reference`], which never asks the graph for
//! an order. Both call the same pricing step, so what is checked is that
//! the order nodes are priced in cannot change a result.
//!
//! Random valid schedules are drawn across every strategy (both WeiPipe
//! variants included), P ∈ {2, 4, 8}, random microbatch counts, W-lag /
//! chunking / recompute knobs, three cluster shapes, overlap on/off and
//! occasional stragglers. For each, every observable of the two drivers is
//! compared — per-rank timelines, busy seconds, bubble fraction, peak
//! memory, and wire traffic — and the timeline is checked against the
//! graph's priced edges ([`wp_sim::check_timeline`]). The mutation sweep at
//! the bottom pins what both drivers make of a *broken* schedule.

#[path = "../../wp-sched/tests/mutations/mod.rs"]
mod mutations;

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wp_sched::{build, validate, DepGraph, PipelineSpec, Strategy as Strat, ALL_STRATEGIES};
use wp_sim::engine::simulate_reference;
use wp_sim::{check_timeline, simulate, ClusterSpec, CostModel, GpuSpec, ModelDims, SimOptions};

fn arb_strategy() -> impl Strategy<Value = Strat> {
    prop::sample::select(ALL_STRATEGIES.to_vec())
}

fn cluster(kind: usize, p: usize) -> ClusterSpec {
    match kind {
        0 => ClusterSpec::nvlink_island(p),
        1 => ClusterSpec::scaling(p, (p / 2).max(1)),
        _ => {
            let mut c = ClusterSpec::nvlink_island(p);
            c.inter = wp_sim::Link {
                bandwidth: 1.25e9,
                latency: 50e-6,
            };
            c.node_size = 2;
            c
        }
    }
}

/// Assert every observable of the two engines matches exactly. Floats are
/// compared by bit pattern — "close" is not equivalence.
fn assert_engines_agree(
    strategy: Strat,
    spec: PipelineSpec,
    cluster: &ClusterSpec,
    opts: SimOptions,
    dims: ModelDims,
) {
    let sched = build(strategy, spec);
    prop_assert!(validate(&sched).is_ok(), "{strategy:?} invalid: {spec:?}");
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
    let des = simulate(&sched, &cost, cluster, opts);
    let refr = simulate_reference(&sched, &cost, cluster, opts);
    match (des, refr) {
        (Ok(d), Ok(r)) => {
            prop_assert_eq!(
                d.makespan.to_bits(),
                r.makespan.to_bits(),
                "makespan: {} vs {} ({:?} {:?})",
                d.makespan,
                r.makespan,
                strategy,
                spec
            );
            prop_assert_eq!(d.bubble_ratio.to_bits(), r.bubble_ratio.to_bits());
            let d_busy: Vec<u64> = d.busy.iter().map(|b| b.to_bits()).collect();
            let r_busy: Vec<u64> = r.busy.iter().map(|b| b.to_bits()).collect();
            prop_assert_eq!(d_busy, r_busy);
            prop_assert_eq!(d.peak_mem, r.peak_mem);
            prop_assert_eq!(d.p2p_bytes, r.p2p_bytes);
            prop_assert_eq!(d.collective_bytes, r.collective_bytes);
            prop_assert_eq!(d.cross_node_p2p_bytes, r.cross_node_p2p_bytes);
            prop_assert_eq!(&d.timeline, &r.timeline, "per-rank timelines diverged");
            let graph = DepGraph::build(&sched).expect("validated");
            prop_assert_eq!(
                check_timeline(&graph, &d),
                Ok(()),
                "{:?} {:?}",
                strategy,
                spec
            );
        }
        (d, r) => {
            prop_assert!(
                d.is_err() && r.is_err(),
                "one engine failed, the other did not: des={:?} ref={:?}",
                d.err().map(|e| e.to_string()),
                r.err().map(|e| e.to_string())
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: random valid schedules across every
    /// strategy, world size, knob setting, cluster shape and sim option
    /// produce bit-identical results under both engines.
    #[test]
    fn des_and_reference_walk_are_bit_identical(
        strategy in arb_strategy(),
        p_exp in 1usize..4,            // P ∈ {2, 4, 8}
        mult in 1usize..4,             // N = 2P·mult satisfies every builder
        overlap_build in any::<bool>(),
        overlap_sim in any::<bool>(),
        recompute in any::<bool>(),
        w_lag in 0usize..6,
        chunk_sel in 0usize..4,
        cluster_kind in 0usize..3,
        hidden_sel in 0usize..3,
        straggle in any::<bool>()
    ) {
        let p = 1 << p_exp;
        let n = 2 * p * mult;
        let mut spec = PipelineSpec::new(p, n).with_overlap(overlap_build);
        if !recompute {
            spec = spec.without_recompute();
        }
        // Knobs only where the strategy accepts them; w_lag 0 means "keep
        // the default" so defaults stay covered.
        if w_lag > 0 && matches!(strategy, Strat::Zb1 | Strat::Wzb1) {
            spec = spec.with_knob(w_lag);
        }
        if chunk_sel > 0 && matches!(strategy, Strat::Fsdp | Strat::Ddp) {
            spec = spec.with_knob(chunk_sel * p / 2 + 1);
        }
        let cluster = cluster(cluster_kind, p);
        let opts = SimOptions {
            overlap: overlap_sim,
            straggler: straggle.then_some((p - 1, 1.7)),
        };
        let hidden = [1024, 2048, 4096][hidden_sel];
        let dims = ModelDims::paper(hidden, 2 * p, 4096, 4);
        assert_engines_agree(strategy, spec, &cluster, opts, dims);
    }

    /// Focused sweep on the two WeiPipe variants the paper is about, with
    /// long-context dims and both overlap settings, P ∈ {2, 4, 8}.
    #[test]
    fn weipipe_variants_agree_at_long_context(
        variant in prop::sample::select(vec![Strat::WeiPipeNaive, Strat::WeiPipeInterleave]),
        p_exp in 1usize..4,
        mult in 1usize..5,
        overlap in any::<bool>(),
        seq_sel in 0usize..3
    ) {
        let p = 1 << p_exp;
        let n = p * mult;
        let spec = PipelineSpec::new(p, n).with_overlap(overlap);
        let cluster = ClusterSpec::scaling(p, (p / 2).max(1));
        let opts = SimOptions { overlap, straggler: None };
        let seq = [4096, 16384, 65536][seq_sel];
        let dims = ModelDims::paper(2048, 2 * p, seq, 1);
        assert_engines_agree(variant, spec, &cluster, opts, dims);
    }

    /// Grouped hierarchical schedules — intra-group rings plus bridge
    /// store-and-forward — must also reproduce bit-identically across
    /// hierarchical cluster shapes, overlap settings and stragglers.
    #[test]
    fn grouped_hier_schedules_agree_bit_identically(
        p_exp in 1usize..4,
        group_shift in 0usize..3,
        mult in 1usize..4,
        overlap_build in any::<bool>(),
        overlap_sim in any::<bool>(),
        cluster_kind in 0usize..3,
        straggle in any::<bool>()
    ) {
        let p = 1 << p_exp;
        let g = (p >> group_shift).max(2); // divides P, spans flat..deepest
        let n = p * mult;
        let spec = PipelineSpec::new(p, n)
            .with_overlap(overlap_build)
            .with_knob(g);
        let cluster = cluster(cluster_kind, p);
        let opts = SimOptions {
            overlap: overlap_sim,
            straggler: straggle.then_some((p - 1, 1.7)),
        };
        let dims = ModelDims::paper(2048, 2 * p, 16384, 2);
        assert_engines_agree(Strat::WeiPipeHier, spec, &cluster, opts, dims);
    }
}

/// The paper-table configurations themselves (the cells `experiments`
/// sweeps): every strategy at the 16-GPU environment-1 cluster must
/// reproduce bit-identically under the DES core.
#[test]
fn experiment_cells_reproduce_bit_identically() {
    let cluster = ClusterSpec::nvlink_16();
    let p = cluster.ranks;
    for &(hidden, seq, g) in &[(4096usize, 16384usize, 4usize), (8192, 65536, 1)] {
        for &strategy in ALL_STRATEGIES {
            let mut spec = PipelineSpec::new(p, 64);
            if matches!(
                strategy,
                Strat::Zb1 | Strat::Zb2 | Strat::Wzb1 | Strat::Wzb2
            ) {
                spec = spec.without_recompute();
            }
            let sched = build(strategy, spec);
            let dims = ModelDims::paper(hidden, 32, seq, g);
            let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
            let opts = SimOptions::default();
            let d = simulate(&sched, &cost, &cluster, opts).expect("des");
            let r = simulate_reference(&sched, &cost, &cluster, opts).expect("reference");
            assert_eq!(
                d.makespan.to_bits(),
                r.makespan.to_bits(),
                "{strategy:?} H={hidden} S={seq}"
            );
            assert_eq!(d.timeline, r.timeline, "{strategy:?} H={hidden} S={seq}");
            assert_eq!(d.peak_mem, r.peak_mem);
            assert_eq!(d.bubble_ratio.to_bits(), r.bubble_ratio.to_bits());
            let graph = DepGraph::build(&sched).expect("valid");
            assert_eq!(
                check_timeline(&graph, &d),
                Ok(()),
                "{strategy:?} H={hidden}"
            );
        }
    }
}

/// Both engines' verdict on every seeded mutation: `ok`, `err`, or `panic`.
fn mutation_stalls() -> String {
    mutations::sweep(|sched| {
        let p = sched.ranks;
        let dims = ModelDims::paper(1024, 2 * p, 4096, 4);
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), sched);
        let cluster = ClusterSpec::nvlink_island(p);
        let verdict = |engine: &dyn Fn() -> bool| match catch_unwind(AssertUnwindSafe(engine)) {
            Ok(true) => "ok",
            Ok(false) => "err",
            Err(_) => "panic",
        };
        let opts = SimOptions::default();
        format!(
            "simulate={} reference={}",
            verdict(&|| simulate(sched, &cost, &cluster, opts).is_ok()),
            verdict(&|| simulate_reference(sched, &cost, &cluster, opts).is_ok())
        )
    })
}

/// The stall side of `wp-sched/tests/props.rs`'s mutation pin: a mutated
/// schedule an engine refused stays refused (`Err`, not a panic or a
/// spin); rewrite `tests/fixtures/mutation_stalls.txt` with `-- --ignored`.
#[test]
fn engines_judge_every_mutation_as_pinned() {
    let want = include_str!("fixtures/mutation_stalls.txt");
    mutations::assert_pinned(&mutation_stalls(), want, "mutation_stalls.txt");
}

#[test]
#[ignore = "rewrites tests/fixtures/mutation_stalls.txt"]
fn regenerate_the_mutation_stalls() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/mutation_stalls.txt"
    );
    std::fs::write(path, mutation_stalls()).expect("fixture is writable");
}
