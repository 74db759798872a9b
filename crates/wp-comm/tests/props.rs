//! Property-based tests for the collectives: ring algorithms must equal
//! their serial definitions for arbitrary world sizes and payloads — and
//! keep doing so under arbitrary delivery-order faults.

use proptest::prelude::*;
use std::time::Duration;
use wp_comm::{CommConfig, CommError, Communicator, FaultPlan, LinkModel, World};
use wp_tensor::DType;

/// Send `data` to the next rank on the ring and receive the previous rank's
/// message with the same `tag` — the weight-circulation step.
fn ring_exchange(c: &mut Communicator, tag: u64, data: &[f32]) -> Result<Vec<f32>, CommError> {
    c.send(c.next_rank(), tag, data, DType::F32)?;
    c.recv(c.prev_rank(), tag)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_reduce_equals_serial_sum(
        p in 2usize..6,
        n in 1usize..40,
        seed in 0u64..1000
    ) {
        let inputs: Vec<Vec<f32>> = (0..p)
            .map(|r| {
                (0..n)
                    .map(|i| ((seed + r as u64 * 31 + i as u64 * 7) % 97) as f32 - 48.0)
                    .collect()
            })
            .collect();
        let expect: Vec<f32> =
            (0..n).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        let inputs_ref = &inputs;
        let (outs, _) = World::run(p, LinkModel::instant(), move |mut c| {
            let mut buf = inputs_ref[c.rank()].clone();
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
            buf
        });
        for (r, out) in outs.iter().enumerate() {
            for (a, b) in out.iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-3, "rank {r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce(
        p in 2usize..6,
        chunks in 1usize..6,
        seed in 0u64..1000
    ) {
        // Equal-size chunks so all_gather applies directly.
        let n = p * chunks;
        let inputs: Vec<Vec<f32>> = (0..p)
            .map(|r| (0..n).map(|i| ((seed + r as u64 + i as u64 * 13) % 53) as f32).collect())
            .collect();
        let inputs_ref = &inputs;
        let (outs, _) = World::run(p, LinkModel::instant(), move |mut c| {
            let mine = inputs_ref[c.rank()].clone();
            let shard = c.reduce_scatter_sum(&mine, DType::F32).unwrap();
            let gathered = c.all_gather(&shard, DType::F32).unwrap();
            let mut reduced = inputs_ref[c.rank()].clone();
            c.all_reduce_sum(&mut reduced, DType::F32).unwrap();
            (gathered, reduced)
        });
        for (gathered, reduced) in outs {
            for (a, b) in gathered.iter().zip(&reduced) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn broadcast_replicates_any_root(
        p in 2usize..6,
        root in 0usize..6,
        n in 1usize..20,
        seed in 0u64..1000
    ) {
        let root = root % p;
        let payload: Vec<f32> = (0..n).map(|i| (seed as f32) + i as f32).collect();
        let payload_ref = &payload;
        let (outs, _) = World::run(p, LinkModel::instant(), move |mut c| {
            let mut buf = if c.rank() == root { payload_ref.clone() } else { Vec::new() };
            c.broadcast(root, &mut buf, DType::F32).unwrap();
            buf
        });
        for out in outs {
            prop_assert_eq!(&out, payload_ref);
        }
    }

    #[test]
    fn ring_exchange_is_a_rotation(p in 2usize..7, seed in 0u64..1000) {
        let (outs, _) = World::run(p, LinkModel::instant(), move |mut c| {
            let mine = [c.rank() as f32 + seed as f32];
            ring_exchange(&mut c, 11, &mine).unwrap()[0]
        });
        for (r, v) in outs.iter().enumerate() {
            let prev = (r + p - 1) % p;
            prop_assert_eq!(*v, prev as f32 + seed as f32);
        }
    }

    #[test]
    fn tag_matching_is_order_independent(
        perm_seed in 0u64..1000
    ) {
        // Rank 0 sends 6 tagged messages; rank 1 receives them in a
        // shuffled order and must get the right payloads.
        let mut order: Vec<u64> = (0..6).collect();
        // Cheap deterministic shuffle.
        for i in (1..order.len()).rev() {
            let j = ((perm_seed.wrapping_mul(2654435761).wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let order_ref = &order;
        let (outs, _) = World::run(2, LinkModel::instant(), move |mut c| {
            if c.rank() == 0 {
                for t in 0..6u64 {
                    c.send(1, t, &[t as f32 * 10.0], DType::F32).unwrap();
                }
                vec![]
            } else {
                order_ref.iter().map(|&t| c.recv(0, t).unwrap()[0]).collect()
            }
        });
        for (i, &t) in order.iter().enumerate() {
            prop_assert_eq!(outs[1][i], t as f32 * 10.0);
        }
    }
}

/// Per-rank `(gathered, reduced)` buffers from the collective pipeline.
type CollectiveOuts = Vec<(Vec<f32>, Vec<f32>)>;

/// Run the `reduce_scatter → all_gather → all_reduce` pipeline under an
/// optional fault plan, returning per-rank results and the meter snapshot.
fn collectives_under(
    p: usize,
    n: usize,
    seed: u64,
    plan: Option<FaultPlan>,
) -> (CollectiveOuts, Vec<wp_comm::RankTraffic>) {
    let inputs: Vec<Vec<f32>> = (0..p)
        .map(|r| {
            (0..n)
                .map(|i| ((seed + r as u64 * 5 + i as u64 * 11) % 89) as f32 - 44.0)
                .collect()
        })
        .collect();
    let inputs_ref = &inputs;
    let (outs, meter) = World::builder(p)
        .config(CommConfig::fail_fast(Duration::from_secs(30)))
        .maybe_faults(plan)
        .try_run(move |mut c| {
            let mine = inputs_ref[c.rank()].clone();
            let shard = c.reduce_scatter_sum(&mine, DType::F32)?;
            let gathered = c.all_gather(&shard, DType::F32)?;
            let mut reduced = inputs_ref[c.rank()].clone();
            c.all_reduce_sum(&mut reduced, DType::F32)?;
            Ok((gathered, reduced))
        });
    let outs: Vec<(Vec<f32>, Vec<f32>)> = outs
        .into_iter()
        .map(|r| r.expect("delay-only faults must not fail any rank"))
        .collect();
    (outs, meter.all())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Collectives are byte-identical under arbitrary delivery-order
    /// permutations: for any reorder/jitter seed, every rank computes
    /// exactly the same bits as the fault-free run.
    #[test]
    fn collectives_bit_identical_under_reorder(
        p in 2usize..5,
        chunks in 1usize..5,
        fault_seed in 0u64..10_000
    ) {
        let n = p * chunks;
        let (clean, clean_meter) = collectives_under(p, n, 7, None);
        let plan = FaultPlan::new(fault_seed)
            .with_reorder(0.4)
            .with_delay_jitter(Duration::from_micros(50));
        let (faulty, faulty_meter) = collectives_under(p, n, 7, Some(plan));
        for (r, (c, f)) in clean.iter().zip(&faulty).enumerate() {
            prop_assert_eq!(&c.0, &f.0, "all_gather result diverged on rank {}", r);
            prop_assert_eq!(&c.1, &f.1, "all_reduce result diverged on rank {}", r);
        }
        // Faults change timing and ordering, never the bytes on the wire.
        for (r, (c, f)) in clean_meter.iter().zip(&faulty_meter).enumerate() {
            prop_assert_eq!(c.p2p_bytes, f.p2p_bytes, "p2p bytes diverged on rank {}", r);
            prop_assert_eq!(
                c.collective_bytes, f.collective_bytes,
                "collective bytes diverged on rank {}", r
            );
            prop_assert_eq!(c.collective_msgs, f.collective_msgs, "hop count diverged on rank {}", r);
        }
    }

    /// A fault plan with jitter/reorder on every link reports its injections
    /// on the meter without perturbing the byte accounting.
    #[test]
    fn meter_counts_faults_separately(fault_seed in 0u64..10_000) {
        let plan = FaultPlan::new(fault_seed).with_reorder(1.0);
        let (_, meters) = collectives_under(3, 6, 1, Some(plan));
        let faults: u64 = meters.iter().map(|m| m.faults_injected).sum();
        prop_assert!(faults > 0, "reorder-everything plan must record injections");
    }
}
