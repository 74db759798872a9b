//! The collective-based data-parallel baselines: every rank trains its
//! `N/P` microbatches through the whole model, in `chunks` pieces.

use super::{Knob, Passes, PipelineSpec};
use crate::ir::{Op, OpKind, Schedule, Strategy, RESIDENT, SHARDED};

pub(super) fn build_collective(strategy: Strategy, spec: PipelineSpec) -> Schedule {
    let p = spec.ranks;
    let Some((Knob::Chunks, chunks)) = spec.knob(strategy) else {
        unreachable!("{strategy:?} reads the chunk knob");
    };
    let passes = Passes::of(strategy, &spec);
    let (ops, flow) = if strategy == Strategy::Fsdp {
        (fsdp_ops(spec, chunks), SHARDED)
    } else {
        (ddp_ops(spec, chunks), RESIDENT)
    };
    Schedule {
        strategy,
        ranks: p,
        chunks,
        microbatches: spec.microbatches,
        ops,
        initial_holder: (0..chunks).map(|c| c % p).collect(),
        seeds: vec![(0..chunks).map(|c| (c, flow)).collect(); p],
        recompute: passes.recompute,
    }
}

/// FSDP (ZeRO-3): every rank holds a 1/P shard of every chunk and runs its
/// 1/P of the microbatches as plain data parallelism — all-gathering each
/// chunk's full weights just before use (once for the forward, again for
/// the backward) and freeing them right after, then reduce-scattering that
/// microbatch's gradient chunk back to shards. This per-microbatch
/// re-gather is what keeps sharded memory flat and what multiplies ZeRO-3's
/// communication volume by the gradient-accumulation depth — the cost the
/// paper's slow-interconnect columns expose (§6.1).
fn fsdp_ops(spec: PipelineSpec, chunks: usize) -> Vec<Vec<Op>> {
    let p = spec.ranks;
    let local = spec.microbatches / p;
    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (r, stream) in ops.iter_mut().enumerate() {
        for i in 0..local {
            let mb = i * p + r;
            for c in 0..chunks {
                let gather = OpKind::AllGatherW {
                    chunk: c,
                    round: 2 * i,
                };
                let gathered = gather.collective_key(r);
                stream.push(Op::compute_collective(gather));
                stream.push(Op::compute(OpKind::Fwd { mb, chunk: c }).needs(gathered));
            }
            for c in (0..chunks).rev() {
                let gather = OpKind::AllGatherW {
                    chunk: c,
                    round: 2 * i + 1,
                };
                let gathered = gather.collective_key(r);
                stream.push(Op::compute_collective(gather));
                stream.push(Op::compute(OpKind::BwdFull { mb, chunk: c }).needs(gathered));
                stream.push(Op::compute_collective(OpKind::ReduceScatterD {
                    chunk: c,
                    round: i,
                }));
            }
        }
        for c in 0..chunks {
            // The last microbatch's reduce-scatter delivers the summed shard.
            let last = OpKind::ReduceScatterD {
                chunk: c,
                round: local - 1,
            };
            stream.push(Op::compute(OpKind::Update { chunk: c }).needs(last.collective_key(r)));
        }
    }
    ops
}

/// DDP: the model is replicated; each rank trains its 1/P of the
/// microbatches locally and all-reduces gradients before a replicated
/// update.
fn ddp_ops(spec: PipelineSpec, chunks: usize) -> Vec<Vec<Op>> {
    let p = spec.ranks;
    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (r, stream) in ops.iter_mut().enumerate() {
        for mb in (r..spec.microbatches).step_by(p) {
            for c in 0..chunks {
                stream.push(Op::compute(OpKind::Fwd { mb, chunk: c }));
            }
            for c in (0..chunks).rev() {
                stream.push(Op::compute(OpKind::BwdFull { mb, chunk: c }));
            }
        }
        let reduce = |c| OpKind::AllReduceD { chunk: c, round: 0 };
        for c in 0..chunks {
            stream.push(Op::compute_collective(reduce(c)));
        }
        for c in 0..chunks {
            stream
                .push(Op::compute(OpKind::Update { chunk: c }).needs(reduce(c).collective_key(r)));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use crate::builders::{build, PipelineSpec};
    use crate::ir::Strategy;

    #[test]
    fn fsdp_and_ddp_are_collective_only() {
        for strat in [Strategy::Fsdp, Strategy::Ddp] {
            let s = build(strat, PipelineSpec::new(4, 8));
            let st = s.stats();
            assert_eq!(st.sends, 0, "{strat:?}");
            assert_eq!(st.recvs, 0, "{strat:?}");
            assert!(st.collectives > 0, "{strat:?}");
        }
    }

    #[test]
    fn chunk_override_reshapes_collective_strategies() {
        for chunks in [1usize, 2, 8] {
            for strat in [Strategy::Fsdp, Strategy::Ddp] {
                let s = build(strat, PipelineSpec::new(4, 8).with_knob(chunks));
                assert_eq!(s.chunks, chunks, "{strat:?}");
                assert_eq!(s.initial_holder.len(), chunks, "{strat:?}");
                crate::validate(&s).unwrap_or_else(|e| panic!("{strat:?} chunks={chunks}: {e}"));
            }
        }
        // The default stays the bit-identical P-chunk schedule.
        let d = build(Strategy::Fsdp, PipelineSpec::new(4, 8));
        assert_eq!(d.chunks, 4);
    }
}
