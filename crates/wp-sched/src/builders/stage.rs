//! Activation-passing stage pipelines: rank `r` owns chunk `r` for the
//! whole run; microbatches flow down the stages as activations and back up
//! as activation gradients.
//!
//! GPipe, 1F1B, ZB1 and ZB2 are one loop per rank — `warm` forwards, then
//! `N − warm` forward/backward pairs, then `warm` backwards — and differ
//! only in the warm-up depth and, when the backward is split, in the
//! [`WWindow`] that decides how far a W pass trails its B pass.

use super::{Passes, PipelineSpec, WWindow};
use crate::ir::{MemUnit, MsgKey, Op, OpKind, Schedule, Strategy, RESIDENT};

/// How many forwards rank `r` runs before its first backward.
fn warmup(strategy: Strategy, p: usize, r: usize, n: usize) -> usize {
    match strategy {
        // All forwards, then all backwards.
        Strategy::GPipe => n,
        // Deeper warm-up fills the bubble with extra forwards.
        Strategy::Zb2 => (2 * (p - r) - 1).min(n),
        _ => (p - 1 - r).min(n),
    }
}

pub(super) fn build_stage_pipe(strategy: Strategy, spec: PipelineSpec) -> Schedule {
    let p = spec.ranks;
    let n = spec.microbatches;
    let passes = Passes::of(strategy, &spec);

    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (r, stream) in ops.iter_mut().enumerate() {
        let (first, last) = (r == 0, r == p - 1);
        let push_fwd = |stream: &mut Vec<Op>, mb: usize| {
            let mut op = Op::compute(OpKind::Fwd { mb, chunk: r }).mem(passes.ctx, 1);
            if !first {
                let act_in = MsgKey::act(mb, r - 1, r);
                stream.push(Op::recv(act_in).mem(MemUnit::ActBoundary, 1));
                op = op.needs(act_in).mem(MemUnit::ActBoundary, -1);
            }
            if !last {
                op = op.mem(MemUnit::ActBoundary, 1);
            }
            stream.push(op);
            if !last {
                stream.push(Op::send(MsgKey::act(mb, r, r + 1)).mem(MemUnit::ActBoundary, -1));
            }
        };
        // ZB1's W passes lag their B passes by a couple of slots (ZB-H1):
        // the activation-gradient send leaves after only the B-pass latency,
        // and the deferred W passes fill what would otherwise be bubble — at
        // the price of holding the full forward ctx and B ctx of the lagged
        // microbatches, the memory blow-up Table 2 charges ZB for. ZB2
        // defers every W pass to the end of the iteration.
        let mut deferred = WWindow::of(strategy, &spec);
        let mut push_bwd = |stream: &mut Vec<Op>, mb: usize| {
            let (kind, unit, delta) = passes.backward(mb, r);
            let mut op = Op::compute(kind);
            if !last {
                let grad_in = MsgKey::act_grad(mb, r + 1, r);
                stream.push(Op::recv(grad_in).mem(MemUnit::ActGradBoundary, 1));
                op = op.needs(grad_in).mem(MemUnit::ActGradBoundary, -1);
            }
            op = op.mem(unit, delta);
            if !first {
                op = op.mem(MemUnit::ActGradBoundary, 1);
            }
            stream.push(op);
            if !first {
                stream.push(
                    Op::send(MsgKey::act_grad(mb, r, r - 1)).mem(MemUnit::ActGradBoundary, -1),
                );
            }
            if passes.split {
                stream.extend(deferred.after_b(mb, r));
            }
        };

        let warm = warmup(strategy, p, r, n);
        for mb in 0..warm {
            push_fwd(stream, mb);
        }
        for i in 0..n - warm {
            push_fwd(stream, warm + i);
            push_bwd(stream, i);
        }
        for mb in n - warm..n {
            push_bwd(stream, mb);
        }
        stream.extend(deferred.flush());
        stream.push(Op::compute(OpKind::Update { chunk: r }));
    }

    Schedule {
        strategy,
        ranks: p,
        chunks: p,
        microbatches: n,
        ops,
        initial_holder: (0..p).collect(),
        seeds: (0..p).map(|r| vec![(r, RESIDENT)]).collect(),
        recompute: passes.recompute,
    }
}

#[cfg(test)]
mod tests {
    use crate::builders::{build, PipelineSpec};
    use crate::ir::{OpKind, Strategy};

    /// The compute ops of one rank, as `F3` / `B3` / `W3` tokens.
    fn compute_order(strategy: Strategy, spec: PipelineSpec, rank: usize) -> String {
        let tokens: Vec<String> = build(strategy, spec).ops[rank]
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Fwd { mb, .. } => Some(format!("F{mb}")),
                OpKind::BwdFull { mb, .. } | OpKind::BwdData { mb, .. } => Some(format!("B{mb}")),
                OpKind::BwdWeight { mb, .. } => Some(format!("W{mb}")),
                _ => None,
            })
            .collect();
        tokens.join(" ")
    }

    /// One loop, four schedules: the warm-up depth and the W window are all
    /// that tells them apart (P = 3, N = 4, first stage).
    #[test]
    fn warmup_depth_and_w_window_tell_the_four_pipelines_apart() {
        let spec = PipelineSpec::new(3, 4);
        let order = |s| compute_order(s, spec, 0);
        assert_eq!(order(Strategy::GPipe), "F0 F1 F2 F3 B0 B1 B2 B3");
        assert_eq!(order(Strategy::OneFOneB), "F0 F1 F2 B0 F3 B1 B2 B3");
        assert_eq!(order(Strategy::Zb1), "F0 F1 F2 B0 F3 B1 B2 W0 B3 W1 W2 W3");
        assert_eq!(
            compute_order(Strategy::Zb1, spec.with_w_lag(0), 0),
            "F0 F1 F2 B0 W0 F3 B1 W1 B2 W2 B3 W3"
        );
        assert_eq!(order(Strategy::Zb2), "F0 F1 F2 F3 B0 B1 B2 B3 W0 W1 W2 W3");
        assert_eq!(
            compute_order(Strategy::Zb2, spec, 2),
            "F0 F1 B0 F2 B1 F3 B2 B3 W0 W1 W2 W3"
        );
    }
}
