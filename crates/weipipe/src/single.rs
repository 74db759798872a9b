//! The single-process reference trainer every distributed strategy is
//! verified against: same seed, same data order, plain accumulate-and-step.

use crate::setup::{RunOutput, TrainSetup};
use wp_nn::model::{Model, ModelFwdCtx, ModelGrads};
use wp_optim::MasterWeights;
use wp_tensor::DType;

/// Train on one process and return the reference trajectory.
pub fn run_single(setup: &TrainSetup) -> RunOutput {
    let mut model = Model::new(&setup.model, setup.seed);
    let n = setup.microbatches;
    let scale = 1.0 / n as f32;

    let mut opt_embed = setup.optim.build(model.embed.len());
    let mut master_embed = MasterWeights::capture(&model.embed, DType::F32);
    let mut opt_blocks: Vec<_> = model
        .blocks
        .iter()
        .map(|b| setup.optim.build(b.len()))
        .collect();
    let mut master_blocks: Vec<_> = model
        .blocks
        .iter()
        .map(|b| MasterWeights::capture(b, DType::F32))
        .collect();
    let mut opt_head = setup.optim.build(model.head.len());
    let mut master_head = MasterWeights::capture(&model.head, DType::F32);

    let mut losses = Vec::with_capacity(setup.iters);
    // Gradients and the forward context are allocated once and reused: with
    // the model's scratch arena warm, steady-state iterations stay off the
    // heap entirely.
    let mut grads = ModelGrads::zeros_like(&model);
    let mut fwd = ModelFwdCtx::empty();
    let t0 = std::time::Instant::now();
    for iter in 0..setup.iters {
        grads.zero();
        let mut loss_sum = 0.0f64;
        for mb in 0..n {
            let (ids, targets) = setup.batch_for(iter, mb);
            model.forward_into(&ids, setup.microbatch, setup.seq, &mut fwd);
            let loss = model.backward(&mut fwd, &targets, &mut grads, scale * setup.loss_scale);
            loss_sum += loss as f64;
        }
        losses.push((loss_sum / n as f64) as f32);

        if setup.loss_scale != 1.0 {
            let inv = 1.0 / setup.loss_scale;
            for g in grads.embed.iter_mut() {
                *g *= inv;
            }
            for b in grads.blocks.iter_mut() {
                for g in b.iter_mut() {
                    *g *= inv;
                }
            }
            for g in grads.head.iter_mut() {
                *g *= inv;
            }
        }
        let lr = setup.lr_at(iter);
        master_embed.step(opt_embed.as_mut(), &mut model.embed, &grads.embed, lr);
        for ((mw, opt), (w, g)) in master_blocks
            .iter_mut()
            .zip(&mut opt_blocks)
            .zip(model.blocks.iter_mut().zip(&grads.blocks))
        {
            mw.step(opt.as_mut(), w, g, lr);
        }
        master_head.step(opt_head.as_mut(), &mut model.head, &grads.head, lr);
    }

    RunOutput {
        losses,
        embed: model.embed,
        blocks: model.blocks,
        head: model.head,
        bytes_sent: 0,
        wall_seconds: t0.elapsed().as_secs_f64(),
        trace: None,
        metrics: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_decreases_over_iterations() {
        let mut setup = TrainSetup::tiny(2, 4);
        setup.iters = 6;
        let out = run_single(&setup);
        assert_eq!(out.losses.len(), 6);
        assert!(
            out.losses[5] < out.losses[0],
            "training must reduce loss: {:?}",
            out.losses
        );
    }

    #[test]
    fn deterministic() {
        let setup = TrainSetup::tiny(2, 4);
        let a = run_single(&setup);
        let b = run_single(&setup);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.max_param_diff(&b), 0.0);
    }
}
