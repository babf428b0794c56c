#pragma once
// Diffusion training loop minimising Eq. 6:
//   L = E_{z0, eps, t, C} || eps - eps_theta(z_t, t, C) ||^2
// with classifier-free-guidance condition dropout and a divergence
// sentinel (NaN/spike detection, snapshot rollback) guarding every step.
// It is the only Eq. 6 loop: core::AeroDiffusionPipeline::fit() runs it
// with the condition encoder trained jointly with the UNet.

#include <functional>

#include "diffusion/schedule.hpp"
#include "diffusion/sentinel.hpp"
#include "diffusion/unet.hpp"
#include "nn/optimizer.hpp"
#include "util/fault.hpp"

namespace aero::diffusion {

struct DiffusionTrainConfig {
    int steps = 300;
    int batch_size = 6;
    float lr = 2e-3f;
    float weight_decay = 1e-5f;
    /// Probability of replacing a sample's condition with the null token
    /// during training (enables classifier-free guidance).
    float condition_dropout = 0.1f;
    /// Prediction target (must match the sampler's setting).
    Parameterization parameterization = Parameterization::kEpsilon;
    /// When > 0, an exponential moving average of the weights is kept
    /// and applied at the end of training (sampling uses the average).
    float ema_decay = 0.99f;
    /// Global L2 gradient-norm clip applied every step.
    float grad_clip = 5.0f;
    /// Divergence detection / rollback policy.
    SentinelConfig sentinel;
    /// Test-only fault injection; see util/fault.hpp. The trainer
    /// exposes the points "param" (poisons a weight before the forward
    /// pass), "grad" (poisons a gradient after backward), "loss"
    /// (poisons the observed loss), plus `arm_spike` on the loss.
    util::FaultInjector* fault_injector = nullptr;
};

struct DiffusionTrainStats {
    float first_loss = 0.0f;
    float final_loss = 0.0f;
    /// Mean loss over the last quarter of training (smoother signal).
    float tail_loss = 0.0f;
    /// Steps rejected for a non-finite loss or gradient.
    int nan_events = 0;
    /// Snapshot rollbacks performed (NaN events + loss spikes).
    int rollbacks = 0;
    /// True when the rollback budget was exhausted and training stopped.
    bool diverged = false;
};

/// Builds the condition rows of training sample `index` ([K, cond_dim];
/// an undefined Var selects the null token). The loop calls it only when
/// the dropout draw keeps the condition, and it may draw from `rng` after
/// that draw.
using TrainCondition = std::function<Var(int index, util::Rng& rng)>;

/// Trains `params` (the UNet's, plus any condition parameters optimised
/// jointly with it) on pre-encoded latents ([C,H,W] each). Runs steps
/// [first_step, config.steps) and calls `after_step(step + 1)` after each
/// applied update, never after a rollback or the abort.
DiffusionTrainStats train_diffusion(
    UNet& unet, const NoiseSchedule& schedule,
    const std::vector<Tensor>& latents, std::vector<Var> params,
    const TrainCondition& condition, const DiffusionTrainConfig& config,
    util::Rng& rng, int first_step = 0,
    const std::function<void(int steps_done)>& after_step = {});

/// Trains `unet` alone on pre-encoded latents and their fixed per-sample
/// condition token matrices ([K_i, cond_dim]; empty tensors mean "always
/// unconditional").
DiffusionTrainStats train_diffusion(
    UNet& unet, const NoiseSchedule& schedule,
    const std::vector<Tensor>& latents,
    const std::vector<Tensor>& condition_tokens,
    const DiffusionTrainConfig& config, util::Rng& rng);

}  // namespace aero::diffusion
