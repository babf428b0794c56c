#include "diffusion/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "nn/ema.hpp"
#include "tensor/ops.hpp"

namespace aero::diffusion {

namespace ag = aero::autograd;

DiffusionTrainStats train_diffusion(
    UNet& unet, const NoiseSchedule& schedule,
    const std::vector<Tensor>& latents, std::vector<Var> params,
    const TrainCondition& condition, const DiffusionTrainConfig& config,
    util::Rng& rng, int first_step,
    const std::function<void(int steps_done)>& after_step) {
    assert(!latents.empty());
    const std::vector<int>& latent_shape = latents.front().shape();
    assert(latent_shape.size() == 3);

    nn::Adam opt(params,
                 {.lr = config.lr, .weight_decay = config.weight_decay});
    std::unique_ptr<nn::Ema> ema;
    if (config.ema_decay > 0.0f) {
        ema = std::make_unique<nn::Ema>(params, config.ema_decay);
    }
    DivergenceSentinel sentinel(params, opt, config.sentinel);
    util::FaultInjector* injector = config.fault_injector;

    DiffusionTrainStats stats;
    double tail_sum = 0.0;
    int tail_count = 0;
    bool first_recorded = false;
    const int batch =
        std::min<int>(config.batch_size, static_cast<int>(latents.size()));
    const int c = latent_shape[0];
    const int h = latent_shape[1];
    const int w = latent_shape[2];

    for (int step = first_step; step < config.steps; ++step) {
        inject_param_fault(injector, step, params);

        std::vector<Tensor> noisy;
        std::vector<Tensor> noise;
        std::vector<int> timesteps;
        std::vector<Var> batch_cond;
        noisy.reserve(static_cast<std::size_t>(batch));
        for (int b = 0; b < batch; ++b) {
            const int i =
                rng.uniform_int(0, static_cast<int>(latents.size()) - 1);
            const int t = rng.uniform_int(0, schedule.steps() - 1);
            const Tensor eps = Tensor::randn(latent_shape, rng);
            noisy.push_back(
                schedule
                    .q_sample(latents[static_cast<std::size_t>(i)], t, eps)
                    .reshaped({1, c, h, w}));
            noise.push_back(schedule.training_target(
                latents[static_cast<std::size_t>(i)], eps, t,
                config.parameterization));
            timesteps.push_back(t);
            if (rng.bernoulli(config.condition_dropout)) {
                batch_cond.emplace_back();  // null token (CFG dropout)
            } else {
                batch_cond.push_back(condition(i, rng));
            }
        }
        const Var z_t = Var::constant(tensor::concat(noisy, 0));
        const Var target = Var::constant(
            tensor::concat(noise, 0).reshaped({batch, c, h, w}));

        opt.zero_grad();
        const Var eps_pred =
            unet.forward(z_t, timesteps, schedule.steps(), batch_cond);
        const Var loss = ag::mse_loss(eps_pred, target);  // Eq. 6
        loss.backward();
        inject_grad_fault(injector, step, params);
        const float grad_norm = opt.clip_grad_norm(config.grad_clip);
        const float value =
            inject_loss_fault(injector, step, loss.value()[0]);

        // The sentinel rules before the update lands: a poisoned or
        // spiking step is rolled back (every trained parameter, UNet and
        // condition alike) instead of applied, so neither the weights nor
        // the EMA shadow ever absorb it.
        const auto action = sentinel.observe(step, value, grad_norm);
        if (action == DivergenceSentinel::Action::kAbort) break;
        if (action == DivergenceSentinel::Action::kRollback) continue;

        opt.step();
        if (ema) ema->update();

        if (!first_recorded) {
            stats.first_loss = value;
            first_recorded = true;
        }
        stats.final_loss = value;
        if (step >= config.steps * 3 / 4) {
            tail_sum += value;
            ++tail_count;
        }
        if (after_step) after_step(step + 1);
    }
    if (tail_count > 0) {
        stats.tail_loss = static_cast<float>(tail_sum / tail_count);
    }
    stats.nan_events = sentinel.nan_events();
    stats.rollbacks = sentinel.rollbacks();
    stats.diverged = sentinel.diverged();
    if (ema && !stats.diverged) ema->apply();  // sample the averaged weights
    return stats;
}

DiffusionTrainStats train_diffusion(
    UNet& unet, const NoiseSchedule& schedule,
    const std::vector<Tensor>& latents,
    const std::vector<Tensor>& condition_tokens,
    const DiffusionTrainConfig& config, util::Rng& rng) {
    assert(latents.size() == condition_tokens.size());
    const TrainCondition condition = [&](int index, util::Rng&) {
        const Tensor& tokens =
            condition_tokens[static_cast<std::size_t>(index)];
        return tokens.empty() ? Var() : Var::constant(tokens);
    };
    return train_diffusion(unet, schedule, latents, unet.parameters(),
                           condition, config, rng);
}

}  // namespace aero::diffusion
