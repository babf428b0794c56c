#include "baselines/models.hpp"

#include <cassert>

#include "tensor/ops.hpp"
#include "util/log.hpp"

namespace aero::baselines {

PipelineModel::PipelineModel(const core::PipelineConfig& config,
                             const core::Substrate& substrate,
                             util::Rng& rng)
    : pipeline_(config, substrate, rng) {}

void PipelineModel::fit(util::Rng& rng) { pipeline_.fit(rng); }

image::Image PipelineModel::generate(const scene::AerialSample& reference,
                                     int index, util::Rng& rng) const {
    const auto& captions = pipeline_.test_captions();
    assert(index >= 0 && index < static_cast<int>(captions.size()));
    const std::string& caption =
        captions[static_cast<std::size_t>(index)].text;
    return pipeline_.generate(reference, caption, caption, rng, index);
}

namespace {

diffusion::UNetConfig pixel_unet_config(const core::Substrate& substrate) {
    diffusion::UNetConfig config;
    config.in_channels = 3;  // pixel space
    config.base_channels = 12;
    config.cond_dim = substrate.embed_config.dim;
    config.time_dim = 32;
    return config;
}

}  // namespace

DdpmBaseline::DdpmBaseline(const core::Substrate& substrate, util::Rng& rng)
    : substrate_(&substrate),
      schedule_({substrate.budget.schedule_steps, 0.001f, 0.012f}),
      unet_(pixel_unet_config(substrate), rng) {}

void DdpmBaseline::fit(util::Rng& rng) {
    std::vector<tensor::Tensor> pixels;
    std::vector<tensor::Tensor> no_cond;
    pixels.reserve(substrate_->dataset->train().size());
    for (const scene::AerialSample& sample : substrate_->dataset->train()) {
        pixels.push_back(sample.image.to_tensor_chw());
        no_cond.emplace_back();
    }
    diffusion::DiffusionTrainConfig config;
    config.steps = substrate_->budget.diffusion_steps;
    config.batch_size =
        std::max(2, substrate_->budget.batch_size / 2);  // pixel space costs more
    config.condition_dropout = 1.0f;  // strictly unconditional
    const auto stats = diffusion::train_diffusion(unet_, schedule_, pixels,
                                                  no_cond, config, rng);
    util::log_info() << "DDPM: diffusion loss " << stats.first_loss << " -> "
                     << stats.tail_loss;
}

image::Image DdpmBaseline::generate(const scene::AerialSample& reference,
                                    int index, util::Rng& rng) const {
    (void)reference;
    (void)index;
    const int size = substrate_->budget.image_size;
    const diffusion::DdpmSampler sampler(unet_, schedule_);
    const tensor::Tensor pixels =
        sampler.sample({3, size, size}, tensor::Tensor(), rng);
    return image::Image::from_tensor_chw(pixels);
}

std::vector<std::unique_ptr<SynthesisModel>> make_table1_models(
    const core::Substrate& substrate, util::Rng& rng) {
    std::vector<std::unique_ptr<SynthesisModel>> models;
    models.push_back(std::make_unique<DdpmBaseline>(substrate, rng));
    models.push_back(std::make_unique<PipelineModel>(
        core::PipelineConfig::stable_diffusion(), substrate, rng));
    models.push_back(std::make_unique<PipelineModel>(
        core::PipelineConfig::arldm(), substrate, rng));
    models.push_back(std::make_unique<PipelineModel>(
        core::PipelineConfig::versatile_diffusion(), substrate, rng));
    models.push_back(std::make_unique<PipelineModel>(
        core::PipelineConfig::make_a_scene(), substrate, rng));
    models.push_back(std::make_unique<PipelineModel>(
        core::PipelineConfig::aero_diffusion(), substrate, rng));
    return models;
}

}  // namespace aero::baselines
