#include "diffusion/autoencoder.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aero::diffusion {

namespace ag = aero::autograd;

LatentAutoencoder::LatentAutoencoder(const AutoencoderConfig& config,
                                     util::Rng& rng)
    : config_(config),
      enc1_(3, config.base_channels, 3, 2, 1, rng),
      enc_norm1_(config.base_channels, config.groups),
      enc2_(config.base_channels, config.base_channels, 3, 2, 1, rng),
      enc_norm2_(config.base_channels, config.groups),
      enc3_(config.base_channels, config.latent_channels, 3, 1, 1, rng),
      dec1_(config.latent_channels, config.base_channels, 3, 1, 1, rng),
      dec_norm1_(config.base_channels, config.groups),
      dec2_(config.base_channels, config.base_channels, 3, 1, 1, rng),
      dec_norm2_(config.base_channels, config.groups),
      dec3_(config.base_channels, 3, 3, 1, 1, rng) {
    register_child(enc1_);
    register_child(enc_norm1_);
    register_child(enc2_);
    register_child(enc_norm2_);
    register_child(enc3_);
    register_child(dec1_);
    register_child(dec_norm1_);
    register_child(dec2_);
    register_child(dec_norm2_);
    register_child(dec3_);
}

Var LatentAutoencoder::encode(const Var& images) const {
    Var h = ag::silu(enc_norm1_.forward(enc1_.forward(images)));
    h = ag::silu(enc_norm2_.forward(enc2_.forward(h)));
    return enc3_.forward(h);
}

Var LatentAutoencoder::decode(const Var& latents) const {
    Var h = ag::silu(dec_norm1_.forward(dec1_.forward(latents)));
    h = ag::upsample_nearest2x(h);
    h = ag::silu(dec_norm2_.forward(dec2_.forward(h)));
    h = ag::upsample_nearest2x(h);
    return ag::tanh(dec3_.forward(h));
}

Tensor LatentAutoencoder::encode_image(const image::Image& img) const {
    const ag::NoGradGuard no_grad;
    image::Image sized = img;
    if (img.width() != config_.image_size ||
        img.height() != config_.image_size) {
        sized = image::resize_bilinear(img, config_.image_size,
                                       config_.image_size);
    }
    const Var latent = encode(Var::constant(sized.to_tensor_chw().reshaped(
        {1, 3, config_.image_size, config_.image_size})));
    const int s = config_.latent_size();
    return latent.value().reshaped({config_.latent_channels, s, s});
}

image::Image LatentAutoencoder::decode_latent(const Tensor& latent) const {
    assert(latent.rank() == 3);
    const ag::NoGradGuard no_grad;
    const int s = config_.latent_size();
    const Var out = decode(Var::constant(
        latent.reshaped({1, config_.latent_channels, s, s})));
    return image::Image::from_tensor_chw(out.value().reshaped(
        {3, config_.image_size, config_.image_size}));
}

AutoencoderTrainStats train_autoencoder(LatentAutoencoder& autoencoder,
                                        const std::vector<image::Image>& images,
                                        const AutoencoderTrainConfig& config,
                                        util::Rng& rng) {
    assert(!images.empty());
    const int size = autoencoder.config().image_size;

    std::vector<Tensor> tensors;
    tensors.reserve(images.size());
    for (const image::Image& img : images) {
        image::Image sized = img;
        if (sized.width() != size || sized.height() != size) {
            sized = image::resize_bilinear(sized, size, size);
        }
        tensors.push_back(sized.to_tensor_chw().reshaped({1, 3, size, size}));
    }

    nn::Adam opt(autoencoder.parameters(),
                 {.lr = config.lr, .weight_decay = 1e-5f});
    AutoencoderTrainStats stats;
    const int batch =
        std::min<int>(config.batch_size, static_cast<int>(tensors.size()));
    for (int step = 0; step < config.steps; ++step) {
        std::vector<Var> batch_images;
        for (int b = 0; b < batch; ++b) {
            const int i =
                rng.uniform_int(0, static_cast<int>(tensors.size()) - 1);
            batch_images.push_back(
                Var::constant(tensors[static_cast<std::size_t>(i)]));
        }
        const Var input = ag::concat(batch_images, 0);
        opt.zero_grad();
        const Var recon = autoencoder.decode(autoencoder.encode(input));
        const Var loss = ag::mse_loss(recon, input);
        loss.backward();
        opt.clip_grad_norm(5.0f);
        opt.step();
        if (step == 0) stats.first_loss = loss.value()[0];
        stats.final_loss = loss.value()[0];
    }

    // Latent normalisation scale (Stable Diffusion's 0.18215 analogue):
    // 1/std of encoded training latents.
    double sum = 0.0;
    double sum_sq = 0.0;
    long count = 0;
    for (std::size_t i = 0; i < tensors.size();
         i += std::max<std::size_t>(1, tensors.size() / 16)) {
        const Var z = autoencoder.encode(Var::constant(tensors[i]));
        for (float v : z.value()) {
            sum += v;
            sum_sq += static_cast<double>(v) * v;
            ++count;
        }
    }
    if (count > 1) {
        const double mean = sum / static_cast<double>(count);
        const double var = sum_sq / static_cast<double>(count) - mean * mean;
        if (var > 1e-8) {
            stats.latent_scale = static_cast<float>(1.0 / std::sqrt(var));
        }
    }
    return stats;
}

}  // namespace aero::diffusion
