#include "metrics/feature_net.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "autograd/var.hpp"

namespace aero::metrics {

namespace ag = aero::autograd;
using autograd::Var;
using tensor::Tensor;

namespace {

util::Rng seeded_rng(std::uint64_t seed) { return util::Rng(seed); }

}  // namespace

FeatureNet::FeatureNet(const FeatureNetConfig& config)
    : config_(config),
      conv1_([&] {
          util::Rng rng = seeded_rng(config.seed);
          return nn::Conv2d(3, config.feature_dim / 2, 3, 2, 1, rng);
      }()),
      conv2_([&] {
          util::Rng rng = seeded_rng(config.seed ^ 0x1111u);
          return nn::Conv2d(config.feature_dim / 2, config.feature_dim, 3, 2,
                            1, rng);
      }()),
      conv3_([&] {
          util::Rng rng = seeded_rng(config.seed ^ 0x2222u);
          return nn::Conv2d(config.feature_dim, config.feature_dim, 3, 2, 1,
                            rng);
      }()) {
    register_child(conv1_);
    register_child(conv2_);
    register_child(conv3_);
}

namespace {

/// Appends per-channel mean and standard deviation of the first
/// `channels` maps of a [1,C,H,W] activation tensor. Standard deviations
/// carry the texture/small-object energy that plain average pooling
/// destroys (a blurred mean image and a real scene share channel means
/// but not channel variances).
void append_moments(const Tensor& activations, int channels,
                    std::vector<double>* out) {
    const int c = activations.dim(1);
    const int spatial = activations.dim(2) * activations.dim(3);
    const int used = std::min(channels, c);
    for (int ch = 0; ch < used; ++ch) {
        const float* base = activations.data() + ch * spatial;
        double mean = 0.0;
        for (int s = 0; s < spatial; ++s) mean += base[s];
        mean /= spatial;
        double var = 0.0;
        for (int s = 0; s < spatial; ++s) {
            const double d = base[s] - mean;
            var += d * d;
        }
        var /= spatial;
        out->push_back(mean);
        out->push_back(3.0 * std::sqrt(var));  // weight texture energy up
    }
}

}  // namespace

std::vector<double> FeatureNet::features(const image::Image& img) const {
    const ag::NoGradGuard no_grad;
    image::Image sized = img;
    if (img.width() != config_.image_size ||
        img.height() != config_.image_size) {
        sized = image::resize_bilinear(img, config_.image_size,
                                       config_.image_size);
    }
    const Var input = Var::constant(sized.to_tensor_chw().reshaped(
        {1, 3, config_.image_size, config_.image_size}));

    // Two scales: mid-level (sensitive to small objects / texture) and
    // deep (layout); per-channel mean + std from each.
    const Var h1 = ag::tanh(conv1_.forward(input));
    const Var h2 = ag::tanh(conv2_.forward(h1));
    const Var h3 = ag::tanh(conv3_.forward(h2));

    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(config_.feature_dim));
    const int quarter = config_.feature_dim / 4;
    append_moments(h2.value(), quarter, &out);
    append_moments(h3.value(), quarter, &out);
    out.resize(static_cast<std::size_t>(config_.feature_dim), 0.0);
    return out;
}

}  // namespace aero::metrics
