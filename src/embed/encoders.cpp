#include "embed/encoders.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/ops.hpp"

namespace aero::embed {

namespace ag = aero::autograd;

ImageEncoder::ImageEncoder(const EmbedConfig& config, util::Rng& rng)
    : config_(config),
      conv1_(3, config.dim / 2, 3, 2, 1, rng),
      norm1_(config.dim / 2, 4),
      conv2_(config.dim / 2, config.dim, 3, 2, 1, rng),
      norm2_(config.dim, 4),
      conv3_(config.dim, config.dim, 3, 2, 1, rng),
      proj_(config.dim, config.dim, rng) {
    register_child(conv1_);
    register_child(norm1_);
    register_child(conv2_);
    register_child(norm2_);
    register_child(conv3_);
    register_child(proj_);
}

Var ImageEncoder::trunk(const Var& images) const {
    Var h = ag::silu(norm1_.forward(conv1_.forward(images)));
    h = ag::silu(norm2_.forward(conv2_.forward(h)));
    return ag::silu(conv3_.forward(h));
}

Var ImageEncoder::forward(const Var& images) const {
    const Var features = trunk(images);            // [N, dim, s, s]
    const Var pooled = ag::global_avg_pool(features);  // [N, dim]
    return proj_.forward(pooled);
}

Var ImageEncoder::forward_tokens(const Var& image) const {
    assert(image.value().dim(0) == 1);
    const Var features = trunk(image);  // [1, dim, s, s]
    const int dim = features.value().dim(1);
    const int tokens = features.value().dim(2) * features.value().dim(3);
    // [1, dim, s, s] -> [dim, tokens] -> [tokens, dim]
    const Var flat = ag::reshape(features, {dim, tokens});
    return proj_.forward(ag::transpose2d(flat));
}

TextEncoder::TextEncoder(const EmbedConfig& config, util::Rng& rng)
    : config_(config),
      token_embedding_(text::Vocabulary::aerial().size(), config.dim, rng),
      position_embedding_(config.max_tokens, config.dim, rng),
      block_(config.dim, config.heads, rng),
      proj_(config.dim, config.dim, rng) {
    register_child(token_embedding_);
    register_child(position_embedding_);
    register_child(block_);
    register_child(proj_);
}

Var TextEncoder::forward_tokens(const std::vector<int>& token_ids) const {
    std::vector<int> ids = token_ids;
    if (ids.empty()) ids.push_back(text::Vocabulary::aerial().pad_id());
    if (static_cast<int>(ids.size()) > config_.max_tokens) {
        ids.resize(static_cast<std::size_t>(config_.max_tokens));
    }
    std::vector<int> positions(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        positions[i] = static_cast<int>(i);
    }
    const Var tokens = ag::add(token_embedding_.forward(ids),
                               position_embedding_.forward(positions));
    return block_.forward(tokens);
}

Var TextEncoder::forward(const std::vector<int>& token_ids) const {
    return proj_.forward(mean_rows(forward_tokens(token_ids)));
}

Var TextEncoder::forward_batch(
    const std::vector<std::vector<int>>& batch) const {
    std::vector<Var> rows;
    rows.reserve(batch.size());
    for (const std::vector<int>& ids : batch) rows.push_back(forward(ids));
    return ag::concat(rows, 0);
}

Var normalize_rows(const Var& x, float eps) {
    assert(x.value().rank() == 2);
    const int n = x.value().dim(0);
    const int d = x.value().dim(1);

    Tensor out({n, d});
    std::vector<float> inv_norms(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const float* row = x.value().data() + i * d;
        float sum = 0.0f;
        for (int j = 0; j < d; ++j) sum += row[j] * row[j];
        const float inv = 1.0f / std::sqrt(sum + eps);
        inv_norms[static_cast<std::size_t>(i)] = inv;
        for (int j = 0; j < d; ++j) out[i * d + j] = row[j] * inv;
    }

    auto xn = x.node();
    return Var::make(
        std::move(out), {x},
        [xn, inv_norms = std::move(inv_norms), n, d](const Tensor& g,
                                                    const Tensor& normalized) {
            // d(x/||x||)/dx applied to g: (g - y (y . g)) / ||x||
            Tensor dx({n, d});
            for (int i = 0; i < n; ++i) {
                const float* y = normalized.data() + i * d;
                const float* gi = g.data() + i * d;
                float dot = 0.0f;
                for (int j = 0; j < d; ++j) dot += y[j] * gi[j];
                const float inv = inv_norms[static_cast<std::size_t>(i)];
                float* o = dx.data() + i * d;
                for (int j = 0; j < d; ++j) {
                    o[j] = (gi[j] - y[j] * dot) * inv;
                }
            }
            xn->accumulate(dx);
        });
}

Var mean_rows(const Var& x) {
    const int n = x.value().dim(0);
    Tensor ones({1, n});
    for (int i = 0; i < n; ++i) ones[i] = 1.0f / static_cast<float>(n);
    return ag::matmul(Var::constant(std::move(ones)), x);
}

}  // namespace aero::embed
