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

ImageEncoder::Encoding ImageEncoder::encode(const Var& images) const {
    const Var features = trunk(images);  // [N, dim, s, s]
    // map_to_tokens gives [N·s·s, dim] with image i's tokens in its own
    // rows, and proj_ is a row-wise matmul.
    return {proj_.forward(ag::global_avg_pool(features)),
            proj_.forward(ag::map_to_tokens(features))};
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
    return forward_tokens_stacked({token_ids}).tokens;
}

Var TextEncoder::forward(const std::vector<int>& token_ids) const {
    return pooled(forward_tokens_stacked({token_ids}), {0});
}

Var TextEncoder::forward_batch(
    const std::vector<std::vector<int>>& batch) const {
    std::vector<Var> rows;
    rows.reserve(batch.size());
    for (const std::vector<int>& ids : batch) rows.push_back(forward(ids));
    return ag::concat(rows, 0);
}

Tensor TextEncoder::TokenTable::rows(int i) const {
    const auto at = static_cast<std::size_t>(i);
    return tensor::slice(tokens.value(), 0, offsets[at], offsets[at + 1]);
}

TextEncoder::TokenTable TextEncoder::forward_tokens_stacked(
    const std::vector<std::vector<int>>& batch) const {
    // The embedding lookups, the add and every row-wise layer of the
    // block run once over the rows of all sequences; the attention runs
    // one segment per sequence.
    assert(!batch.empty());
    TokenTable table;
    table.offsets.push_back(0);
    std::vector<int> ids;
    std::vector<int> positions;
    std::vector<tensor::AttentionSegment> segments;
    for (const std::vector<int>& sequence : batch) {
        // An empty sequence embeds one pad token; a long one is truncated
        // to max_tokens.
        const int begin = table.offsets.back();
        if (sequence.empty()) {
            ids.push_back(text::Vocabulary::aerial().pad_id());
        } else {
            const auto kept = std::min<std::size_t>(
                sequence.size(), static_cast<std::size_t>(config_.max_tokens));
            ids.insert(ids.end(), sequence.begin(),
                       sequence.begin() + static_cast<std::ptrdiff_t>(kept));
        }
        const int rows = static_cast<int>(ids.size()) - begin;
        for (int p = 0; p < rows; ++p) positions.push_back(p);
        segments.push_back({begin, rows, begin, rows});
        table.offsets.push_back(begin + rows);
    }
    const Var tokens = ag::add(token_embedding_.forward(ids),
                               position_embedding_.forward(positions));
    table.tokens = block_.forward(tokens, std::move(segments));
    return table;
}

Var TextEncoder::pooled(const TokenTable& table,
                        const std::vector<int>& which) const {
    // mean_rows per sequence, then one row-wise projection over the
    // stacked means.
    std::vector<Var> means;
    means.reserve(which.size());
    for (const int i : which) {
        const auto at = static_cast<std::size_t>(i);
        means.push_back(mean_rows(ag::slice(table.tokens, 0, table.offsets[at],
                                            table.offsets[at + 1])));
    }
    return proj_.forward(ag::concat(means, 0));
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
