#include "diffusion/unet.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <utility>

namespace aero::diffusion {

namespace ag = aero::autograd;

TimeEmbedding::TimeEmbedding(int time_dim, util::Rng& rng)
    : time_dim_(time_dim),
      fc1_(time_dim, time_dim * 2, rng),
      fc2_(time_dim * 2, time_dim, rng) {
    register_child(fc1_);
    register_child(fc2_);
}

Var TimeEmbedding::forward(const std::vector<int>& t, int total_steps) const {
    const int n = static_cast<int>(t.size());
    const int half = time_dim_ / 2;
    Tensor features({n, time_dim_});
    for (int i = 0; i < n; ++i) {
        const float pos = static_cast<float>(t[static_cast<std::size_t>(i)]) /
                          static_cast<float>(total_steps);
        for (int k = 0; k < half; ++k) {
            const float freq = std::pow(
                10000.0f, -static_cast<float>(k) / static_cast<float>(half));
            const float angle =
                pos * freq * 2.0f * std::numbers::pi_v<float> * 50.0f;
            features[i * time_dim_ + k] = std::sin(angle);
            features[i * time_dim_ + half + k] = std::cos(angle);
        }
    }
    return fc2_.forward(ag::silu(fc1_.forward(Var::constant(features))));
}

ResBlock::ResBlock(int in_channels, int out_channels, int time_dim, int groups,
                   util::Rng& rng)
    : needs_projection_(in_channels != out_channels),
      norm1_(in_channels, groups),
      conv1_(in_channels, out_channels, 3, 1, 1, rng),
      time_proj_(time_dim, out_channels, rng),
      norm2_(out_channels, groups),
      conv2_(out_channels, out_channels, 3, 1, 1, rng),
      skip_(in_channels, out_channels, 1, 1, 0, rng, /*with_bias=*/false) {
    register_child(norm1_);
    register_child(conv1_);
    register_child(time_proj_);
    register_child(norm2_);
    register_child(conv2_);
    if (needs_projection_) register_child(skip_);
}

Var ResBlock::forward(const Var& x, const Var& time_embedding) const {
    Var h = conv1_.forward(ag::silu(norm1_.forward(x)));
    h = ag::add_spatial_bias(h, time_proj_.forward(time_embedding));
    h = conv2_.forward(ag::silu(norm2_.forward(h)));
    const Var shortcut = needs_projection_ ? skip_.forward(x) : x;
    return ag::add(h, shortcut);
}

UNet::UNet(const UNetConfig& config, util::Rng& rng)
    : config_(config),
      time_embedding_(config.time_dim, rng),
      cond_pool_proj_(config.cond_dim, config.time_dim, rng),
      conv_in_(config.in_channels, config.base_channels, 3, 1, 1, rng),
      down_block_(config.base_channels, config.base_channels, config.time_dim,
                  config.groups, rng),
      mid_block_in_(config.base_channels, config.base_channels * 2,
                    config.time_dim, config.groups, rng),
      cond_proj_(config.cond_dim, config.base_channels * 2, rng),
      attn_norm_(config.base_channels * 2),
      cross_attn_(config.base_channels * 2, config.heads, rng),
      mid_block_out_(config.base_channels * 2, config.base_channels * 2,
                     config.time_dim, config.groups, rng),
      up_block_(config.base_channels * 3, config.base_channels,
                config.time_dim, config.groups, rng),
      norm_out_(config.base_channels, config.groups),
      conv_out_(config.base_channels, config.in_channels, 3, 1, 1, rng) {
    register_child(time_embedding_);
    register_child(cond_pool_proj_);
    register_child(conv_in_);
    register_child(down_block_);
    register_child(mid_block_in_);
    register_child(cond_proj_);
    register_child(attn_norm_);
    register_child(cross_attn_);
    register_child(mid_block_out_);
    register_child(up_block_);
    register_child(norm_out_);
    register_child(conv_out_);
    null_token_ = register_parameter(
        Tensor::randn({1, config.cond_dim}, rng, 0.0f, 0.2f));
    // Cross-attention fades in on the residual path.
    cross_attn_.init_output_zero();
}

Var UNet::forward(const Var& z, const std::vector<int>& t, int total_steps,
                  const std::vector<Tensor>& condition_tokens) const {
    std::vector<Var> vars;
    vars.reserve(condition_tokens.size());
    for (const Tensor& tokens : condition_tokens) {
        vars.push_back(tokens.empty() ? Var() : Var::constant(tokens));
    }
    return forward(z, t, total_steps, vars);
}

Var UNet::forward(const Var& z, const std::vector<int>& t, int total_steps,
                  const std::vector<Var>& condition_tokens) const {
    const int n = z.value().dim(0);
    assert(static_cast<int>(t.size()) == n);
    assert(static_cast<int>(condition_tokens.size()) == n);

    Var temb = time_embedding_.forward(t, total_steps);  // [N, time]

    // Each sample's condition rows (the learned null token for an
    // unconditional sample), stacked in sample order.
    std::vector<Var> sources;
    sources.reserve(static_cast<std::size_t>(n));
    for (const Var& tokens : condition_tokens) {
        sources.push_back(tokens.defined() ? tokens : null_token_);
    }

    // FiLM-style injection: the mean-pooled condition is projected into
    // the time-embedding space and added per sample, so conditioning
    // modulates every residual block (concatenation into each hidden
    // layer, Sec. IV-C-3) -- the bottleneck cross-attention then refines
    // spatial detail on top.
    {
        std::vector<Var> pooled_rows;
        pooled_rows.reserve(static_cast<std::size_t>(n));
        for (const Var& source : sources) {
            const int k = source.value().dim(0);
            Tensor averaging({1, k});
            for (int j = 0; j < k; ++j) {
                averaging[j] = 1.0f / static_cast<float>(k);
            }
            pooled_rows.push_back(
                ag::matmul(Var::constant(std::move(averaging)), source));
        }
        const Var pooled =
            n == 1 ? pooled_rows.front() : ag::concat(pooled_rows, 0);
        temb = ag::add(temb, cond_pool_proj_.forward(pooled));
    }

    Var h = conv_in_.forward(z);
    const Var skip = down_block_.forward(h, temb);  // [N, C, H, W]
    Var mid = ag::avg_pool2x(skip);
    mid = mid_block_in_.forward(mid, temb);         // [N, 2C, H/2, W/2]

    // Cross-attention over the whole batch at once: the bottleneck
    // becomes one [N·T, 2C] token table, and sample i's T tokens attend
    // over its own projected condition rows only (one attention segment
    // per sample). Every projection is row-independent, so each row
    // equals the per-sample computation bit for bit (DESIGN.md §18).
    {
        const std::vector<int> map_shape = mid.value().shape();
        const int tokens = map_shape[2] * map_shape[3];
        std::vector<tensor::AttentionSegment> segments;
        segments.reserve(static_cast<std::size_t>(n));
        int context_rows = 0;
        for (int i = 0; i < n; ++i) {
            const int k =
                sources[static_cast<std::size_t>(i)].value().dim(0);
            segments.push_back({i * tokens, tokens, context_rows, k});
            context_rows += k;
        }
        const Var context = cond_proj_.forward(
            n == 1 ? sources.front() : ag::concat(sources, 0));
        const Var seq = ag::map_to_tokens(mid);  // [N·T, 2C]
        const Var attended =
            ag::add(seq, cross_attn_.forward(attn_norm_.forward(seq),
                                             context, std::move(segments)));
        mid = ag::tokens_to_map(attended, map_shape);
    }

    mid = mid_block_out_.forward(mid, temb);
    Var up = ag::upsample_nearest2x(mid);           // [N, 2C, H, W]
    up = ag::concat({up, skip}, 1);                 // [N, 3C, H, W]
    up = up_block_.forward(up, temb);
    return conv_out_.forward(ag::silu(norm_out_.forward(up)));
}

Tensor UNet::denoise(const Tensor& z, int t, int total_steps,
                     const Tensor& condition_tokens) const {
    assert(z.rank() == 3);  // [C, H, W]
    const ag::NoGradGuard no_grad;
    const Var batched = Var::constant(
        z.reshaped({1, z.dim(0), z.dim(1), z.dim(2)}));
    const Var out = forward(batched, {t}, total_steps, {condition_tokens});
    return out.value().reshaped({z.dim(0), z.dim(1), z.dim(2)});
}

}  // namespace aero::diffusion
