#pragma once
// Conditional UNet denoiser eps_theta(z_t, t, C) (Sec. IV-C-3).
// Two resolutions with residual blocks, sinusoidal time embeddings
// injected per block, and a bottleneck cross-attention that reads the
// condition token set C (Eq. 5). An untrained "null" token supports
// unconditional passes and classifier-free guidance.

#include "diffusion/schedule.hpp"
#include "nn/attention.hpp"
#include "nn/layers.hpp"

namespace aero::diffusion {

using autograd::Var;
using tensor::Tensor;

struct UNetConfig {
    int in_channels = 4;    ///< latent channels (3 for pixel-space DDPM)
    int base_channels = 24;
    int cond_dim = 32;      ///< width of condition tokens
    int heads = 4;
    int time_dim = 32;
    int groups = 4;         ///< group-norm groups
};

/// Sinusoidal timestep features -> MLP. Produces [N, time_dim].
class TimeEmbedding : public nn::Module {
public:
    TimeEmbedding(int time_dim, util::Rng& rng);

    /// `t` are integer steps; `total_steps` normalises the frequency base.
    Var forward(const std::vector<int>& t, int total_steps) const;

private:
    int time_dim_;
    nn::Linear fc1_;
    nn::Linear fc2_;
};

/// GroupNorm -> SiLU -> conv, with the time embedding added between the
/// two convolutions and a projected residual connection.
class ResBlock : public nn::Module {
public:
    ResBlock(int in_channels, int out_channels, int time_dim, int groups,
             util::Rng& rng);

    Var forward(const Var& x, const Var& time_embedding) const;

private:
    bool needs_projection_;
    nn::GroupNorm norm1_;
    nn::Conv2d conv1_;
    nn::Linear time_proj_;
    nn::GroupNorm norm2_;
    nn::Conv2d conv2_;
    nn::Conv2d skip_;
};

class UNet : public nn::Module {
public:
    UNet(const UNetConfig& config, util::Rng& rng);

    /// Denoises a batch. `t` holds one timestep per sample;
    /// `condition_tokens` holds one [K_i, cond_dim] token matrix per
    /// sample (an empty Tensor selects the learned null token, giving the
    /// unconditional branch for classifier-free guidance).
    Var forward(const Var& z, const std::vector<int>& t, int total_steps,
                const std::vector<Tensor>& condition_tokens) const;

    /// Graph-building variant: condition tokens arrive as live autograd
    /// nodes so upstream condition encoders (BLIP fusion, region
    /// augmenter) receive gradients and train jointly with the denoiser
    /// (the paper's joint optimisation of theta and C). An undefined Var
    /// selects the learned null token.
    Var forward(const Var& z, const std::vector<int>& t, int total_steps,
                const std::vector<Var>& condition_tokens) const;

    /// Single-sample inference convenience used by the DDPM sampler; runs
    /// under a NoGradGuard.
    Tensor denoise(const Tensor& z, int t, int total_steps,
                   const Tensor& condition_tokens) const;

    const UNetConfig& config() const { return config_; }

private:
    UNetConfig config_;
    TimeEmbedding time_embedding_;
    nn::Linear cond_pool_proj_;  ///< pooled condition -> time-embedding space
    nn::Conv2d conv_in_;
    ResBlock down_block_;
    ResBlock mid_block_in_;
    nn::Linear cond_proj_;
    nn::LayerNorm attn_norm_;
    nn::MultiHeadAttention cross_attn_;
    ResBlock mid_block_out_;
    ResBlock up_block_;
    nn::GroupNorm norm_out_;
    nn::Conv2d conv_out_;
    Var null_token_;  ///< [1, cond_dim] learned unconditional token
};

}  // namespace aero::diffusion
