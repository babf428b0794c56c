#pragma once
// Vision and text encoders underlying the CLIP / BLIP substitutes.
// The image tower is a small conv net that exposes both a pooled global
// feature (f_X in the paper) and a token grid (for cross-attention
// fusion); the text tower embeds caption tokens and contextualises them
// with one transformer block.

#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "text/vocabulary.hpp"

namespace aero::embed {

using autograd::Var;
using tensor::Tensor;

struct EmbedConfig {
    int dim = 32;         ///< shared embedding width
    int image_size = 32;  ///< input resolution of the image tower
    int heads = 4;
    int max_tokens = 64;  ///< captions are truncated to this length
};

/// Conv tower: [N,3,H,W] -> pooled [N,dim] and token grids [N·T,dim] for
/// fusion.
class ImageEncoder : public nn::Module {
public:
    ImageEncoder(const EmbedConfig& config, util::Rng& rng);

    /// Pooled global embedding for a batch: [N, dim].
    Var forward(const Var& images) const;

    /// The pooled embedding (bit-identical to forward()) and the token
    /// features of a batch from one trunk pass.
    struct Encoding {
        Var pooled;  ///< [N, dim]
        /// [N·T, dim] with T = (size/8)^2; image i's tokens are rows
        /// [i·T, (i+1)·T).
        Var tokens;
    };
    Encoding encode(const Var& images) const;

    const EmbedConfig& config() const { return config_; }

private:
    /// Shared trunk producing the final feature map [N, dim, s, s].
    Var trunk(const Var& images) const;

    EmbedConfig config_;
    nn::Conv2d conv1_;
    nn::GroupNorm norm1_;
    nn::Conv2d conv2_;
    nn::GroupNorm norm2_;
    nn::Conv2d conv3_;
    nn::Linear proj_;
};

/// Token-embedding text tower with one transformer block.
class TextEncoder : public nn::Module {
public:
    TextEncoder(const EmbedConfig& config, util::Rng& rng);

    /// Contextualised tokens of many sequences from one stacked forward.
    struct TokenTable {
        Var tokens;  ///< [sum of T_i, dim]
        /// Sequence i's rows are [offsets[i], offsets[i+1]).
        std::vector<int> offsets;
        /// Sequence i's rows: forward_tokens(batch[i]), bit for bit.
        Tensor rows(int i) const;
    };
    /// Each sequence (a pad token if empty, at most max_tokens ids)
    /// attends over its own tokens only, one self-attention segment
    /// each, while the embeddings, norms, projections and MLP run once
    /// over all rows.
    TokenTable forward_tokens_stacked(
        const std::vector<std::vector<int>>& batch) const;
    /// Mean-pooled sentence embeddings [S, dim] of the table's sequences
    /// `which`: row s equals forward(batch[which[s]]), bit for bit.
    Var pooled(const TokenTable& table, const std::vector<int>& which) const;

    /// Contextualised token features [T, dim] for one token sequence.
    Var forward_tokens(const std::vector<int>& token_ids) const;
    /// Mean-pooled sentence embedding [1, dim].
    Var forward(const std::vector<int>& token_ids) const;
    /// Batch of pooled embeddings [N, dim], one forward() graph per
    /// sequence.
    Var forward_batch(const std::vector<std::vector<int>>& batch) const;

    const EmbedConfig& config() const { return config_; }

private:
    EmbedConfig config_;
    nn::Embedding token_embedding_;
    nn::Embedding position_embedding_;
    nn::TransformerBlock block_;
    nn::Linear proj_;
};

/// L2-normalises each row of [N, dim] (autograd-friendly).
Var normalize_rows(const Var& x, float eps = 1e-6f);

/// Mean over rows: [N, dim] -> [1, dim].
Var mean_rows(const Var& x);

}  // namespace aero::embed
