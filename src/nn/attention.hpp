#pragma once
// Multi-head scaled dot-product attention (Eq. 2-3 of the paper) over
// token matrices [T, d]. The softmax(QKᵀ/√d)V core is the one fused
// autograd::attention op; a segmented call runs many independent token
// sets (one per sample of a batch) through one set of projections.

#include <vector>

#include "nn/layers.hpp"

namespace aero::nn {

class MultiHeadAttention : public Module {
public:
    /// `dim` must be divisible by `heads`.
    MultiHeadAttention(int dim, int heads, util::Rng& rng);

    /// Cross-attention: queries from `query` [Tq, dim], keys/values from
    /// `context` [Tk, dim]. Self-attention is forward(x, x). This is the
    /// one-segment case of the segmented form below.
    Var forward(const Var& query, const Var& context) const;

    /// Segmented cross-attention: each segment's query rows attend over
    /// its own context rows only, while wq/wk/wv/wo each run once over
    /// all rows. Row for row this equals one forward(query, context) call
    /// per segment, bit for bit.
    Var forward(const Var& query, const Var& context,
                std::vector<tensor::AttentionSegment> segments) const;

    /// Self-attention convenience wrapper.
    Var forward(const Var& x) const { return forward(x, x); }

    int dim() const { return dim_; }
    int heads() const { return heads_; }

    /// Zero-initialises the output projection: on residual paths the
    /// attention starts as a no-op and fades in during training (the
    /// standard initialisation for attention blocks added to pretrained
    /// or jointly trained stacks).
    void init_output_zero() { wo_.init_zero(); }

private:
    int dim_;
    int heads_;
    int head_dim_;
    Linear wq_;
    Linear wk_;
    Linear wv_;
    Linear wo_;
};

/// Pre-norm transformer block: x + attn(LN(x)), then x + MLP(LN(x)).
class TransformerBlock : public Module {
public:
    TransformerBlock(int dim, int heads, util::Rng& rng);

    Var forward(const Var& x) const;

    /// Segmented self-attention over stacked sequences: each segment's
    /// rows attend over that segment's rows only, while the norms, the
    /// projections and the MLP run once over all rows. Row for row this
    /// equals one forward(x) call per segment, bit for bit.
    Var forward(const Var& x,
                std::vector<tensor::AttentionSegment> segments) const;

private:
    LayerNorm norm1_;
    MultiHeadAttention attn_;
    LayerNorm norm2_;
    Mlp mlp_;
};

}  // namespace aero::nn
