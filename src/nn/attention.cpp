#include "nn/attention.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace aero::nn {

namespace ag = aero::autograd;

MultiHeadAttention::MultiHeadAttention(int dim, int heads, util::Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
    assert(dim % heads == 0);
    register_child(wq_);
    register_child(wk_);
    register_child(wv_);
    register_child(wo_);
}

Var MultiHeadAttention::forward(const Var& query, const Var& context) const {
    return forward(query, context,
                   {{0, query.value().dim(0), 0, context.value().dim(0)}});
}

Var MultiHeadAttention::forward(
    const Var& query, const Var& context,
    std::vector<tensor::AttentionSegment> segments) const {
    assert(query.value().rank() == 2 && query.value().dim(1) == dim_);
    assert(context.value().rank() == 2 && context.value().dim(1) == dim_);

    const Var q = wq_.forward(query);    // [Tq, dim]
    const Var k = wk_.forward(context);  // [Tk, dim]
    const Var v = wv_.forward(context);  // [Tk, dim]

    // softmax(Q K^T / sqrt(d_k)) V per head -- Eq. 2.
    const float inv_sqrt_dk =
        1.0f / std::sqrt(static_cast<float>(head_dim_));
    const Var merged =
        ag::attention(q, k, v, std::move(segments), heads_, inv_sqrt_dk);
    return wo_.forward(merged);
}

TransformerBlock::TransformerBlock(int dim, int heads, util::Rng& rng)
    : norm1_(dim), attn_(dim, heads, rng), norm2_(dim),
      mlp_(dim, dim * 2, dim, rng) {
    register_child(norm1_);
    register_child(attn_);
    register_child(norm2_);
    register_child(mlp_);
}

Var TransformerBlock::forward(const Var& x) const {
    const int rows = x.value().dim(0);
    return forward(x, {{0, rows, 0, rows}});
}

Var TransformerBlock::forward(
    const Var& x, std::vector<tensor::AttentionSegment> segments) const {
    const Var normed = norm1_.forward(x);
    Var h = ag::add(x, attn_.forward(normed, normed, std::move(segments)));
    return ag::add(h, mlp_.forward(norm2_.forward(h)));
}

}  // namespace aero::nn
