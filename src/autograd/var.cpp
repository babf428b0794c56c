#include "autograd/var.hpp"

#include <cassert>
#include <cmath>
#include <unordered_set>

#include "mem/arena.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace aero::autograd {

namespace ops = aero::tensor;

namespace {

thread_local bool t_grad_enabled = true;

/// Floats of input per chunk for the normalisation kernels' pool
/// dispatch. Units are whole rows or (sample, group) pairs and keep the
/// serial reduction order, so this only sets chunk sizes, never bits.
constexpr std::int64_t kMinNormChunk = 1 << 13;

}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
    t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

void Node::accumulate(const Tensor& delta) {
    if (!requires_grad) return;
    if (grad.empty()) {
        grad = Tensor(value.shape());
    }
    assert(grad.same_shape(delta));
    float* g = grad.data();
    const float* d = delta.data();
    for (int i = 0; i < grad.size(); ++i) g[i] += d[i];
}

Var Var::param(Tensor value) {
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->requires_grad = true;
    return Var(std::move(node));
}

Var Var::constant(Tensor value) {
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->requires_grad = false;
    return Var(std::move(node));
}

void Var::zero_grad() {
    if (node_) node_->grad = Tensor();
}

void Var::backward() const {
    assert(node_);
    // Topological order by iterative DFS.
    std::vector<Node*> order;
    std::unordered_set<Node*> visited;
    struct Frame {
        Node* node;
        std::size_t next_parent;
    };
    std::vector<Frame> stack;
    stack.push_back({node_.get(), 0});
    visited.insert(node_.get());
    while (!stack.empty()) {
        Frame& frame = stack.back();
        if (frame.next_parent < frame.node->parents.size()) {
            Node* parent = frame.node->parents[frame.next_parent++].get();
            if (parent->requires_grad && visited.insert(parent).second) {
                stack.push_back({parent, 0});
            }
        } else {
            order.push_back(frame.node);
            stack.pop_back();
        }
    }

    node_->accumulate(Tensor::ones(node_->value.shape()));
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node* node = *it;
        if (node->backprop && !node->grad.empty()) {
            node->backprop(node->grad);
        }
    }
}

// ---- arithmetic -------------------------------------------------------------

Var add(const Var& a, const Var& b) {
    auto an = a.node();
    auto bn = b.node();
    return Var::make(ops::add(a.value(), b.value()), {a, b},
                     [an, bn](const Tensor& g) {
                         an->accumulate(g);
                         bn->accumulate(g);
                     });
}

Var sub(const Var& a, const Var& b) {
    auto an = a.node();
    auto bn = b.node();
    return Var::make(ops::sub(a.value(), b.value()), {a, b},
                     [an, bn](const Tensor& g) {
                         an->accumulate(g);
                         bn->accumulate(ops::neg(g));
                     });
}

Var mul(const Var& a, const Var& b) {
    auto an = a.node();
    auto bn = b.node();
    return Var::make(ops::mul(a.value(), b.value()), {a, b},
                     [an, bn](const Tensor& g) {
                         an->accumulate(ops::mul(g, bn->value));
                         bn->accumulate(ops::mul(g, an->value));
                     });
}

Var scale(const Var& a, float s) {
    auto an = a.node();
    return Var::make(ops::scale(a.value(), s), {a}, [an, s](const Tensor& g) {
        an->accumulate(ops::scale(g, s));
    });
}

Var add_scalar(const Var& a, float s) {
    auto an = a.node();
    return Var::make(ops::add_scalar(a.value(), s), {a},
                     [an](const Tensor& g) { an->accumulate(g); });
}

// ---- linear algebra ---------------------------------------------------------

Var matmul(const Var& a, const Var& b) {
    auto an = a.node();
    auto bn = b.node();
    return Var::make(ops::matmul(a.value(), b.value()), {a, b},
                     [an, bn](const Tensor& g) {
                         if (an->requires_grad) {
                             an->accumulate(ops::matmul_nt(g, bn->value));
                         }
                         if (bn->requires_grad) {
                             bn->accumulate(ops::matmul_tn(an->value, g));
                         }
                     });
}

Var transpose2d(const Var& a) {
    auto an = a.node();
    return Var::make(ops::transpose2d(a.value()), {a}, [an](const Tensor& g) {
        an->accumulate(ops::transpose2d(g));
    });
}

Var add_row_bias(const Var& a, const Var& bias) {
    auto an = a.node();
    auto bn = bias.node();
    return Var::make(ops::add_row_bias(a.value(), bias.value()), {a, bias},
                     [an, bn](const Tensor& g) {
                         an->accumulate(g);
                         bn->accumulate(ops::sum_rows(g));
                     });
}

// ---- activations ------------------------------------------------------------

Var relu(const Var& a) {
    auto an = a.node();
    return Var::make(ops::relu(a.value()), {a}, [an](const Tensor& g) {
        an->accumulate(ops::relu_backward(g, an->value));
    });
}

Var silu(const Var& a) {
    auto an = a.node();
    return Var::make(ops::silu(a.value()), {a}, [an](const Tensor& g) {
        an->accumulate(ops::silu_backward(g, an->value));
    });
}

Var tanh(const Var& a) {
    auto an = a.node();
    return Var::make(ops::tanh(a.value()), {a},
                     [an](const Tensor& g, const Tensor& out) {
                         an->accumulate(ops::tanh_backward(g, out));
                     });
}

Var sigmoid(const Var& a) {
    auto an = a.node();
    return Var::make(ops::sigmoid(a.value()), {a},
                     [an](const Tensor& g, const Tensor& out) {
                         an->accumulate(ops::sigmoid_backward(g, out));
                     });
}

Var softmax_rows(const Var& a) {
    auto an = a.node();
    return Var::make(ops::softmax_rows(a.value()), {a},
                     [an](const Tensor& g, const Tensor& out) {
                         an->accumulate(ops::softmax_rows_backward(g, out));
                     });
}

// ---- attention --------------------------------------------------------------

Var attention(const Var& q, const Var& k, const Var& v,
              std::vector<tensor::AttentionSegment> segments, int heads,
              float score_scale) {
    // The softmax matrices are kept only for a node that gets recorded.
    const bool record = grad_enabled() && (q.requires_grad() ||
                                           k.requires_grad() ||
                                           v.requires_grad());
    Tensor probs;
    Tensor out = ops::attention(q.value(), k.value(), v.value(), segments,
                                heads, score_scale, record ? &probs : nullptr);
    auto qn = q.node();
    auto kn = k.node();
    auto vn = v.node();
    return Var::make(
        std::move(out), {q, k, v},
        [qn, kn, vn, segments = std::move(segments), heads, score_scale,
         probs = std::move(probs)](const Tensor& g) {
            ops::AttentionGrads grads = ops::attention_backward(
                g, qn->value, kn->value, vn->value, probs, segments, heads,
                score_scale);
            qn->accumulate(grads.q);
            kn->accumulate(grads.k);
            vn->accumulate(grads.v);
        });
}

// ---- convolution / spatial --------------------------------------------------

Var conv2d(const Var& input, const Var& weight, const Var& bias,
           const tensor::Conv2dSpec& spec) {
    auto in = input.node();
    auto wn = weight.node();
    auto bn = bias.defined() ? bias.node() : nullptr;
    const Tensor empty_bias;
    Tensor out = ops::conv2d(input.value(), weight.value(),
                             bn ? bn->value : empty_bias, spec);
    std::vector<Var> parents{input, weight};
    if (bn) parents.push_back(bias);
    return Var::make(std::move(out), std::move(parents),
                     [in, wn, bn, spec](const Tensor& g) {
                         if (in->requires_grad) {
                             in->accumulate(ops::conv2d_backward_input(
                                 g, wn->value, in->value.shape(), spec));
                         }
                         if (wn->requires_grad) {
                             wn->accumulate(ops::conv2d_backward_weight(
                                 g, in->value, wn->value.shape(), spec));
                         }
                         if (bn && bn->requires_grad) {
                             bn->accumulate(ops::conv2d_backward_bias(g));
                         }
                     });
}

Var upsample_nearest2x(const Var& input) {
    auto in = input.node();
    return Var::make(ops::upsample_nearest2x(input.value()), {input},
                     [in](const Tensor& g) {
                         in->accumulate(ops::upsample_nearest2x_backward(g));
                     });
}

Var add_spatial_bias(const Var& x, const Var& bias) {
    auto xn = x.node();
    auto bn = bias.node();
    return Var::make(ops::add_spatial_bias(x.value(), bias.value()), {x, bias},
                     [xn, bn](const Tensor& g) {
                         xn->accumulate(g);
                         if (bn->requires_grad) {
                             bn->accumulate(
                                 ops::add_spatial_bias_backward_bias(g));
                         }
                     });
}

Var avg_pool2x(const Var& input) {
    auto in = input.node();
    return Var::make(ops::avg_pool2x(input.value()), {input},
                     [in](const Tensor& g) {
                         in->accumulate(ops::avg_pool2x_backward(g));
                     });
}

Var global_avg_pool(const Var& input) {
    auto in = input.node();
    return Var::make(ops::global_avg_pool(input.value()), {input},
                     [in](const Tensor& g) {
                         in->accumulate(ops::global_avg_pool_backward(
                             g, in->value.shape()));
                     });
}

// ---- shape ------------------------------------------------------------------

Var reshape(const Var& a, std::vector<int> shape) {
    auto an = a.node();
    std::vector<int> original = a.value().shape();
    return Var::make(a.value().reshaped(std::move(shape)), {a},
                     [an, original](const Tensor& g) {
                         an->accumulate(g.reshaped(original));
                     });
}

Var concat(const std::vector<Var>& parts, int axis) {
    std::vector<Tensor> values;
    std::vector<std::vector<int>> shapes;
    std::vector<std::shared_ptr<Node>> nodes;
    values.reserve(parts.size());
    for (const Var& p : parts) {
        values.push_back(p.value());
        shapes.push_back(p.value().shape());
        nodes.push_back(p.node());
    }
    return Var::make(ops::concat(values, axis), parts,
                     [nodes, shapes, axis](const Tensor& g) {
                         std::vector<Tensor> grads =
                             ops::concat_backward(g, shapes, axis);
                         for (std::size_t i = 0; i < nodes.size(); ++i) {
                             nodes[i]->accumulate(grads[i]);
                         }
                     });
}

Var slice(const Var& a, int axis, int start, int stop) {
    auto an = a.node();
    std::vector<int> input_shape = a.value().shape();
    return Var::make(ops::slice(a.value(), axis, start, stop), {a},
                     [an, input_shape, axis, start](const Tensor& g) {
                         an->accumulate(ops::slice_backward(g, input_shape,
                                                            axis, start));
                     });
}

Var map_to_tokens(const Var& feature_map) {
    auto mn = feature_map.node();
    std::vector<int> shape = feature_map.value().shape();
    return Var::make(ops::map_to_tokens(feature_map.value()), {feature_map},
                     [mn, shape](const Tensor& g) {
                         mn->accumulate(ops::tokens_to_map(g, shape));
                     });
}

Var tokens_to_map(const Var& tokens, const std::vector<int>& map_shape) {
    auto tn = tokens.node();
    return Var::make(ops::tokens_to_map(tokens.value(), map_shape), {tokens},
                     [tn](const Tensor& g) {
                         tn->accumulate(ops::map_to_tokens(g));
                     });
}

// ---- normalisation ----------------------------------------------------------

Var layer_norm_rows(const Var& x, const Var& gamma, const Var& beta,
                    float eps) {
    assert(x.value().rank() == 2);
    const int m = x.value().dim(0);
    const int n = x.value().dim(1);
    assert(gamma.value().size() == n && beta.value().size() == n);

    // Rows are independent units; each keeps the serial loop's order.
    Tensor normalized({m, n});
    Tensor out({m, n});
    mem::Buffer inv_std(static_cast<std::size_t>(m));
    const float* px = x.value().data();
    const float* pg = gamma.value().data();
    const float* pb = beta.value().data();
    util::parallel_for(
        0, m, util::grain_for(n, kMinNormChunk),
        [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) {
                const float* row = px + i * n;
                float mean = 0.0f;
                for (int j = 0; j < n; ++j) mean += row[j];
                mean /= static_cast<float>(n);
                float var = 0.0f;
                for (int j = 0; j < n; ++j) {
                    const float d = row[j] - mean;
                    var += d * d;
                }
                var /= static_cast<float>(n);
                const float inv = 1.0f / std::sqrt(var + eps);
                inv_std[static_cast<std::size_t>(i)] = inv;
                float* norm_row = normalized.data() + i * n;
                float* out_row = out.data() + i * n;
                for (int j = 0; j < n; ++j) {
                    norm_row[j] = (row[j] - mean) * inv;
                    out_row[j] = norm_row[j] * pg[j] + pb[j];
                }
            }
        });

    auto xn = x.node();
    auto gn = gamma.node();
    auto bn = beta.node();
    return Var::make(
        std::move(out), {x, gamma, beta},
        [xn, gn, bn, normalized = std::move(normalized),
         inv_std = std::move(inv_std), m, n](const Tensor& g) {
            if (gn->requires_grad) {
                Tensor dgamma({n});
                for (int i = 0; i < m; ++i) {
                    for (int j = 0; j < n; ++j) {
                        dgamma[j] += g[i * n + j] * normalized[i * n + j];
                    }
                }
                gn->accumulate(dgamma);
            }
            if (bn->requires_grad) {
                bn->accumulate(ops::sum_rows(g));
            }
            if (xn->requires_grad) {
                Tensor dx({m, n});
                const float* pgrad = g.data();
                const float* pnorm = normalized.data();
                const float* pgamma = gn->value.data();
                float* pdx = dx.data();
                util::parallel_for(
                    0, m, util::grain_for(n, kMinNormChunk),
                    [&](std::int64_t i0, std::int64_t i1) {
                        for (std::int64_t i = i0; i < i1; ++i) {
                            const float* gi = pgrad + i * n;
                            const float* xh = pnorm + i * n;
                            // dxhat = g * gamma; dx = (dxhat - mean(dxhat)
                            //   - xhat * mean(dxhat * xhat)) * inv_std
                            float mean_dxhat = 0.0f;
                            float mean_dxhat_xhat = 0.0f;
                            for (int j = 0; j < n; ++j) {
                                const float dxhat = gi[j] * pgamma[j];
                                mean_dxhat += dxhat;
                                mean_dxhat_xhat += dxhat * xh[j];
                            }
                            mean_dxhat /= static_cast<float>(n);
                            mean_dxhat_xhat /= static_cast<float>(n);
                            const float inv =
                                inv_std[static_cast<std::size_t>(i)];
                            float* dxi = pdx + i * n;
                            for (int j = 0; j < n; ++j) {
                                const float dxhat = gi[j] * pgamma[j];
                                dxi[j] = (dxhat - mean_dxhat -
                                          xh[j] * mean_dxhat_xhat) *
                                         inv;
                            }
                        }
                    });
                xn->accumulate(dx);
            }
        });
}

Var group_norm(const Var& x, int groups, const Var& gamma, const Var& beta,
               float eps) {
    assert(x.value().rank() == 4);
    const int n = x.value().dim(0);
    const int c = x.value().dim(1);
    const int h = x.value().dim(2);
    const int w = x.value().dim(3);
    assert(c % groups == 0);
    assert(gamma.value().size() == c && beta.value().size() == c);
    const int cpg = c / groups;          // channels per group
    const int spatial = h * w;
    const int group_size = cpg * spatial;  // elements per normalisation group

    // (sample, group) pairs are independent units; each keeps the
    // serial loop's reduction order.
    Tensor normalized(x.value().shape());
    Tensor out(x.value().shape());
    mem::Buffer inv_std(static_cast<std::size_t>(n * groups));
    const float* px = x.value().data();
    const float* pgamma = gamma.value().data();
    const float* pbeta = beta.value().data();
    util::parallel_for(
        0, static_cast<std::int64_t>(n) * groups,
        util::grain_for(group_size, kMinNormChunk),
        [&](std::int64_t u0, std::int64_t u1) {
            for (std::int64_t unit = u0; unit < u1; ++unit) {
                const int g0 = static_cast<int>(unit % groups);
                const std::int64_t offset = unit * group_size;
                const float* base = px + offset;
                float mean = 0.0f;
                for (int i = 0; i < group_size; ++i) mean += base[i];
                mean /= static_cast<float>(group_size);
                float var = 0.0f;
                for (int i = 0; i < group_size; ++i) {
                    const float d = base[i] - mean;
                    var += d * d;
                }
                var /= static_cast<float>(group_size);
                const float inv = 1.0f / std::sqrt(var + eps);
                inv_std[static_cast<std::size_t>(unit)] = inv;
                float* norm_base = normalized.data() + offset;
                for (int i = 0; i < group_size; ++i) {
                    norm_base[i] = (base[i] - mean) * inv;
                }
                float* out_base = out.data() + offset;
                for (int ci = 0; ci < cpg; ++ci) {
                    const int ch = g0 * cpg + ci;
                    const float gm = pgamma[ch];
                    const float bt = pbeta[ch];
                    const float* src = norm_base + ci * spatial;
                    float* dst = out_base + ci * spatial;
                    for (int s = 0; s < spatial; ++s) dst[s] = src[s] * gm + bt;
                }
            }
        });

    auto xn = x.node();
    auto gn = gamma.node();
    auto bn = beta.node();
    return Var::make(
        std::move(out), {x, gamma, beta},
        [xn, gn, bn, normalized = std::move(normalized),
         inv_std = std::move(inv_std), n, c, groups, cpg, spatial,
         group_size](const Tensor& g) {
            const float* pgrad = g.data();
            const float* pnorm = normalized.data();
            if (gn->requires_grad || bn->requires_grad) {
                // Channels are the units: each sums its per-sample
                // partials in ascending sample order, as the serial loop.
                Tensor dgamma({c});
                Tensor dbeta({c});
                util::parallel_for(
                    0, c,
                    util::grain_for(static_cast<std::int64_t>(n) * spatial,
                                    kMinNormChunk),
                    [&](std::int64_t c0, std::int64_t c1) {
                        for (std::int64_t ch = c0; ch < c1; ++ch) {
                            for (int b = 0; b < n; ++b) {
                                const std::int64_t offset =
                                    (b * c + ch) * spatial;
                                const float* gp = pgrad + offset;
                                const float* xh = pnorm + offset;
                                float dg = 0.0f;
                                float db = 0.0f;
                                for (int s = 0; s < spatial; ++s) {
                                    dg += gp[s] * xh[s];
                                    db += gp[s];
                                }
                                dgamma[static_cast<int>(ch)] += dg;
                                dbeta[static_cast<int>(ch)] += db;
                            }
                        }
                    });
                if (gn->requires_grad) gn->accumulate(dgamma);
                if (bn->requires_grad) bn->accumulate(dbeta);
            }
            if (xn->requires_grad) {
                Tensor dx(xn->value.shape());
                const float* pgamma_v = gn->value.data();
                float* pdx = dx.data();
                util::parallel_for(
                    0, static_cast<std::int64_t>(n) * groups,
                    util::grain_for(group_size, kMinNormChunk),
                    [&](std::int64_t u0, std::int64_t u1) {
                        for (std::int64_t unit = u0; unit < u1; ++unit) {
                            const int g0 = static_cast<int>(unit % groups);
                            const std::int64_t offset = unit * group_size;
                            float mean_dxhat = 0.0f;
                            float mean_dxhat_xhat = 0.0f;
                            for (int ci = 0; ci < cpg; ++ci) {
                                const float gm = pgamma_v[g0 * cpg + ci];
                                const float* gp =
                                    pgrad + offset + ci * spatial;
                                const float* xh =
                                    pnorm + offset + ci * spatial;
                                for (int s = 0; s < spatial; ++s) {
                                    const float dxhat = gp[s] * gm;
                                    mean_dxhat += dxhat;
                                    mean_dxhat_xhat += dxhat * xh[s];
                                }
                            }
                            mean_dxhat /= static_cast<float>(group_size);
                            mean_dxhat_xhat /=
                                static_cast<float>(group_size);
                            const float inv =
                                inv_std[static_cast<std::size_t>(unit)];
                            for (int ci = 0; ci < cpg; ++ci) {
                                const float gm = pgamma_v[g0 * cpg + ci];
                                const float* gp =
                                    pgrad + offset + ci * spatial;
                                const float* xh =
                                    pnorm + offset + ci * spatial;
                                float* dxp = pdx + offset + ci * spatial;
                                for (int s = 0; s < spatial; ++s) {
                                    const float dxhat = gp[s] * gm;
                                    dxp[s] = (dxhat - mean_dxhat -
                                              xh[s] * mean_dxhat_xhat) *
                                             inv;
                                }
                            }
                        }
                    });
                xn->accumulate(dx);
            }
        });
}

// ---- lookup -----------------------------------------------------------------

Var embedding(const Var& table, const std::vector<int>& indices) {
    assert(table.value().rank() == 2);
    const int v = table.value().dim(0);
    const int d = table.value().dim(1);
    const int m = static_cast<int>(indices.size());
    Tensor out({m, d});
    for (int i = 0; i < m; ++i) {
        assert(indices[static_cast<std::size_t>(i)] >= 0 &&
               indices[static_cast<std::size_t>(i)] < v);
        const float* src =
            table.value().data() + indices[static_cast<std::size_t>(i)] * d;
        float* dst = out.data() + i * d;
        for (int j = 0; j < d; ++j) dst[j] = src[j];
    }
    auto tn = table.node();
    return Var::make(std::move(out), {table},
                     [tn, indices, d](const Tensor& g) {
                         Tensor dt(tn->value.shape());
                         for (std::size_t i = 0; i < indices.size(); ++i) {
                             const float* src =
                                 g.data() + static_cast<int>(i) * d;
                             float* dst = dt.data() + indices[i] * d;
                             for (int j = 0; j < d; ++j) dst[j] += src[j];
                         }
                         tn->accumulate(dt);
                     });
}

// ---- reductions & losses ----------------------------------------------------

Var mean_all(const Var& a) {
    auto an = a.node();
    const float inv = 1.0f / static_cast<float>(a.value().size());
    Tensor out({1});
    out[0] = ops::mean_all(a.value());
    return Var::make(std::move(out), {a}, [an, inv](const Tensor& g) {
        an->accumulate(Tensor::full(an->value.shape(), g[0] * inv));
    });
}

Var sum_all(const Var& a) {
    auto an = a.node();
    Tensor out({1});
    out[0] = ops::sum_all(a.value());
    return Var::make(std::move(out), {a}, [an](const Tensor& g) {
        an->accumulate(Tensor::full(an->value.shape(), g[0]));
    });
}

Var mse_loss(const Var& prediction, const Var& target) {
    assert(prediction.value().same_shape(target.value()));
    auto pn = prediction.node();
    auto tn = target.node();
    Tensor diff = ops::sub(prediction.value(), target.value());
    Tensor out({1});
    double acc = 0.0;
    for (float v : diff) acc += static_cast<double>(v) * v;
    out[0] = static_cast<float>(acc / diff.size());
    const float inv = 2.0f / static_cast<float>(diff.size());
    return Var::make(std::move(out), {prediction, target},
                     [pn, tn, diff = std::move(diff), inv](const Tensor& g) {
                         Tensor d = ops::scale(diff, g[0] * inv);
                         pn->accumulate(d);
                         if (tn->requires_grad) tn->accumulate(ops::neg(d));
                     });
}

Var cross_entropy_rows(const Var& logits, const std::vector<int>& targets) {
    assert(logits.value().rank() == 2);
    const int m = logits.value().dim(0);
    const int n = logits.value().dim(1);
    assert(static_cast<int>(targets.size()) == m);

    Tensor probs = ops::softmax_rows(logits.value());
    Tensor out({1});
    double loss = 0.0;
    for (int i = 0; i < m; ++i) {
        const float p =
            std::max(probs[i * n + targets[static_cast<std::size_t>(i)]],
                     1e-12f);
        loss -= std::log(static_cast<double>(p));
    }
    out[0] = static_cast<float>(loss / m);

    auto ln = logits.node();
    return Var::make(std::move(out), {logits},
                     [ln, probs = std::move(probs), targets, m,
                      n](const Tensor& g) {
                         Tensor dl({m, n});
                         const float inv = g[0] / static_cast<float>(m);
                         for (int i = 0; i < m; ++i) {
                             for (int j = 0; j < n; ++j) {
                                 float v = probs[i * n + j];
                                 if (j == targets[static_cast<std::size_t>(i)]) {
                                     v -= 1.0f;
                                 }
                                 dl[i * n + j] = v * inv;
                             }
                         }
                         ln->accumulate(dl);
                     });
}

}  // namespace aero::autograd
