#pragma once
// Tape-based reverse-mode automatic differentiation.
//
// `Var` is a cheap handle onto a shared graph node holding a forward
// `Tensor` value and (after backward()) its gradient. Ops are free
// functions that build the graph; `backward()` runs a topologically
// ordered sweep accumulating gradients into every node that requires
// them. Leaf nodes (parameters) persist across steps: the optimizer
// reads `grad()` and the training loop calls `zero_grad()`.
//
// Inference runs under a `NoGradGuard` (DESIGN.md §18): ops then return
// leaves holding only their value, so a forward pass allocates no graph
// and frees each activation as soon as its last handle drops.

#include <functional>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace aero::autograd {

using tensor::Tensor;

struct Node {
    Tensor value;
    Tensor grad;  ///< empty until first accumulation
    bool requires_grad = false;
    std::vector<std::shared_ptr<Node>> parents;
    /// Propagates this node's accumulated gradient into its parents.
    std::function<void(const Tensor& upstream)> backprop;

    /// Adds `delta` into `grad`, allocating zeros on first touch.
    void accumulate(const Tensor& delta);
};

/// False while a NoGradGuard is alive on the calling thread.
bool grad_enabled();

/// Thread-local RAII switch: while one is alive on a thread, every op on
/// that thread returns a leaf (no parents, no backprop closure,
/// requires_grad() false) with the same value it would have recorded.
/// Guards nest; each restores the state it found on scope exit, also
/// during exception unwinding. Other threads are unaffected.
class NoGradGuard {
public:
    NoGradGuard();
    ~NoGradGuard();
    NoGradGuard(const NoGradGuard&) = delete;
    NoGradGuard& operator=(const NoGradGuard&) = delete;

private:
    bool previous_;
};

class Var {
public:
    Var() = default;

    /// Trainable leaf (parameter).
    static Var param(Tensor value);
    /// Non-trainable leaf (input data / constants).
    static Var constant(Tensor value);

    bool defined() const { return node_ != nullptr; }
    const Tensor& value() const { return node_->value; }
    Tensor& mutable_value() { return node_->value; }
    /// Gradient; empty tensor when never accumulated.
    const Tensor& grad() const { return node_->grad; }
    bool requires_grad() const { return node_ && node_->requires_grad; }

    /// Clears the stored gradient (for leaves between optimizer steps).
    void zero_grad();

    /// Reverse-mode sweep seeded with ones at this node. Typically called
    /// on a scalar loss.
    void backward() const;

    /// Graph-construction access for op implementations.
    const std::shared_ptr<Node>& node() const { return node_; }

    /// Builds an interior node. `backprop` receives the node's upstream
    /// gradient (and, when it takes a second argument, the node's own
    /// value, so it need not hold a copy of the output) and must call
    /// accumulate() on the captured parents. The node is recorded only
    /// when gradients are enabled and some parent requires grad;
    /// otherwise the result is a leaf and `backprop` is dropped without
    /// ever being type-erased.
    template <typename Backprop>
    static Var make(Tensor value, std::initializer_list<Var> parents,
                    Backprop&& backprop) {
        return make_from(std::move(value), parents.begin(), parents.end(),
                         std::forward<Backprop>(backprop));
    }
    template <typename Backprop>
    static Var make(Tensor value, const std::vector<Var>& parents,
                    Backprop&& backprop) {
        return make_from(std::move(value), parents.data(),
                         parents.data() + parents.size(),
                         std::forward<Backprop>(backprop));
    }

private:
    explicit Var(std::shared_ptr<Node> node) : node_(std::move(node)) {}

    template <typename Backprop>
    static Var make_from(Tensor value, const Var* first, const Var* last,
                         Backprop&& backprop) {
        auto node = std::make_shared<Node>();
        node->value = std::move(value);
        if (!grad_enabled()) return Var(std::move(node));
        for (const Var* p = first; p != last; ++p) {
            if (p->requires_grad()) node->requires_grad = true;
        }
        if (!node->requires_grad) return Var(std::move(node));
        node->parents.reserve(static_cast<std::size_t>(last - first));
        for (const Var* p = first; p != last; ++p) {
            node->parents.push_back(p->node());
        }
        if constexpr (std::is_invocable_v<Backprop&, const Tensor&,
                                          const Tensor&>) {
            // The closure lives in the node it reads, so the raw pointer
            // cannot outlive its target.
            const Node* self = node.get();
            node->backprop = [fn = std::forward<Backprop>(backprop),
                              self](const Tensor& upstream) {
                fn(upstream, self->value);
            };
        } else {
            node->backprop = std::forward<Backprop>(backprop);
        }
        return Var(std::move(node));
    }

    std::shared_ptr<Node> node_;
};

// ---- arithmetic -------------------------------------------------------------

Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var scale(const Var& a, float s);
Var add_scalar(const Var& a, float s);

// ---- linear algebra ---------------------------------------------------------

Var matmul(const Var& a, const Var& b);
Var transpose2d(const Var& a);
Var add_row_bias(const Var& a, const Var& bias);

// ---- activations ------------------------------------------------------------

Var relu(const Var& a);
Var silu(const Var& a);
Var tanh(const Var& a);
Var sigmoid(const Var& a);
Var softmax_rows(const Var& a);

// ---- attention --------------------------------------------------------------

/// Multi-head softmax(Q_h K_hᵀ · scale) V_h over every segment at once
/// (tensor::attention): q [Tq, D], k and v [Tk, D] -> [Tq, D]. The
/// backward runs the per-head matmul_nt / matmul_tn /
/// softmax_rows_backward kernels of the graph this op replaces.
Var attention(const Var& q, const Var& k, const Var& v,
              std::vector<tensor::AttentionSegment> segments, int heads,
              float score_scale);

// ---- convolution / spatial --------------------------------------------------

Var conv2d(const Var& input, const Var& weight, const Var& bias,
           const tensor::Conv2dSpec& spec);
Var upsample_nearest2x(const Var& input);
/// Adds per-sample per-channel bias [N,C] to a feature map [N,C,H,W].
Var add_spatial_bias(const Var& x, const Var& bias);
Var avg_pool2x(const Var& input);
Var global_avg_pool(const Var& input);

// ---- shape ------------------------------------------------------------------

Var reshape(const Var& a, std::vector<int> shape);
Var concat(const std::vector<Var>& parts, int axis);
Var slice(const Var& a, int axis, int start, int stop);
/// [N,C,H,W] feature map -> [N·H·W, C] token table (tensor::map_to_tokens).
Var map_to_tokens(const Var& feature_map);
/// Inverse of map_to_tokens; `map_shape` is the [N,C,H,W] to restore.
Var tokens_to_map(const Var& tokens, const std::vector<int>& map_shape);

// ---- normalisation ----------------------------------------------------------

/// Row-wise layer norm of [m,n] with per-column gamma/beta ([n]).
Var layer_norm_rows(const Var& x, const Var& gamma, const Var& beta,
                    float eps = 1e-5f);
/// Group norm of [N,C,H,W]; gamma/beta are per-channel ([C]).
Var group_norm(const Var& x, int groups, const Var& gamma, const Var& beta,
               float eps = 1e-5f);

// ---- lookup -----------------------------------------------------------------

/// Rows of `table` ([V,d]) gathered by `indices` -> [indices.size(), d].
Var embedding(const Var& table, const std::vector<int>& indices);

// ---- reductions & losses ----------------------------------------------------

/// Mean of all elements -> scalar Var (shape [1]).
Var mean_all(const Var& a);
/// Sum of all elements -> scalar Var (shape [1]).
Var sum_all(const Var& a);
/// Mean squared error between same-shaped tensors -> scalar Var.
Var mse_loss(const Var& prediction, const Var& target);
/// Mean softmax cross-entropy of [m,n] logits against integer targets.
Var cross_entropy_rows(const Var& logits, const std::vector<int>& targets);

}  // namespace aero::autograd
