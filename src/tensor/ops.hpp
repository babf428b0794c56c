#pragma once
// Raw numeric kernels over `Tensor`. These are the forward/backward
// building blocks wrapped by the autograd layer; they carry no graph
// state themselves. All functions validate shapes with asserts (logic
// errors) and keep allocation patterns simple: each op returns a fresh
// tensor.
//
// Parallelism: the hot kernels dispatch onto util::ThreadPool
// (AERO_THREADS) with chunk boundaries derived only from tensor shapes,
// and per-element floating-point accumulation order identical to the
// serial kernel — so every op here is bitwise identical for any thread
// count (determinism contract: util/thread_pool.hpp, DESIGN.md §11).

#include <vector>

#include "tensor/tensor.hpp"

namespace aero::tensor {

// ---- elementwise -----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);
/// Elementwise e^x with plain IEEE semantics: inputs above ~88.73
/// overflow to +inf (and below ~-87.3 underflow to 0). Deliberately NOT
/// clamped — callers that need bounded exponentials go through
/// softmax_rows (max-subtracted) or sigmoid/silu (stable forms below);
/// the serving layer's finite-checks reject any inf that escapes.
Tensor exp(const Tensor& a);
Tensor relu(const Tensor& a);
/// dL/dx for relu given upstream grad and the forward input.
Tensor relu_backward(const Tensor& grad, const Tensor& input);
/// x * sigmoid(x), computed with the overflow-proof sigmoid form:
/// finite output for every finite input (extreme logits saturate to
/// 0 / x without inf intermediates).
Tensor silu(const Tensor& a);
Tensor silu_backward(const Tensor& grad, const Tensor& input);
Tensor tanh(const Tensor& a);
/// Backward from the forward *output* (y = tanh x): g * (1 - y^2).
Tensor tanh_backward(const Tensor& grad, const Tensor& output);
/// Logistic 1/(1+e^-x) via the sign-split stable form: the exp argument
/// is always <= 0, so extreme inputs saturate to exactly 0/1 and the
/// output is finite (in [0,1]) for every finite input.
Tensor sigmoid(const Tensor& a);
Tensor sigmoid_backward(const Tensor& grad, const Tensor& output);

// ---- linear algebra --------------------------------------------------------

/// 2-D matrix product: [m,k] x [k,n] -> [m,n]. Each element is summed
/// from +0 over k ascending; matmul and matmul_tn skip zero entries of
/// `a`, matmul_nt adds every term (DESIGN.md §11, "matmul tiles").
Tensor matmul(const Tensor& a, const Tensor& b);
/// a @ b^T: [m,k] x [n,k] -> [m,n].
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// a^T @ b: [k,m] x [k,n] -> [m,n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// 2-D transpose.
Tensor transpose2d(const Tensor& a);
/// Adds a length-n bias row to every row of a [m,n] matrix.
Tensor add_row_bias(const Tensor& a, const Tensor& bias);
/// Column sums of a [m,n] matrix -> [n] (bias gradient).
Tensor sum_rows(const Tensor& a);

// ---- reductions ------------------------------------------------------------

float sum_all(const Tensor& a);
float mean_all(const Tensor& a);

// ---- softmax ---------------------------------------------------------------

/// Row-wise softmax of a [m,n] matrix.
Tensor softmax_rows(const Tensor& a);
/// Backward from the forward output: g_i = y_i * (g_i - sum_j g_j y_j).
Tensor softmax_rows_backward(const Tensor& grad, const Tensor& output);

// ---- attention -------------------------------------------------------------

/// One block of a segmented attention: query rows [q_begin, q_begin +
/// q_rows) attend over key/value rows [k_begin, k_begin + k_rows).
struct AttentionSegment {
    int q_begin = 0;
    int q_rows = 0;
    int k_begin = 0;
    int k_rows = 0;
};

/// Multi-head scaled dot-product attention over every segment at once:
/// q [Tq, D], k and v [Tk, D] -> [Tq, D] (query rows outside every
/// segment stay zero). For each segment and head h (columns [h·D/heads,
/// (h+1)·D/heads)) it writes softmax(Q_h K_hᵀ · scale) V_h, with each
/// element computed exactly as matmul -> scale -> softmax_rows -> matmul
/// compute it on the per-head slices (kk-ascending sums from zero,
/// zero-skips, max -> exp -> sum -> scale), so a one-segment call equals
/// that per-head graph bit for bit. (segment, head) units run in one
/// parallel_for, so segments must not share query rows. Both products
/// run the register-tiled matmul step (DESIGN.md §11). When `probs` is
/// non-null it receives every unit's softmax matrix, segment-major then
/// head, for attention_backward.
Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 const std::vector<AttentionSegment>& segments, int heads,
                 float score_scale, Tensor* probs = nullptr);

struct AttentionGrads {
    Tensor q;
    Tensor k;
    Tensor v;
};

/// Gradients of attention() given the upstream `grad` [Tq, D] and the
/// `probs` it saved. Per (segment, head) it runs the matmul_nt /
/// matmul_tn / softmax_rows_backward / scale / transpose2d kernels the
/// per-head graph's backward runs, and adds each block into
/// zero-initialised [Tq, D] / [Tk, D] gradients.
AttentionGrads attention_backward(
    const Tensor& grad, const Tensor& q, const Tensor& k, const Tensor& v,
    const Tensor& probs, const std::vector<AttentionSegment>& segments,
    int heads, float score_scale);

// ---- convolution (NCHW) ----------------------------------------------------

struct Conv2dSpec {
    int stride = 1;
    int pad = 0;
};

/// input [N,C,H,W], weight [OC,C,KH,KW], bias [OC] (may be empty).
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              const Conv2dSpec& spec);
/// Gradient of conv2d wrt its input.
Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                             const std::vector<int>& input_shape,
                             const Conv2dSpec& spec);
/// Gradient of conv2d wrt its weight.
Tensor conv2d_backward_weight(const Tensor& grad_out, const Tensor& input,
                              const std::vector<int>& weight_shape,
                              const Conv2dSpec& spec);
/// Gradient of conv2d wrt its bias: sums grad_out over N,H,W.
Tensor conv2d_backward_bias(const Tensor& grad_out);

// ---- spatial resampling ----------------------------------------------------

/// 2x nearest-neighbour upsample of [N,C,H,W].
Tensor upsample_nearest2x(const Tensor& input);
Tensor upsample_nearest2x_backward(const Tensor& grad_out);
/// 2x average pool of [N,C,H,W] (H and W must be even).
Tensor avg_pool2x(const Tensor& input);
Tensor avg_pool2x_backward(const Tensor& grad_out);
/// Global average pool: [N,C,H,W] -> [N,C].
Tensor global_avg_pool(const Tensor& input);
Tensor global_avg_pool_backward(const Tensor& grad_out,
                                const std::vector<int>& input_shape);

// ---- broadcast bias over feature maps ---------------------------------------

/// Adds a per-sample per-channel bias [N,C] to a feature map [N,C,H,W]
/// (used to inject time/condition embeddings into conv blocks).
Tensor add_spatial_bias(const Tensor& x, const Tensor& bias);
/// Gradient of add_spatial_bias wrt the bias: sums grad over H,W.
Tensor add_spatial_bias_backward_bias(const Tensor& grad_out);

// ---- shape surgery ---------------------------------------------------------

/// Concatenates tensors along `axis`; all other extents must match.
Tensor concat(const std::vector<Tensor>& parts, int axis);
/// Splits the concat gradient back into per-part gradients.
std::vector<Tensor> concat_backward(const Tensor& grad,
                                    const std::vector<std::vector<int>>& shapes,
                                    int axis);
/// Copies the half-open range [start, stop) along `axis`.
Tensor slice(const Tensor& a, int axis, int start, int stop);
/// Scatters a slice gradient back into a zero tensor of `input_shape`.
Tensor slice_backward(const Tensor& grad, const std::vector<int>& input_shape,
                      int axis, int start);
/// [N,C,H,W] feature map -> [N·H·W, C] token table: row b·H·W + p holds
/// sample b's channels at spatial position p.
Tensor map_to_tokens(const Tensor& feature_map);
/// Inverse of map_to_tokens back to `map_shape` ([N,C,H,W]). Each is the
/// other's backward (both are pure permutations).
Tensor tokens_to_map(const Tensor& tokens, const std::vector<int>& map_shape);

}  // namespace aero::tensor
