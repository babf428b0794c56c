#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using aero::tensor::Conv2dSpec;
using aero::tensor::Tensor;
namespace ops = aero::tensor;

TEST(Tensor, ConstructionAndShape) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.rank(), 3);
    EXPECT_EQ(t.size(), 24);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(-1), 4);
    for (float v : t) EXPECT_EQ(v, 0.0f);
    EXPECT_EQ(t.shape_string(), "[2, 3, 4]");
}

TEST(Tensor, AtMultiIndex) {
    Tensor t({2, 3});
    t.at({1, 2}) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);
    EXPECT_EQ(t.at({1, 2}), 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
    Tensor t = Tensor::from_values({1, 2, 3, 4, 5, 6});
    Tensor r = t.reshaped({2, 3});
    EXPECT_EQ(r.at({1, 0}), 4.0f);
    EXPECT_THROW(t.reshaped({4}), std::invalid_argument);
}

TEST(Tensor, FactoryFunctions) {
    aero::util::Rng rng(1);
    EXPECT_EQ(Tensor::ones({3})[2], 1.0f);
    EXPECT_EQ(Tensor::full({2}, 5.0f)[0], 5.0f);
    Tensor u = Tensor::uniform({1000}, rng, -1.0f, 1.0f);
    for (float v : u) {
        EXPECT_GE(v, -1.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(Ops, ElementwiseBasics) {
    const Tensor a = Tensor::from_values({1, 2, 3});
    const Tensor b = Tensor::from_values({4, 5, 6});
    EXPECT_EQ(ops::add(a, b)[1], 7.0f);
    EXPECT_EQ(ops::sub(a, b)[0], -3.0f);
    EXPECT_EQ(ops::mul(a, b)[2], 18.0f);
    EXPECT_EQ(ops::scale(a, 2.0f)[1], 4.0f);
    EXPECT_EQ(ops::add_scalar(a, 1.0f)[0], 2.0f);
    EXPECT_EQ(ops::neg(a)[0], -1.0f);
}

TEST(Ops, Activations) {
    const Tensor x = Tensor::from_values({-2.0f, 0.0f, 2.0f});
    const Tensor r = ops::relu(x);
    EXPECT_EQ(r[0], 0.0f);
    EXPECT_EQ(r[2], 2.0f);
    const Tensor s = ops::sigmoid(x);
    EXPECT_NEAR(s[1], 0.5f, 1e-6f);
    const Tensor t = ops::tanh(x);
    EXPECT_NEAR(t[2], std::tanh(2.0f), 1e-6f);
    const Tensor si = ops::silu(x);
    EXPECT_NEAR(si[1], 0.0f, 1e-6f);
    EXPECT_NEAR(si[2], 2.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
}

TEST(Ops, MatmulAgainstHand) {
    Tensor a = Tensor::from_values({1, 2, 3, 4}).reshaped({2, 2});
    Tensor b = Tensor::from_values({5, 6, 7, 8}).reshaped({2, 2});
    const Tensor c = ops::matmul(a, b);
    EXPECT_EQ(c[0], 19.0f);
    EXPECT_EQ(c[1], 22.0f);
    EXPECT_EQ(c[2], 43.0f);
    EXPECT_EQ(c[3], 50.0f);
}

TEST(Ops, MatmulTransposedVariantsAgree) {
    aero::util::Rng rng(2);
    const Tensor a = Tensor::randn({3, 5}, rng);
    const Tensor b = Tensor::randn({5, 4}, rng);
    const Tensor c = ops::matmul(a, b);
    const Tensor c_nt = ops::matmul_nt(a, ops::transpose2d(b));
    const Tensor c_tn = ops::matmul_tn(ops::transpose2d(a), b);
    for (int i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c[i], c_nt[i], 1e-4f);
        EXPECT_NEAR(c[i], c_tn[i], 1e-4f);
    }
}

TEST(Ops, SoftmaxRowsSumToOne) {
    aero::util::Rng rng(3);
    const Tensor x = Tensor::randn({4, 7}, rng, 0.0f, 3.0f);
    const Tensor y = ops::softmax_rows(x);
    for (int i = 0; i < 4; ++i) {
        float sum = 0.0f;
        for (int j = 0; j < 7; ++j) {
            const float v = y[i * 7 + j];
            EXPECT_GT(v, 0.0f);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Ops, SoftmaxShiftInvariance) {
    const Tensor x = Tensor::from_values({1, 2, 3}).reshaped({1, 3});
    const Tensor y1 = ops::softmax_rows(x);
    const Tensor y2 = ops::softmax_rows(ops::add_scalar(x, 100.0f));
    for (int i = 0; i < 3; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-5f);
}

TEST(Ops, Conv2dIdentityKernel) {
    aero::util::Rng rng(4);
    const Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
    Tensor w({1, 1, 3, 3});
    w.at({0, 0, 1, 1}) = 1.0f;  // centre tap
    const Tensor y = ops::conv2d(x, w, Tensor(), {1, 1});
    ASSERT_EQ(y.shape(), x.shape());
    for (int i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(Ops, Conv2dStrideAndShape) {
    const Tensor x = Tensor::ones({2, 3, 8, 8});
    aero::util::Rng rng(5);
    const Tensor w = Tensor::randn({4, 3, 3, 3}, rng);
    const Tensor y = ops::conv2d(x, w, Tensor(), {2, 1});
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 4);
    EXPECT_EQ(y.dim(2), 4);
    EXPECT_EQ(y.dim(3), 4);
}

TEST(Ops, Conv2dBiasApplied) {
    const Tensor x = Tensor::zeros({1, 1, 4, 4});
    const Tensor w = Tensor::zeros({2, 1, 1, 1});
    const Tensor b = Tensor::from_values({1.5f, -2.0f});
    const Tensor y = ops::conv2d(x, w, b, {1, 0});
    EXPECT_EQ(y.at({0, 0, 2, 2}), 1.5f);
    EXPECT_EQ(y.at({0, 1, 0, 0}), -2.0f);
}

TEST(Ops, UpsampleAndPoolInverse) {
    aero::util::Rng rng(6);
    const Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
    const Tensor up = ops::upsample_nearest2x(x);
    EXPECT_EQ(up.dim(2), 8);
    const Tensor back = ops::avg_pool2x(up);
    for (int i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-6f);
}

TEST(Ops, GlobalAvgPool) {
    Tensor x({1, 2, 2, 2});
    for (int i = 0; i < 4; ++i) x[i] = 2.0f;       // channel 0
    for (int i = 4; i < 8; ++i) x[i] = -1.0f;      // channel 1
    const Tensor y = ops::global_avg_pool(x);
    EXPECT_EQ(y.dim(0), 1);
    EXPECT_EQ(y.dim(1), 2);
    EXPECT_NEAR(y[0], 2.0f, 1e-6f);
    EXPECT_NEAR(y[1], -1.0f, 1e-6f);
}

TEST(Ops, ConcatAndSliceRoundTrip) {
    aero::util::Rng rng(7);
    const Tensor a = Tensor::randn({2, 3}, rng);
    const Tensor b = Tensor::randn({2, 5}, rng);
    const Tensor cat = ops::concat({a, b}, 1);
    EXPECT_EQ(cat.dim(1), 8);
    const Tensor a2 = ops::slice(cat, 1, 0, 3);
    const Tensor b2 = ops::slice(cat, 1, 3, 8);
    for (int i = 0; i < a.size(); ++i) EXPECT_EQ(a2[i], a[i]);
    for (int i = 0; i < b.size(); ++i) EXPECT_EQ(b2[i], b[i]);
}

TEST(Ops, ConcatAxis0) {
    const Tensor a = Tensor::from_values({1, 2}).reshaped({1, 2});
    const Tensor b = Tensor::from_values({3, 4, 5, 6}).reshaped({2, 2});
    const Tensor cat = ops::concat({a, b}, 0);
    EXPECT_EQ(cat.dim(0), 3);
    EXPECT_EQ(cat.at({2, 1}), 6.0f);
}

TEST(Ops, ConcatBackwardSplitsGradient) {
    const Tensor g = Tensor::from_values({1, 2, 3, 4, 5, 6}).reshaped({2, 3});
    const auto grads = ops::concat_backward(g, {{2, 1}, {2, 2}}, 1);
    ASSERT_EQ(grads.size(), 2u);
    EXPECT_EQ(grads[0].at({1, 0}), 4.0f);
    EXPECT_EQ(grads[1].at({0, 1}), 3.0f);
}

TEST(Ops, Reductions) {
    const Tensor x = Tensor::from_values({1, 2, 3, 4});
    EXPECT_EQ(ops::sum_all(x), 10.0f);
    EXPECT_EQ(ops::mean_all(x), 2.5f);
    const Tensor m = x.reshaped({2, 2});
    const Tensor s = ops::sum_rows(m);
    EXPECT_EQ(s[0], 4.0f);
    EXPECT_EQ(s[1], 6.0f);
}

// Parameterized conv2d geometry sweep: output extents must follow the
// standard formula for every (kernel, stride, pad) combination.
struct ConvCase {
    int size;
    int kernel;
    int stride;
    int pad;
};

class ConvGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometry, OutputExtentFormula) {
    const ConvCase c = GetParam();
    aero::util::Rng rng(99);
    const Tensor x = Tensor::randn({1, 2, c.size, c.size}, rng);
    const Tensor w = Tensor::randn({3, 2, c.kernel, c.kernel}, rng);
    const Tensor y = ops::conv2d(x, w, Tensor(), {c.stride, c.pad});
    const int expected = (c.size + 2 * c.pad - c.kernel) / c.stride + 1;
    EXPECT_EQ(y.dim(2), expected);
    EXPECT_EQ(y.dim(3), expected);
    EXPECT_EQ(y.dim(1), 3);
}

TEST_P(ConvGeometry, BackwardShapesMatchForward) {
    const ConvCase c = GetParam();
    aero::util::Rng rng(100);
    const Tensor x = Tensor::randn({1, 2, c.size, c.size}, rng);
    const Tensor w = Tensor::randn({3, 2, c.kernel, c.kernel}, rng);
    const Tensor y = ops::conv2d(x, w, Tensor(), {c.stride, c.pad});
    const Tensor gx = ops::conv2d_backward_input(y, w, x.shape(),
                                                 {c.stride, c.pad});
    const Tensor gw = ops::conv2d_backward_weight(y, x, w.shape(),
                                                  {c.stride, c.pad});
    EXPECT_EQ(gx.shape(), x.shape());
    EXPECT_EQ(gw.shape(), w.shape());
}

// ---- conv2d bitwise reference ----------------------------------------------
// The direct NCHW loops that the channel-lane kernels replaced. The lane
// kernels must give every output element exactly these float additions,
// in this order, skipping the same taps, so their results are compared
// with memcmp, not a tolerance.

int reference_extent(int in, int kernel, const Conv2dSpec& spec) {
    return (in + 2 * spec.pad - kernel) / spec.stride + 1;
}

Tensor reference_conv2d(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, const Conv2dSpec& spec) {
    const int n = input.dim(0);
    const int c = input.dim(1);
    const int h = input.dim(2);
    const int w = input.dim(3);
    const int oc = weight.dim(0);
    const int kh = weight.dim(2);
    const int kw = weight.dim(3);
    const int oh = reference_extent(h, kh, spec);
    const int ow = reference_extent(w, kw, spec);
    Tensor out({n, oc, oh, ow});
    const float* pi = input.data();
    const float* pw = weight.data();
    float* po = out.data();
    for (int b = 0; b < n; ++b) {
        for (int o = 0; o < oc; ++o) {
            const float bias_v = bias.empty() ? 0.0f : bias[o];
            for (int y = 0; y < oh; ++y) {
                for (int x = 0; x < ow; ++x) {
                    float acc = bias_v;
                    const int iy0 = y * spec.stride - spec.pad;
                    const int ix0 = x * spec.stride - spec.pad;
                    for (int ch = 0; ch < c; ++ch) {
                        const float* in_ch = pi + ((b * c + ch) * h) * w;
                        const float* w_ch = pw + ((o * c + ch) * kh) * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int iy = iy0 + ky;
                            if (iy < 0 || iy >= h) continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int ix = ix0 + kx;
                                if (ix < 0 || ix >= w) continue;
                                acc += in_ch[iy * w + ix] * w_ch[ky * kw + kx];
                            }
                        }
                    }
                    po[((b * oc + o) * oh + y) * ow + x] = acc;
                }
            }
        }
    }
    return out;
}

Tensor reference_conv2d_backward_input(const Tensor& grad_out,
                                       const Tensor& weight,
                                       const std::vector<int>& input_shape,
                                       const Conv2dSpec& spec) {
    const int n = input_shape[0];
    const int c = input_shape[1];
    const int h = input_shape[2];
    const int w = input_shape[3];
    const int oc = weight.dim(0);
    const int kh = weight.dim(2);
    const int kw = weight.dim(3);
    const int oh = grad_out.dim(2);
    const int ow = grad_out.dim(3);
    Tensor grad_in(input_shape);
    const float* pg = grad_out.data();
    const float* pw = weight.data();
    float* po = grad_in.data();
    for (int b = 0; b < n; ++b) {
        for (int o = 0; o < oc; ++o) {
            const float* g_ch = pg + ((b * oc + o) * oh) * ow;
            for (int y = 0; y < oh; ++y) {
                for (int x = 0; x < ow; ++x) {
                    const float g = g_ch[y * ow + x];
                    if (g == 0.0f) continue;
                    const int iy0 = y * spec.stride - spec.pad;
                    const int ix0 = x * spec.stride - spec.pad;
                    for (int ch = 0; ch < c; ++ch) {
                        float* in_ch = po + ((b * c + ch) * h) * w;
                        const float* w_ch = pw + ((o * c + ch) * kh) * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int iy = iy0 + ky;
                            if (iy < 0 || iy >= h) continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int ix = ix0 + kx;
                                if (ix < 0 || ix >= w) continue;
                                in_ch[iy * w + ix] += g * w_ch[ky * kw + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    return grad_in;
}

Tensor reference_conv2d_backward_weight(const Tensor& grad_out,
                                        const Tensor& input,
                                        const std::vector<int>& weight_shape,
                                        const Conv2dSpec& spec) {
    const int n = input.dim(0);
    const int c = input.dim(1);
    const int h = input.dim(2);
    const int w = input.dim(3);
    const int oc = weight_shape[0];
    const int kh = weight_shape[2];
    const int kw = weight_shape[3];
    const int oh = grad_out.dim(2);
    const int ow = grad_out.dim(3);
    Tensor grad_w(weight_shape);
    const float* pg = grad_out.data();
    const float* pi = input.data();
    float* po = grad_w.data();
    for (int o = 0; o < oc; ++o) {
        for (int b = 0; b < n; ++b) {
            const float* g_ch = pg + ((b * oc + o) * oh) * ow;
            for (int y = 0; y < oh; ++y) {
                for (int x = 0; x < ow; ++x) {
                    const float g = g_ch[y * ow + x];
                    if (g == 0.0f) continue;
                    const int iy0 = y * spec.stride - spec.pad;
                    const int ix0 = x * spec.stride - spec.pad;
                    for (int ch = 0; ch < c; ++ch) {
                        const float* in_ch = pi + ((b * c + ch) * h) * w;
                        float* w_ch = po + ((o * c + ch) * kh) * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int iy = iy0 + ky;
                            if (iy < 0 || iy >= h) continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int ix = ix0 + kx;
                                if (ix < 0 || ix >= w) continue;
                                w_ch[ky * kw + kx] += g * in_ch[iy * w + ix];
                            }
                        }
                    }
                }
            }
        }
    }
    return grad_w;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<std::size_t>(a.size())) ==
               0;
}

struct ConvProblem {
    int n, c, oc, h, w, kernel, stride, pad;
};

std::string describe(const ConvProblem& p) {
    std::ostringstream out;
    out << "n=" << p.n << " c=" << p.c << " oc=" << p.oc << " " << p.h << "x"
        << p.w << " k=" << p.kernel << " stride=" << p.stride
        << " pad=" << p.pad;
    return out.str();
}

/// Runs all three conv kernels and their references on random data, with
/// and without bias; every third grad_out element is an exact zero, so
/// the g == 0 skips are exercised.
void expect_matches_reference(const ConvProblem& p) {
    SCOPED_TRACE(describe(p));
    aero::util::Rng rng(static_cast<std::uint64_t>(
        p.n * 131 + p.c * 31 + p.oc * 7 + p.h * 3 + p.w + p.kernel));
    const Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
    const Tensor weight = Tensor::randn({p.oc, p.c, p.kernel, p.kernel}, rng);
    const Conv2dSpec spec{p.stride, p.pad};
    for (const bool with_bias : {false, true}) {
        const Tensor bias = with_bias ? Tensor::randn({p.oc}, rng) : Tensor();
        EXPECT_TRUE(bitwise_equal(ops::conv2d(x, weight, bias, spec),
                                  reference_conv2d(x, weight, bias, spec)))
            << "conv2d, bias=" << with_bias;
    }
    const int oh = reference_extent(p.h, p.kernel, spec);
    const int ow = reference_extent(p.w, p.kernel, spec);
    Tensor grad = Tensor::randn({p.n, p.oc, oh, ow}, rng);
    for (int i = 0; i < grad.size(); i += 3) grad[i] = 0.0f;
    EXPECT_TRUE(bitwise_equal(
        ops::conv2d_backward_input(grad, weight, x.shape(), spec),
        reference_conv2d_backward_input(grad, weight, x.shape(), spec)))
        << "conv2d_backward_input";
    EXPECT_TRUE(bitwise_equal(
        ops::conv2d_backward_weight(grad, x, weight.shape(), spec),
        reference_conv2d_backward_weight(grad, x, weight.shape(), spec)))
        << "conv2d_backward_weight";
}

TEST_P(ConvGeometry, LaneKernelsMatchDirectLoops) {
    const ConvCase c = GetParam();
    // The sweep's own 2 -> 3 channels, then lane tails on both sides.
    expect_matches_reference(
        {1, 2, 3, c.size, c.size, c.kernel, c.stride, c.pad});
    expect_matches_reference(
        {2, 9, 20, c.size, c.size, c.kernel, c.stride, c.pad});
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometry,
    ::testing::Values(ConvCase{8, 3, 1, 1}, ConvCase{8, 3, 2, 1},
                      ConvCase{8, 1, 1, 0}, ConvCase{16, 5, 1, 2},
                      ConvCase{16, 3, 2, 0}, ConvCase{9, 3, 1, 0},
                      ConvCase{12, 4, 2, 1},
                      // 4x4 (the UNet mid block) and 2x2 maps: every
                      // position tile touches both edges. A 1x1 conv
                      // with pad 1 has border outputs that take no tap.
                      ConvCase{4, 3, 1, 1}, ConvCase{2, 3, 1, 1},
                      ConvCase{4, 1, 1, 1}, ConvCase{2, 1, 1, 1}));

TEST(ConvReference, UNetShapesAtServingBatches) {
    // Every convolution of one UNet forward at the default UNetConfig
    // (in 4, base 24) on the 8x8 latent (diffusion/unet.cpp).
    const int in = 4;
    const int c = 24;
    const int latent = 8;
    const int half = latent / 2;
    const std::vector<ConvProblem> shapes = {
        {1, in, c, latent, latent, 3, 1, 1},          // conv_in
        {1, c, c, latent, latent, 3, 1, 1},           // down conv1
        {1, c, c, latent, latent, 3, 1, 1},           // down conv2
        {1, c, 2 * c, half, half, 3, 1, 1},           // mid_in conv1
        {1, 2 * c, 2 * c, half, half, 3, 1, 1},       // mid_in conv2
        {1, c, 2 * c, half, half, 1, 1, 0},           // mid_in skip
        {1, 2 * c, 2 * c, half, half, 3, 1, 1},       // mid_out conv1
        {1, 2 * c, 2 * c, half, half, 3, 1, 1},       // mid_out conv2
        {1, 3 * c, c, latent, latent, 3, 1, 1},       // up conv1
        {1, c, c, latent, latent, 3, 1, 1},           // up conv2
        {1, 3 * c, c, latent, latent, 1, 1, 0},       // up skip
        {1, c, in, latent, latent, 3, 1, 1},          // conv_out
    };
    for (const int batch : {1, 2, 6, 32}) {
        for (ConvProblem p : shapes) {
            p.n = batch;
            expect_matches_reference(p);
        }
    }
}

TEST(ConvReference, LaneTailChannelCounts) {
    for (const int c : {1, 3, 5, 9, 20, 72}) {
        for (const int oc : {1, 3, 5, 9, 20, 72}) {
            expect_matches_reference({2, c, oc, 6, 5, 3, 1, 1});
        }
    }
}

TEST(ConvReference, StridesAndNonSquareInputs) {
    expect_matches_reference({2, 5, 9, 11, 7, 3, 2, 1});
    expect_matches_reference({1, 3, 20, 7, 12, 3, 2, 0});
    expect_matches_reference({2, 9, 5, 13, 10, 3, 3, 1});
    expect_matches_reference({1, 4, 12, 9, 14, 5, 3, 2});
    expect_matches_reference({3, 3, 16, 32, 24, 3, 2, 1});
    expect_matches_reference({1, 2, 3, 3, 4, 5, 1, 2});
    expect_matches_reference({1, 2, 3, 1, 2, 5, 1, 2});
}

TEST(ConvReference, ZeroGradientSkipsHoldWithInfiniteValues) {
    // With finite data, adding a zero gradient's product changes no bits;
    // next to an infinite input or weight it adds 0 * inf = NaN. So here
    // only kernels that skip exactly the zero-gradient taps match.
    aero::util::Rng rng(23);
    Tensor x = Tensor::randn({2, 9, 6, 6}, rng);
    Tensor weight = Tensor::randn({5, 9, 3, 3}, rng);
    x[40] = std::numeric_limits<float>::infinity();
    weight[17] = -std::numeric_limits<float>::infinity();
    Tensor grad = Tensor::randn({2, 5, 6, 6}, rng);
    for (int i = 0; i < grad.size(); i += 2) grad[i] = 0.0f;
    const Conv2dSpec spec{1, 1};
    EXPECT_TRUE(bitwise_equal(
        ops::conv2d_backward_input(grad, weight, x.shape(), spec),
        reference_conv2d_backward_input(grad, weight, x.shape(), spec)));
    EXPECT_TRUE(bitwise_equal(
        ops::conv2d_backward_weight(grad, x, weight.shape(), spec),
        reference_conv2d_backward_weight(grad, x, weight.shape(), spec)));
}

TEST(ConvReference, EveryTileRemainder) {
    // The forward tiles 4 output positions of a row and backward-input 4
    // input positions of one stride phase of a row, so widths 1-13 leave
    // every remainder, with and without full tiles before it, and at
    // strides 2 and 3 the phases of one row differ in length.
    for (int width = 1; width <= 13; ++width) {
        expect_matches_reference({2, 9, 20, 3, width, 3, 1, 1});
        expect_matches_reference({1, 5, 12, 2, width, 1, 1, 0});
    }
    for (const int stride : {2, 3}) {
        for (int width = 1; width <= 3 * 13; ++width) {
            expect_matches_reference({1, 5, 9, 4, width, 3, stride, 1});
        }
    }
}

TEST(ConvReference, ClippedTapsAddNoTerm) {
    // Inputs are positive and every weight is -0 except one corner tap
    // per output channel, which is +inf. So every output element is -0
    // (the bias) plus -0 terms, and +inf once it takes an infinite tap.
    // A kernel that multiplied a zero pad by a clipped infinite tap
    // would make NaN, and one that added +0 for a clipped tap would turn
    // the -0 sum into +0.
    const float inf = std::numeric_limits<float>::infinity();
    const int corners[4][2] = {{0, 0}, {0, 2}, {2, 0}, {2, 2}};
    const int c = 3;
    const int oc = 12;
    Tensor weight({oc, c, 3, 3});
    for (int i = 0; i < weight.size(); ++i) weight[i] = -0.0f;
    for (int o = 0; o < oc; ++o) {
        for (int ch = 0; ch < c; ++ch) {
            const auto [ky, kx] = corners[o % 4];
            weight[((o * c + ch) * 3 + ky) * 3 + kx] = inf;
        }
    }
    Tensor bias({oc});
    for (int o = 0; o < oc; ++o) bias[o] = -0.0f;
    aero::util::Rng rng(29);
    for (const int size : {2, 4, 7}) {
        for (const int stride : {1, 2}) {
            SCOPED_TRACE("size " + std::to_string(size) + " stride " +
                         std::to_string(stride));
            Tensor x = Tensor::randn({2, c, size, size + 1}, rng);
            for (int i = 0; i < x.size(); ++i) x[i] = std::fabs(x[i]) + 0.5f;
            const Conv2dSpec spec{stride, 1};
            const Tensor out = ops::conv2d(x, weight, bias, spec);
            EXPECT_TRUE(
                bitwise_equal(out, reference_conv2d(x, weight, bias, spec)));
            // The top-left output of channel 0 clips the +inf tap (0, 0).
            EXPECT_EQ(out[0], 0.0f);
            EXPECT_TRUE(std::signbit(out[0]));
        }
    }
}

// Property sweep: matmul associativity-with-transpose identities hold
// for assorted shapes.
class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapes, TransposeIdentity) {
    const auto [m, k, n] = GetParam();
    aero::util::Rng rng(7);
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    // (A B)^T == B^T A^T
    const Tensor left = ops::transpose2d(ops::matmul(a, b));
    const Tensor right =
        ops::matmul(ops::transpose2d(b), ops::transpose2d(a));
    ASSERT_EQ(left.shape(), right.shape());
    for (int i = 0; i < left.size(); ++i) {
        EXPECT_NEAR(left[i], right[i], 1e-4f);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(1, 16, 2)));

// The tiled matrix products and attention are checked against the
// direct loops they replace, with memcmp: each output element must get
// the same additions in the same order (from +0, kk ascending, zero A
// entries skipped by matmul, matmul_tn and attention, every term added
// by matmul_nt).

Tensor reference_matmul(const Tensor& a, const Tensor& b) {
    const int m = a.dim(0);
    const int k = a.dim(1);
    const int n = b.dim(1);
    Tensor out({m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    for (int i = 0; i < m; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const float aik = pa[i * k + kk];
            if (aik == 0.0f) continue;
            const float* brow = pb + kk * n;
            float* orow = po + i * n;
            for (int j = 0; j < n; ++j) orow[j] += aik * brow[j];
        }
    }
    return out;
}

Tensor reference_matmul_nt(const Tensor& a, const Tensor& b) {
    const int m = a.dim(0);
    const int k = a.dim(1);
    const int n = b.dim(0);
    Tensor out({m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    for (int i = 0; i < m; ++i) {
        const float* arow = pa + i * k;
        for (int j = 0; j < n; ++j) {
            const float* brow = pb + j * k;
            float acc = 0.0f;
            for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
            po[i * n + j] = acc;
        }
    }
    return out;
}

Tensor reference_matmul_tn(const Tensor& a, const Tensor& b) {
    const int k = a.dim(0);
    const int m = a.dim(1);
    const int n = b.dim(1);
    Tensor out({m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    for (int i = 0; i < m; ++i) {
        float* orow = po + i * n;
        for (int kk = 0; kk < k; ++kk) {
            const float aki = pa[kk * m + i];
            if (aki == 0.0f) continue;
            const float* brow = pb + kk * n;
            for (int j = 0; j < n; ++j) orow[j] += aki * brow[j];
        }
    }
    return out;
}

/// Bitwise equal, except that a NaN need only be a NaN in both: where two
/// NaN operands meet, which payload survives depends on the operand
/// order the compiler picked for the reference loop, not on the source.
bool equal_up_to_nan_payload(const Tensor& a, const Tensor& b) {
    if (!a.same_shape(b)) return false;
    for (int i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) || std::isnan(b[i])) {
            if (std::isnan(a[i]) != std::isnan(b[i])) return false;
        } else if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) !=
                   0) {
            return false;
        }
    }
    return true;
}

/// Random [rows, cols] entries, each replaced with probability `share`
/// by the next of `specials`.
Tensor matmul_operand(int rows, int cols, aero::util::Rng& rng,
                      const std::vector<float>& specials, double share) {
    Tensor t = Tensor::randn({rows, cols}, rng);
    std::size_t next = 0;
    for (int i = 0; i < t.size() && !specials.empty(); ++i) {
        if (rng.bernoulli(share)) t[i] = specials[next++ % specials.size()];
    }
    return t;
}

/// All three products of an m×k by k×n problem against their references.
/// NaN-bearing problems compare NaN positions only (see above).
void expect_products_match(int m, int k, int n, aero::util::Rng& rng,
                           const std::vector<float>& specials, double share,
                           bool nan_positions_only) {
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    const auto same = [&](const Tensor& x, const Tensor& y) {
        return nan_positions_only ? equal_up_to_nan_payload(x, y)
                                  : bitwise_equal(x, y);
    };
    const Tensor a = matmul_operand(m, k, rng, specials, share);
    const Tensor b = matmul_operand(k, n, rng, specials, share);
    const Tensor bt = matmul_operand(n, k, rng, specials, share);
    const Tensor at = matmul_operand(k, m, rng, specials, share);
    EXPECT_TRUE(same(ops::matmul(a, b), reference_matmul(a, b))) << "matmul";
    EXPECT_TRUE(same(ops::matmul_nt(a, bt), reference_matmul_nt(a, bt)))
        << "matmul_nt";
    EXPECT_TRUE(same(ops::matmul_tn(at, b), reference_matmul_tn(at, b)))
        << "matmul_tn";
}

/// Extents that leave every row-tile remainder (tiles of 4 rows), every
/// 8/4/1 lane block of the columns, and short and long k loops.
std::vector<int> tile_rows() {
    std::vector<int> rows;
    for (int m = 1; m <= 13; ++m) rows.push_back(m);
    rows.push_back(29);
    rows.push_back(64);
    return rows;
}

std::vector<int> lane_columns() {
    std::vector<int> cols;
    for (int n = 1; n <= 19; ++n) cols.push_back(n);
    cols.push_back(64);
    return cols;
}

std::vector<int> inner_extents() {
    std::vector<int> ks;
    for (int k = 1; k <= 9; ++k) ks.push_back(k);
    ks.push_back(64);
    return ks;
}

TEST(MatmulReference, EveryTileAndLaneRemainder) {
    // Without zeros, with a few (most row tiles of one product have
    // none, some have one) and with many (signed zeros skipped in every
    // tile position by matmul and matmul_tn, and added by matmul_nt).
    aero::util::Rng rng(31);
    for (const int m : tile_rows()) {
        for (const int n : lane_columns()) {
            for (const int k : inner_extents()) {
                for (const double share : {0.0, 0.01, 0.33}) {
                    expect_products_match(m, k, n, rng, {0.0f, -0.0f}, share,
                                          false);
                }
            }
        }
    }
}

TEST(MatmulReference, ZerosAndInfinitiesKeepEveryBit) {
    // A zero A entry next to an infinite B entry: matmul and matmul_tn
    // skip the term, while matmul_nt adds 0 * inf = NaN. inf - inf makes
    // NaN as well. Only generated NaNs occur, and x86 generates one
    // default NaN, so every bit is compared.
    const float inf = std::numeric_limits<float>::infinity();
    aero::util::Rng rng(37);
    for (const int m : tile_rows()) {
        for (const int n : lane_columns()) {
            for (const int k : inner_extents()) {
                expect_products_match(m, k, n, rng, {0.0f, -0.0f, inf, -inf},
                                      0.33, false);
            }
        }
    }
}

TEST(MatmulReference, NanEntriesKeepTheirPositions) {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    aero::util::Rng rng(41);
    for (const int m : {1, 4, 7, 13, 29}) {
        for (const int n : {1, 5, 8, 12, 19}) {
            for (const int k : {1, 3, 9, 64}) {
                expect_products_match(m, k, n, rng,
                                      {0.0f, nan, -0.0f, inf, -nan}, 0.33,
                                      true);
            }
        }
    }
}

/// The direct attention loop: per (segment, head) and query row, the
/// Q_h K_hᵀ row from +0 with zero Q entries skipped, scaled, softmaxed,
/// then the P V_h row with zero P entries skipped.
Tensor reference_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                           const std::vector<ops::AttentionSegment>& segments,
                           int heads, float score_scale, Tensor* probs) {
    const int d = q.dim(1);
    const int hd = d / heads;
    Tensor out({q.dim(0), d});
    std::vector<float> all_probs;
    for (const ops::AttentionSegment& seg : segments) {
        for (int h = 0; h < heads; ++h) {
            const int lo = h * hd;
            const int keys = seg.k_rows;
            for (int i = 0; i < seg.q_rows; ++i) {
                std::vector<float> row(static_cast<std::size_t>(keys), 0.0f);
                const float* qrow = q.data() + (seg.q_begin + i) * d + lo;
                for (int kk = 0; kk < hd; ++kk) {
                    const float a = qrow[kk];
                    if (a == 0.0f) continue;
                    for (int j = 0; j < keys; ++j) {
                        row[j] += a * k[(seg.k_begin + j) * d + lo + kk];
                    }
                }
                for (int j = 0; j < keys; ++j) row[j] = row[j] * score_scale;
                float max_v = row[0];
                for (int j = 1; j < keys; ++j) max_v = std::max(max_v, row[j]);
                float sum = 0.0f;
                for (int j = 0; j < keys; ++j) {
                    row[j] = std::exp(row[j] - max_v);
                    sum += row[j];
                }
                const float inv = 1.0f / sum;
                for (int j = 0; j < keys; ++j) row[j] *= inv;
                float* orow = out.data() + (seg.q_begin + i) * d + lo;
                for (int kk = 0; kk < keys; ++kk) {
                    const float w = row[kk];
                    if (w == 0.0f) continue;
                    const float* vrow = v.data() + (seg.k_begin + kk) * d + lo;
                    for (int j = 0; j < hd; ++j) orow[j] += w * vrow[j];
                }
                all_probs.insert(all_probs.end(), row.begin(), row.end());
            }
        }
    }
    *probs = Tensor({static_cast<int>(std::max<std::size_t>(1, all_probs.size()))});
    for (std::size_t i = 0; i < all_probs.size(); ++i) {
        (*probs)[static_cast<int>(i)] = all_probs[i];
    }
    return out;
}

TEST(AttentionReference, RaggedSegmentsEveryHeadCount) {
    // Query blocks of 1-13 rows (every row-tile remainder) over key
    // blocks of 1-17 rows (every lane block of the score rows), some
    // query rows left outside every segment. Every fifth Q entry is a
    // signed zero, and query rows scaled by 300 drive some softmax
    // entries to exactly 0, so both products skip terms. Column 1 of K
    // is +inf where Q's column 1 is zero, and one V row is -inf: a
    // kernel that multiplied a skipped zero through would make NaN.
    const float inf = std::numeric_limits<float>::infinity();
    aero::util::Rng rng(43);
    for (const int heads : {1, 2, 4}) {
        for (const int first_keys : {1, 5, 9}) {
            SCOPED_TRACE("heads " + std::to_string(heads) + " keys from " +
                         std::to_string(first_keys));
            const int d = 16;
            std::vector<ops::AttentionSegment> segments;
            int q_rows = 0;
            int k_rows = 0;
            for (int s = 0; s < 9; ++s) {
                const int rows = 1 + (s * 5 + first_keys) % 13;
                const int keys = first_keys + s;  // up to 17
                segments.push_back({q_rows, rows, k_rows, keys});
                q_rows += rows + (s % 3 == 0 ? 1 : 0);
                k_rows += keys;
            }
            Tensor q = Tensor::randn({q_rows, d}, rng);
            Tensor k = Tensor::randn({k_rows, d}, rng);
            Tensor v = Tensor::randn({k_rows, d}, rng);
            for (int i = 0; i < q.size(); i += 5) {
                q[i] = (i / 5) % 2 == 0 ? 0.0f : -0.0f;
            }
            for (int r = 0; r < q_rows; ++r) {
                q[r * d + 1] = 0.0f;
                if (r % 4 == 1) {
                    for (int c = 0; c < d; ++c) q[r * d + c] *= 300.0f;
                }
            }
            for (int r = 0; r < k_rows; ++r) k[r * d + 1] = inf;
            for (int c = 0; c < d; ++c) v[(k_rows / 2) * d + c] = -inf;
            Tensor probs;
            Tensor ref_probs;
            const Tensor out =
                ops::attention(q, k, v, segments, heads, 0.35f, &probs);
            const Tensor ref = reference_attention(q, k, v, segments, heads,
                                                   0.35f, &ref_probs);
            EXPECT_TRUE(bitwise_equal(out, ref));
            EXPECT_TRUE(bitwise_equal(probs, ref_probs));
            EXPECT_TRUE(bitwise_equal(
                ops::attention(q, k, v, segments, heads, 0.35f), ref))
                << "without kept probabilities";
        }
    }
}

TEST(Ops, AddRowBias) {
    const Tensor a = Tensor::zeros({2, 3});
    const Tensor bias = Tensor::from_values({1, 2, 3});
    const Tensor y = ops::add_row_bias(a, bias);
    EXPECT_EQ(y.at({0, 2}), 3.0f);
    EXPECT_EQ(y.at({1, 0}), 1.0f);
}

TEST(Ops, SigmoidFamilySaturatesFinitelyOnExtremeLogits) {
    // Regression for the overflow audit: the logistic ops use the
    // sign-split stable form, so even logits far past the float exp
    // overflow threshold (~88.73) produce finite, saturated outputs
    // with no inf intermediate.
    const Tensor extreme =
        Tensor::from_values({-1e4f, -1000.0f, -100.0f, 0.0f, 100.0f,
                             1000.0f, 1e4f});
    const Tensor s = ops::sigmoid(extreme);
    for (int i = 0; i < s.size(); ++i) {
        EXPECT_TRUE(std::isfinite(s[i])) << "sigmoid at " << i;
        EXPECT_GE(s[i], 0.0f);
        EXPECT_LE(s[i], 1.0f);
    }
    EXPECT_EQ(s[0], 0.0f);  // saturates exactly
    EXPECT_EQ(s[6], 1.0f);
    EXPECT_EQ(s[3], 0.5f);

    const Tensor y = ops::silu(extreme);
    for (int i = 0; i < y.size(); ++i) {
        EXPECT_TRUE(std::isfinite(y[i])) << "silu at " << i;
    }
    EXPECT_EQ(y[0], 0.0f);      // x * 0
    EXPECT_EQ(y[6], 1e4f);      // x * 1

    const Tensor grad = Tensor::full(extreme.shape(), 1.0f);
    const Tensor gs = ops::silu_backward(grad, extreme);
    const Tensor gb = ops::sigmoid_backward(grad, s);
    for (int i = 0; i < extreme.size(); ++i) {
        EXPECT_TRUE(std::isfinite(gs[i])) << "silu_backward at " << i;
        EXPECT_TRUE(std::isfinite(gb[i])) << "sigmoid_backward at " << i;
    }
}

TEST(Ops, ExpKeepsDocumentedIeeeContract) {
    // exp is documented as unclamped IEEE: overflow to +inf above the
    // float threshold, underflow to 0 below it. The contract is
    // explicit so boundary finite-checks (serving layer) own rejection.
    const Tensor x = Tensor::from_values({-1000.0f, 0.0f, 88.0f, 1000.0f});
    const Tensor e = ops::exp(x);
    EXPECT_EQ(e[0], 0.0f);
    EXPECT_EQ(e[1], 1.0f);
    EXPECT_TRUE(std::isfinite(e[2]));
    EXPECT_TRUE(std::isinf(e[3]));
}

TEST(Ops, SoftmaxFiniteOnExtremeLogits) {
    // softmax_rows max-subtracts, so rows mixing huge and tiny logits
    // stay finite and sum to 1.
    const Tensor logits = Tensor::from_values({1000.0f, -1000.0f, 999.0f,
                                               -500.0f, 0.0f, 500.0f});
    const Tensor rows = logits.reshaped({2, 3});
    const Tensor p = ops::softmax_rows(rows);
    for (int i = 0; i < p.size(); ++i) {
        EXPECT_TRUE(std::isfinite(p[i]));
    }
    EXPECT_NEAR(p[0] + p[1] + p[2], 1.0f, 1e-6f);
    EXPECT_NEAR(p[3] + p[4] + p[5], 1.0f, 1e-6f);
}

}  // namespace
