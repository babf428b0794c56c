#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "nn/attention.hpp"
#include "nn/ema.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "util/fault.hpp"

namespace {

using aero::autograd::Var;
using aero::tensor::Tensor;
namespace ag = aero::autograd;
namespace nn = aero::nn;

/// Bitwise snapshot of all parameter values of a module.
std::vector<std::vector<float>> snapshot_params(const nn::Module& module) {
    std::vector<std::vector<float>> snapshot;
    for (const Var& p : module.parameters()) {
        snapshot.push_back(p.value().to_vector());
    }
    return snapshot;
}

::testing::AssertionResult params_bit_identical(
    const nn::Module& module, const std::vector<std::vector<float>>& snapshot) {
    const auto params = module.parameters();
    if (params.size() != snapshot.size()) {
        return ::testing::AssertionFailure() << "parameter count changed";
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (params[i].value().to_vector() != snapshot[i]) {
            return ::testing::AssertionFailure()
                   << "tensor " << i << " was mutated";
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(Linear, ShapesAndParamCount) {
    aero::util::Rng rng(1);
    nn::Linear layer(4, 6, rng);
    EXPECT_EQ(layer.parameter_count(), 4 * 6 + 6);
    const Var x = Var::constant(Tensor::ones({3, 4}));
    const Var y = layer.forward(x);
    EXPECT_EQ(y.value().dim(0), 3);
    EXPECT_EQ(y.value().dim(1), 6);
}

TEST(Linear, NoBiasVariant) {
    aero::util::Rng rng(2);
    nn::Linear layer(4, 6, rng, /*with_bias=*/false);
    EXPECT_EQ(layer.parameter_count(), 24);
}

TEST(Conv2dLayer, Shapes) {
    aero::util::Rng rng(3);
    nn::Conv2d conv(3, 8, 3, 2, 1, rng);
    const Var x = Var::constant(Tensor::ones({2, 3, 8, 8}));
    const Var y = conv.forward(x);
    EXPECT_EQ(y.value().dim(1), 8);
    EXPECT_EQ(y.value().dim(2), 4);
}

TEST(GroupNormLayer, NormalisesGroups) {
    nn::GroupNorm norm(4, 2);
    aero::util::Rng rng(4);
    const Var x = Var::constant(Tensor::randn({2, 4, 3, 3}, rng, 5.0f, 2.0f));
    const Var y = norm.forward(x);
    // With unit gamma / zero beta the per-group mean must be ~0, var ~1.
    const auto& v = y.value();
    const int spatial = 9;
    for (int b = 0; b < 2; ++b) {
        for (int g = 0; g < 2; ++g) {
            double mean = 0.0;
            double var = 0.0;
            for (int ch = g * 2; ch < g * 2 + 2; ++ch) {
                for (int s = 0; s < spatial; ++s) {
                    mean += v[((b * 4 + ch) * spatial) + s];
                }
            }
            mean /= 2 * spatial;
            for (int ch = g * 2; ch < g * 2 + 2; ++ch) {
                for (int s = 0; s < spatial; ++s) {
                    const double d = v[((b * 4 + ch) * spatial) + s] - mean;
                    var += d * d;
                }
            }
            var /= 2 * spatial;
            EXPECT_NEAR(mean, 0.0, 1e-4);
            EXPECT_NEAR(var, 1.0, 1e-2);
        }
    }
}

TEST(EmbeddingLayer, LooksUpRows) {
    aero::util::Rng rng(5);
    nn::Embedding emb(10, 4, rng);
    const Var out = emb.forward({3, 3, 7});
    EXPECT_EQ(out.value().dim(0), 3);
    EXPECT_EQ(out.value().dim(1), 4);
    for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(out.value()[0 * 4 + j], out.value()[1 * 4 + j]);
    }
}

TEST(Attention, OutputShapeSelfAndCross) {
    aero::util::Rng rng(6);
    nn::MultiHeadAttention attn(8, 2, rng);
    const Var x = Var::constant(Tensor::randn({5, 8}, rng));
    const Var ctx = Var::constant(Tensor::randn({3, 8}, rng));
    EXPECT_EQ(attn.forward(x).value().dim(0), 5);
    const Var y = attn.forward(x, ctx);
    EXPECT_EQ(y.value().dim(0), 5);
    EXPECT_EQ(y.value().dim(1), 8);
}

TEST(Attention, GradientsFlowToAllProjections) {
    aero::util::Rng rng(7);
    nn::MultiHeadAttention attn(4, 2, rng);
    const Var x = Var::constant(Tensor::randn({3, 4}, rng));
    ag::mean_all(attn.forward(x)).backward();
    for (const Var& p : attn.parameters()) {
        EXPECT_FALSE(p.grad().empty());
    }
}

TEST(TransformerBlock, PreservesShape) {
    aero::util::Rng rng(8);
    nn::TransformerBlock block(8, 2, rng);
    const Var x = Var::constant(Tensor::randn({4, 8}, rng));
    const Var y = block.forward(x);
    EXPECT_EQ(y.value().dim(0), 4);
    EXPECT_EQ(y.value().dim(1), 8);
}

TEST(Attention, UniformWeightsWhenContextRowsIdentical) {
    // If every context token is identical, attention scores are constant
    // per query row, so all query rows receive the same attended value.
    aero::util::Rng rng(40);
    nn::MultiHeadAttention attn(8, 2, rng);
    const Var query = Var::constant(Tensor::randn({4, 8}, rng));
    Tensor ctx({3, 8});
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 8; ++j) ctx[i * 8 + j] = 0.1f * (j + 1);
    }
    const Var out = attn.forward(query, Var::constant(ctx));
    for (int row = 1; row < 4; ++row) {
        for (int j = 0; j < 8; ++j) {
            EXPECT_NEAR(out.value()[row * 8 + j], out.value()[j], 1e-5f);
        }
    }
}

TEST(Linear, InitZeroAndIdentity) {
    aero::util::Rng rng(41);
    nn::Linear square(4, 4, rng);
    square.init_identity();
    const Var x = Var::constant(Tensor::randn({2, 4}, rng));
    const Var y = square.forward(x);
    for (int i = 0; i < x.value().size(); ++i) {
        EXPECT_NEAR(y.value()[i], x.value()[i], 1e-6f);
    }
    nn::Linear zero(4, 6, rng);
    zero.init_zero();
    const Var z = zero.forward(x);
    for (float v : z.value()) EXPECT_EQ(v, 0.0f);
}

TEST(Attention, ZeroOutputProjectionMakesNoOpResidual) {
    aero::util::Rng rng(42);
    nn::MultiHeadAttention attn(8, 2, rng);
    attn.init_output_zero();
    const Var x = Var::constant(Tensor::randn({3, 8}, rng));
    const Var out = attn.forward(x);
    for (float v : out.value()) EXPECT_EQ(v, 0.0f);
}

/// The attention graph MultiHeadAttention::forward built before the
/// fused op, from the existing ops: per head, slice Q/K/V, matmul with
/// the transposed key slice, scale, softmax_rows, matmul with the value
/// slice; concat the heads and project. `p` is the module's parameter
/// list (wq, wk, wv, wo weights and biases).
Var per_head_attention(const std::vector<Var>& p, int heads,
                       const Var& query, const Var& context) {
    const auto linear = [&](const Var& x, int i) {
        return ag::add_row_bias(ag::matmul(x, p[2 * i]), p[2 * i + 1]);
    };
    const Var q = linear(query, 0);
    const Var k = linear(context, 1);
    const Var v = linear(context, 2);
    const int dim = q.value().dim(1);
    const int head_dim = dim / heads;
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(head_dim));
    std::vector<Var> head_outputs;
    for (int h = 0; h < heads; ++h) {
        const int lo = h * head_dim;
        const int hi = lo + head_dim;
        const Var scores = ag::scale(
            ag::matmul(ag::slice(q, 1, lo, hi),
                       ag::transpose2d(ag::slice(k, 1, lo, hi))),
            inv_sqrt_dk);
        head_outputs.push_back(
            ag::matmul(ag::softmax_rows(scores), ag::slice(v, 1, lo, hi)));
    }
    return linear(ag::concat(head_outputs, 1), 3);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<std::size_t>(a.size())) ==
               0;
}

TEST(Attention, OneSegmentMatchesPerHeadGraphBitForBit) {
    // Cross- and self-attention (where one input feeds wq, wk and wv, so
    // its gradient sums three contributions in graph order), with the
    // inputs trainable so their gradients are compared as well. A head
    // width of 6 makes 1/sqrt(d) inexact, so its rounding is checked.
    for (const bool self : {false, true}) {
        aero::util::Rng rng(44);
        nn::MultiHeadAttention attn(12, 2, rng);
        for (Var p : attn.parameters()) {  // non-zero biases too
            for (float& x : p.mutable_value()) {
                x += 0.1f * static_cast<float>(rng.normal());
            }
        }
        Var query = Var::param(Tensor::randn({7, 12}, rng));
        Var context = self ? query : Var::param(Tensor::randn({5, 12}, rng));
        const Tensor proj = Tensor::randn({7 * 12}, rng);
        const auto run = [&](bool fused) {
            attn.zero_grad();
            query.zero_grad();
            context.zero_grad();
            const Var out =
                fused ? attn.forward(query, context)
                      : per_head_attention(attn.parameters(), attn.heads(),
                                           query, context);
            ag::sum_all(ag::mul(out, Var::constant(proj.reshaped({7, 12}))))
                .backward();
            std::vector<Tensor> values{out.value(), query.grad(),
                                       context.grad()};
            for (const Var& p : attn.parameters()) values.push_back(p.grad());
            return values;
        };
        const std::vector<Tensor> reference = run(false);
        const std::vector<Tensor> fused = run(true);
        ASSERT_EQ(reference.size(), fused.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_TRUE(bitwise_equal(reference[i], fused[i]))
                << (self ? "self" : "cross") << "-attention tensor " << i
                << " (0: output, 1-2: input grads, then parameter grads)";
        }
    }
}

TEST(Attention, SegmentedForwardEqualsOneCallPerSegment) {
    aero::util::Rng rng(45);
    nn::MultiHeadAttention attn(8, 2, rng);
    const Tensor query = Tensor::randn({9, 8}, rng);
    const Tensor context = Tensor::randn({6, 8}, rng);
    const Var batched =
        attn.forward(Var::constant(query), Var::constant(context),
                     {{0, 4, 0, 1}, {4, 5, 1, 5}});
    const Var first = attn.forward(
        Var::constant(aero::tensor::slice(query, 0, 0, 4)),
        Var::constant(aero::tensor::slice(context, 0, 0, 1)));
    const Var second = attn.forward(
        Var::constant(aero::tensor::slice(query, 0, 4, 9)),
        Var::constant(aero::tensor::slice(context, 0, 1, 6)));
    EXPECT_TRUE(bitwise_equal(
        batched.value(),
        aero::tensor::concat({first.value(), second.value()}, 0)));
}

TEST(TransformerBlockTest, SegmentedForwardEqualsOneCallPerSegment) {
    aero::util::Rng rng(46);
    nn::TransformerBlock block(16, 4, rng);
    // Perturb every parameter (the norms start at the identity affine).
    for (Var p : block.parameters()) {
        for (float& v : p.mutable_value()) {
            v += 0.1f * static_cast<float>(rng.normal());
        }
    }
    const int lengths[] = {1, 7, 64};
    const Tensor x = Tensor::randn({72, 16}, rng);
    std::vector<aero::tensor::AttentionSegment> segments;
    std::vector<Tensor> per_segment;
    int begin = 0;
    for (const int rows : lengths) {
        segments.push_back({begin, rows, begin, rows});
        per_segment.push_back(
            block.forward(Var::constant(
                              aero::tensor::slice(x, 0, begin, begin + rows)))
                .value());
        begin += rows;
    }
    const Var stacked = block.forward(Var::constant(x), segments);
    EXPECT_TRUE(bitwise_equal(stacked.value(),
                              aero::tensor::concat(per_segment, 0)));
    // A single segment over all rows is the unsegmented forward, and
    // differs from the three-segment one.
    const Tensor whole = block.forward(Var::constant(x)).value();
    EXPECT_TRUE(bitwise_equal(
        block.forward(Var::constant(x), {{0, 72, 0, 72}}).value(), whole));
    EXPECT_FALSE(bitwise_equal(stacked.value(), whole));
}

// Parameterized attention-dimension sweep.
class AttentionDims
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(AttentionDims, ShapesAndFiniteness) {
    const auto [dim, heads, tq, tk] = GetParam();
    aero::util::Rng rng(43);
    nn::MultiHeadAttention attn(dim, heads, rng);
    const Var q = Var::constant(Tensor::randn({tq, dim}, rng));
    const Var ctx = Var::constant(Tensor::randn({tk, dim}, rng));
    const Var out = attn.forward(q, ctx);
    EXPECT_EQ(out.value().dim(0), tq);
    EXPECT_EQ(out.value().dim(1), dim);
    for (float v : out.value()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Dims, AttentionDims,
    ::testing::Values(std::make_tuple(4, 1, 1, 1),
                      std::make_tuple(8, 2, 5, 3),
                      std::make_tuple(16, 4, 2, 9),
                      std::make_tuple(32, 8, 7, 7)));

TEST(Adam, MinimisesQuadratic) {
    // Optimize ||x - target||^2 to near zero.
    Var x = Var::param(Tensor::from_values({5.0f, -3.0f}));
    const Var target = Var::constant(Tensor::from_values({1.0f, 2.0f}));
    nn::Adam opt({x}, {.lr = 0.1f, .weight_decay = 0.0f});
    for (int step = 0; step < 300; ++step) {
        opt.zero_grad();
        ag::mse_loss(x, target).backward();
        opt.step();
    }
    EXPECT_NEAR(x.value()[0], 1.0f, 0.05f);
    EXPECT_NEAR(x.value()[1], 2.0f, 0.05f);
}

TEST(Adam, WeightDecayShrinksUnusedParams) {
    Var used = Var::param(Tensor::from_values({1.0f}));
    Var x = Var::param(Tensor::from_values({4.0f}));
    nn::Adam opt({x}, {.lr = 0.05f, .weight_decay = 0.5f});
    const Var target = Var::constant(Tensor::from_values({4.0f}));
    for (int step = 0; step < 50; ++step) {
        opt.zero_grad();
        ag::mse_loss(x, target).backward();
        opt.step();
    }
    // decay pulls x below its loss-optimal 4.0
    EXPECT_LT(x.value()[0], 4.0f);
    (void)used;
}

TEST(Adam, ClipGradNorm) {
    Var x = Var::param(Tensor::from_values({10.0f, 0.0f}));
    nn::Adam opt({x}, {});
    opt.zero_grad();
    ag::mse_loss(x, Var::constant(Tensor::zeros({2}))).backward();
    const float pre = opt.clip_grad_norm(0.5f);
    EXPECT_GT(pre, 0.5f);
    double norm = 0.0;
    for (float g : x.grad()) norm += static_cast<double>(g) * g;
    EXPECT_NEAR(std::sqrt(norm), 0.5, 1e-4);
}

TEST(TrainingIntegration, SmallMlpLearnsXor) {
    aero::util::Rng rng(42);
    nn::Mlp mlp(2, 16, 1, rng);
    nn::Adam opt(mlp.parameters(), {.lr = 0.02f, .weight_decay = 0.0f});
    const Tensor inputs =
        Tensor::from_values({0, 0, 0, 1, 1, 0, 1, 1}).reshaped({4, 2});
    const Tensor targets = Tensor::from_values({0, 1, 1, 0}).reshaped({4, 1});
    float final_loss = 1.0f;
    for (int step = 0; step < 800; ++step) {
        opt.zero_grad();
        const Var pred = mlp.forward(Var::constant(inputs));
        const Var loss = ag::mse_loss(pred, Var::constant(targets));
        loss.backward();
        opt.step();
        final_loss = loss.value()[0];
    }
    EXPECT_LT(final_loss, 0.03f);
}

TEST(Ema, TracksAndAppliesAverage) {
    Var x = Var::param(Tensor::from_values({0.0f}));
    nn::Ema ema({x}, 0.5f);
    x.mutable_value()[0] = 8.0f;
    ema.update();  // shadow = 0.5*0 + 0.5*8 = 4
    ema.apply();
    EXPECT_FLOAT_EQ(x.value()[0], 4.0f);
    ema.restore();
    EXPECT_FLOAT_EQ(x.value()[0], 8.0f);
}

TEST(Ema, ConvergesToConstantParameter) {
    Var x = Var::param(Tensor::from_values({2.0f}));
    nn::Ema ema({x}, 0.9f);
    // Parameter never moves: shadow converges to it.
    for (int i = 0; i < 200; ++i) ema.update();
    ema.apply();
    EXPECT_NEAR(x.value()[0], 2.0f, 1e-4f);
}

TEST(Ema, SmoothsOscillation) {
    Var x = Var::param(Tensor::from_values({0.0f}));
    nn::Ema ema({x}, 0.95f);
    // Oscillating parameter +1/-1: the average ends near 0.
    for (int i = 0; i < 400; ++i) {
        x.mutable_value()[0] = (i % 2 == 0) ? 1.0f : -1.0f;
        ema.update();
    }
    ema.apply();
    EXPECT_NEAR(x.value()[0], 0.0f, 0.1f);
}

TEST(Serialize, RoundTrip) {
    aero::util::Rng rng(9);
    nn::Mlp a(3, 5, 2, rng);
    nn::Mlp b(3, 5, 2, rng);  // different init
    const std::string path = testing::TempDir() + "/aero_params.bin";
    ASSERT_TRUE(nn::save_parameters(a, path));
    ASSERT_TRUE(nn::load_parameters(b, path));
    const auto pa = a.parameters();
    const auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        for (int j = 0; j < pa[i].value().size(); ++j) {
            EXPECT_EQ(pa[i].value()[j], pb[i].value()[j]);
        }
    }
    std::remove(path.c_str());
}

TEST(Serialize, RejectsMismatchedModule) {
    aero::util::Rng rng(10);
    nn::Mlp a(3, 5, 2, rng);
    nn::Mlp wrong(3, 6, 2, rng);
    const std::string path = testing::TempDir() + "/aero_params2.bin";
    ASSERT_TRUE(nn::save_parameters(a, path));
    EXPECT_FALSE(nn::load_parameters(wrong, path));
    std::remove(path.c_str());
}

TEST(Serialize, MismatchedLoadLeavesModuleBitIdentical) {
    // Regression: load_parameters used to stream tensors directly into
    // the module, so a shape mismatch partway through left it partially
    // updated. Stage-then-commit must keep the target pristine.
    aero::util::Rng rng(30);
    nn::Mlp a(3, 5, 2, rng);
    // Same parameter count and first-tensor shape would be wrong anyway,
    // but make the FIRST tensors match so a streaming loader would have
    // already written data before hitting the mismatch: Mlp(3,5,2) and
    // Mlp(3,5,4) share the first Linear exactly.
    nn::Mlp wrong(3, 5, 4, rng);
    const std::string path = testing::TempDir() + "/aero_params_partial.bin";
    ASSERT_TRUE(nn::save_parameters(a, path));
    const auto before = snapshot_params(wrong);
    EXPECT_FALSE(nn::load_parameters(wrong, path));
    EXPECT_TRUE(params_bit_identical(wrong, before));
    std::remove(path.c_str());
}

TEST(Serialize, AtomicSaveLeavesNoTempFileAndOverwrites) {
    aero::util::Rng rng(31);
    nn::Mlp a(3, 5, 2, rng);
    nn::Mlp b(3, 5, 2, rng);  // different weights
    const std::string path = testing::TempDir() + "/aero_params_atomic.bin";
    ASSERT_TRUE(nn::save_parameters(a, path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    // Overwriting with another module's weights replaces the file whole.
    ASSERT_TRUE(nn::save_parameters(b, path));
    nn::Mlp check(3, 5, 2, rng);
    ASSERT_TRUE(nn::load_parameters(check, path));
    EXPECT_TRUE(params_bit_identical(check, snapshot_params(b)));
    std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncatedFileAtEveryLength) {
    aero::util::Rng rng(32);
    nn::Mlp a(2, 3, 1, rng);
    nn::Mlp target(2, 3, 1, rng);
    const std::string path = testing::TempDir() + "/aero_params_trunc.bin";
    ASSERT_TRUE(nn::save_parameters(a, path));
    const auto full_size = std::filesystem::file_size(path);
    const auto before = snapshot_params(target);
    // Every proper prefix of the file must be rejected without mutation.
    for (std::size_t keep = 0; keep < full_size; keep += 3) {
        ASSERT_TRUE(nn::save_parameters(a, path));
        ASSERT_TRUE(aero::util::FaultInjector::truncate_file(path, keep));
        EXPECT_FALSE(nn::load_parameters(target, path)) << "kept " << keep;
        EXPECT_TRUE(params_bit_identical(target, before)) << "kept " << keep;
    }
    std::remove(path.c_str());
}

TEST(Serialize, RejectsEveryGarbageByteFlip) {
    // CRC + header validation fuzz: flipping any single byte anywhere in
    // the checkpoint must make the load fail cleanly, module untouched.
    aero::util::Rng rng(33);
    nn::Mlp a(2, 3, 1, rng);
    nn::Mlp target(2, 3, 1, rng);
    const std::string path = testing::TempDir() + "/aero_params_flip.bin";
    ASSERT_TRUE(nn::save_parameters(a, path));
    const auto size = std::filesystem::file_size(path);
    const auto before = snapshot_params(target);
    for (std::size_t offset = 0; offset < size; ++offset) {
        ASSERT_TRUE(nn::save_parameters(a, path));
        ASSERT_TRUE(aero::util::FaultInjector::flip_byte(path, offset, 0x40));
        EXPECT_FALSE(nn::load_parameters(target, path))
            << "flip at offset " << offset << " was accepted";
        EXPECT_TRUE(params_bit_identical(target, before))
            << "flip at offset " << offset;
    }
    std::remove(path.c_str());
}

TEST(Serialize, RejectsTrailingBytes) {
    aero::util::Rng rng(34);
    nn::Mlp a(2, 3, 1, rng);
    const std::string path = testing::TempDir() + "/aero_params_trail.bin";
    ASSERT_TRUE(nn::save_parameters(a, path));
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.put('\0');
    }
    nn::Mlp target(2, 3, 1, rng);
    EXPECT_FALSE(nn::load_parameters(target, path));
    std::remove(path.c_str());
}

TEST(Serialize, RefusesOldFormatV1Checkpoint) {
    // A v1 file for the exact same module (old layout: magic, count,
    // rank/dims/floats, no version and no checksums) must be refused on
    // format grounds alone.
    aero::util::Rng rng(35);
    nn::Mlp module(2, 3, 1, rng);
    const std::string path = testing::TempDir() + "/aero_params_v1.bin";
    {
        std::ofstream out(path, std::ios::binary);
        const std::uint32_t magic = 0x41455244;  // "AERD"
        const auto params = module.parameters();
        const auto count = static_cast<std::uint32_t>(params.size());
        out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
        out.write(reinterpret_cast<const char*>(&count), sizeof(count));
        for (const Var& p : params) {
            const Tensor& t = p.value();
            const auto rank = static_cast<std::uint32_t>(t.rank());
            out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
            for (int d = 0; d < t.rank(); ++d) {
                const auto extent = static_cast<std::uint32_t>(t.dim(d));
                out.write(reinterpret_cast<const char*>(&extent),
                          sizeof(extent));
            }
            out.write(reinterpret_cast<const char*>(t.data()),
                      static_cast<std::streamsize>(sizeof(float) * t.size()));
        }
    }
    nn::Mlp target(2, 3, 1, rng);
    const auto before = snapshot_params(target);
    EXPECT_FALSE(nn::load_parameters(target, path));
    EXPECT_TRUE(params_bit_identical(target, before));
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileFailsCleanly) {
    aero::util::Rng rng(36);
    nn::Mlp target(2, 3, 1, rng);
    const auto before = snapshot_params(target);
    EXPECT_FALSE(nn::load_parameters(
        target, testing::TempDir() + "/aero_params_nope.bin"));
    EXPECT_TRUE(params_bit_identical(target, before));
}

TEST(Module, ZeroGradClearsTree) {
    aero::util::Rng rng(11);
    nn::Mlp mlp(2, 4, 1, rng);
    ag::mean_all(mlp.forward(Var::constant(Tensor::ones({1, 2})))).backward();
    bool any = false;
    for (const Var& p : mlp.parameters()) any = any || !p.grad().empty();
    EXPECT_TRUE(any);
    mlp.zero_grad();
    for (const Var& p : mlp.parameters()) EXPECT_TRUE(p.grad().empty());
}

}  // namespace
