// Numerical gradient checks for every autograd op: the analytic gradient
// from backward() is compared against central finite differences of a
// scalar functional of the op output.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>

#include "autograd/var.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using aero::autograd::Var;
using aero::tensor::Tensor;
namespace ag = aero::autograd;

/// Scalarises an arbitrary-output op with a fixed random projection so
/// the check exercises non-uniform upstream gradients.
Var project(const Var& y, const Tensor& weights) {
    const Var w = Var::constant(weights.reshaped(y.value().shape()));
    return ag::sum_all(ag::mul(y, w));
}

/// Checks d(proj(f(x)))/dx against finite differences at every input
/// coordinate of every leaf.
void check_gradients(const std::function<Var(const std::vector<Var>&)>& f,
                     std::vector<Tensor> inputs, float tolerance = 2e-2f,
                     float epsilon = 1e-2f) {
    std::vector<Var> leaves;
    leaves.reserve(inputs.size());
    for (Tensor& t : inputs) leaves.push_back(Var::param(t));

    const Var loss = f(leaves);
    ASSERT_EQ(loss.value().size(), 1);
    loss.backward();

    for (std::size_t leaf_index = 0; leaf_index < leaves.size();
         ++leaf_index) {
        const Tensor analytic = leaves[leaf_index].grad();
        ASSERT_FALSE(analytic.empty())
            << "no gradient reached leaf " << leaf_index;
        for (int i = 0; i < inputs[leaf_index].size(); ++i) {
            auto eval = [&](float delta) {
                std::vector<Var> perturbed;
                for (std::size_t k = 0; k < inputs.size(); ++k) {
                    Tensor t = inputs[k];
                    if (k == leaf_index) t[i] += delta;
                    perturbed.push_back(Var::constant(std::move(t)));
                }
                return f(perturbed).value()[0];
            };
            const float numeric =
                (eval(epsilon) - eval(-epsilon)) / (2.0f * epsilon);
            EXPECT_NEAR(analytic[i], numeric,
                        tolerance * std::max(1.0f, std::abs(numeric)))
                << "leaf " << leaf_index << " coordinate " << i;
        }
    }
}

TEST(Autograd, LeafBackwardSeedsOnes) {
    Var x = Var::param(Tensor::from_values({1.0f, 2.0f}));
    ag::sum_all(x).backward();
    EXPECT_EQ(x.grad()[0], 1.0f);
    EXPECT_EQ(x.grad()[1], 1.0f);
}

TEST(Autograd, GradAccumulatesAcrossUses) {
    Var x = Var::param(Tensor::from_values({3.0f}));
    // y = x + x -> dy/dx = 2
    ag::sum_all(ag::add(x, x)).backward();
    EXPECT_EQ(x.grad()[0], 2.0f);
}

TEST(Autograd, ZeroGradClears) {
    Var x = Var::param(Tensor::from_values({3.0f}));
    ag::sum_all(x).backward();
    x.zero_grad();
    EXPECT_TRUE(x.grad().empty());
}

TEST(Autograd, ConstantGetsNoGradient) {
    Var x = Var::constant(Tensor::from_values({1.0f}));
    Var p = Var::param(Tensor::from_values({2.0f}));
    ag::sum_all(ag::mul(x, p)).backward();
    EXPECT_TRUE(x.grad().empty());
    EXPECT_EQ(p.grad()[0], 1.0f);
}

TEST(GradCheck, AddSubMul) {
    aero::util::Rng rng(1);
    const Tensor proj = Tensor::randn({6}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::mul(ag::add(v[0], v[1]), ag::sub(v[0], v[1])),
                           proj);
        },
        {Tensor::randn({2, 3}, rng), Tensor::randn({2, 3}, rng)});
}

TEST(GradCheck, ScaleAndAddScalar) {
    aero::util::Rng rng(2);
    const Tensor proj = Tensor::randn({4}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::add_scalar(ag::scale(v[0], 2.5f), -1.0f), proj);
        },
        {Tensor::randn({4}, rng)});
}

TEST(GradCheck, Matmul) {
    aero::util::Rng rng(3);
    const Tensor proj = Tensor::randn({2 * 4}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::matmul(v[0], v[1]), proj);
        },
        {Tensor::randn({2, 3}, rng), Tensor::randn({3, 4}, rng)});
}

TEST(GradCheck, Transpose) {
    aero::util::Rng rng(4);
    const Tensor proj = Tensor::randn({6}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::transpose2d(v[0]), proj);
        },
        {Tensor::randn({2, 3}, rng)});
}

TEST(GradCheck, AddRowBias) {
    aero::util::Rng rng(5);
    const Tensor proj = Tensor::randn({6}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::add_row_bias(v[0], v[1]), proj);
        },
        {Tensor::randn({2, 3}, rng), Tensor::randn({3}, rng)});
}

TEST(GradCheck, Activations) {
    aero::util::Rng rng(6);
    const Tensor proj = Tensor::randn({5}, rng);
    for (auto op : {&ag::silu, &ag::tanh, &ag::sigmoid}) {
        check_gradients(
            [&](const std::vector<Var>& v) { return project(op(v[0]), proj); },
            {Tensor::randn({5}, rng)});
    }
}

TEST(GradCheck, ReluAwayFromKink) {
    aero::util::Rng rng(7);
    const Tensor proj = Tensor::randn({5}, rng);
    Tensor x = Tensor::randn({5}, rng);
    for (float& v : x) {
        if (std::abs(v) < 0.1f) v = 0.5f;  // keep clear of the kink
    }
    check_gradients(
        [&](const std::vector<Var>& v) { return project(ag::relu(v[0]), proj); },
        {x});
}

TEST(GradCheck, SoftmaxRows) {
    aero::util::Rng rng(8);
    const Tensor proj = Tensor::randn({6}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::softmax_rows(v[0]), proj);
        },
        {Tensor::randn({2, 3}, rng)});
}

TEST(GradCheck, Conv2d) {
    aero::util::Rng rng(9);
    const Tensor proj = Tensor::randn({2 * 2 * 3 * 3}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::conv2d(v[0], v[1], v[2], {1, 1}), proj);
        },
        {Tensor::randn({2, 2, 3, 3}, rng), Tensor::randn({2, 2, 3, 3}, rng),
         Tensor::randn({2}, rng)});
}

TEST(GradCheck, Conv2dStride2) {
    aero::util::Rng rng(10);
    const Tensor proj = Tensor::randn({1 * 2 * 2 * 2}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::conv2d(v[0], v[1], v[2], {2, 1}), proj);
        },
        {Tensor::randn({1, 1, 4, 4}, rng), Tensor::randn({2, 1, 3, 3}, rng),
         Tensor::randn({2}, rng)});
}

TEST(GradCheck, UpsampleAndPool) {
    aero::util::Rng rng(11);
    const Tensor proj_up = Tensor::randn({1 * 1 * 4 * 4}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::upsample_nearest2x(v[0]), proj_up);
        },
        {Tensor::randn({1, 1, 2, 2}, rng)});
    const Tensor proj_pool = Tensor::randn({1 * 1 * 2 * 2}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::avg_pool2x(v[0]), proj_pool);
        },
        {Tensor::randn({1, 1, 4, 4}, rng)});
}

TEST(GradCheck, AddSpatialBias) {
    aero::util::Rng rng(21);
    const Tensor proj = Tensor::randn({2 * 2 * 2 * 2}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::add_spatial_bias(v[0], v[1]), proj);
        },
        {Tensor::randn({2, 2, 2, 2}, rng), Tensor::randn({2, 2}, rng)});
}

TEST(GradCheck, GlobalAvgPool) {
    aero::util::Rng rng(12);
    const Tensor proj = Tensor::randn({2 * 3}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::global_avg_pool(v[0]), proj);
        },
        {Tensor::randn({2, 3, 2, 2}, rng)});
}

TEST(GradCheck, ReshapeConcatSlice) {
    aero::util::Rng rng(13);
    const Tensor proj = Tensor::randn({2 * 5}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            const Var a = ag::reshape(v[0], {2, 3});
            const Var b = v[1];
            const Var cat = ag::concat({a, b}, 1);  // [2,5]
            return project(ag::slice(cat, 1, 0, 5), proj);
        },
        {Tensor::randn({6}, rng), Tensor::randn({2, 2}, rng)});
}

TEST(GradCheck, LayerNorm) {
    aero::util::Rng rng(14);
    const Tensor proj = Tensor::randn({2 * 4}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::layer_norm_rows(v[0], v[1], v[2]), proj);
        },
        {Tensor::randn({2, 4}, rng), Tensor::randn({4}, rng, 1.0f, 0.2f),
         Tensor::randn({4}, rng)},
        /*tolerance=*/5e-2f, /*epsilon=*/5e-3f);
}

TEST(GradCheck, GroupNorm) {
    aero::util::Rng rng(15);
    const Tensor proj = Tensor::randn({1 * 4 * 2 * 2}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::group_norm(v[0], 2, v[1], v[2]), proj);
        },
        {Tensor::randn({1, 4, 2, 2}, rng), Tensor::randn({4}, rng, 1.0f, 0.2f),
         Tensor::randn({4}, rng)},
        /*tolerance=*/5e-2f, /*epsilon=*/5e-3f);
}

TEST(GradCheck, Embedding) {
    aero::util::Rng rng(16);
    const std::vector<int> ids{0, 2, 2, 1};
    const Tensor proj = Tensor::randn({4 * 3}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::embedding(v[0], ids), proj);
        },
        {Tensor::randn({3, 3}, rng)});
}

TEST(GradCheck, MeanAllAndMse) {
    aero::util::Rng rng(17);
    check_gradients(
        [&](const std::vector<Var>& v) { return ag::mean_all(v[0]); },
        {Tensor::randn({3, 2}, rng)});
    check_gradients(
        [&](const std::vector<Var>& v) { return ag::mse_loss(v[0], v[1]); },
        {Tensor::randn({4}, rng), Tensor::randn({4}, rng)});
}

TEST(GradCheck, CrossEntropy) {
    aero::util::Rng rng(18);
    const std::vector<int> targets{1, 0, 2};
    check_gradients(
        [&](const std::vector<Var>& v) {
            return ag::cross_entropy_rows(v[0], targets);
        },
        {Tensor::randn({3, 3}, rng)});
}

TEST(GradCheck, AttentionTwoSegmentsWithDifferentKeyCounts) {
    // Query rows 0-2 attend over key rows 0-1, query rows 3-4 over key
    // rows 2-5; two heads of width 2.
    aero::util::Rng rng(19);
    const std::vector<aero::tensor::AttentionSegment> segments{
        {0, 3, 0, 2}, {3, 2, 2, 4}};
    const Tensor proj = Tensor::randn({5 * 4}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::attention(v[0], v[1], v[2], segments,
                                         /*heads=*/2, 0.7f),
                           proj);
        },
        {Tensor::randn({5, 4}, rng), Tensor::randn({6, 4}, rng),
         Tensor::randn({6, 4}, rng)},
        /*tolerance=*/5e-2f, /*epsilon=*/5e-3f);
}

TEST(GradCheck, TokenTransposes) {
    aero::util::Rng rng(20);
    const Tensor proj = Tensor::randn({2 * 3 * 2 * 2}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::map_to_tokens(v[0]), proj);  // [8, 3]
        },
        {Tensor::randn({2, 3, 2, 2}, rng)});
    check_gradients(
        [&](const std::vector<Var>& v) {
            return project(ag::tokens_to_map(v[0], {2, 3, 2, 2}), proj);
        },
        {Tensor::randn({8, 3}, rng)});
}

TEST(NoGradGuard, NestsAndRestoresOnScopeExit) {
    EXPECT_TRUE(ag::grad_enabled());
    {
        const ag::NoGradGuard outer;
        EXPECT_FALSE(ag::grad_enabled());
        {
            const ag::NoGradGuard inner;
            EXPECT_FALSE(ag::grad_enabled());
        }
        EXPECT_FALSE(ag::grad_enabled());  // the outer guard still holds
    }
    EXPECT_TRUE(ag::grad_enabled());
}

TEST(NoGradGuard, RestoresWhenAnExceptionUnwinds) {
    EXPECT_THROW(
        {
            const ag::NoGradGuard guard;
            throw std::runtime_error("forward failed");
        },
        std::runtime_error);
    EXPECT_TRUE(ag::grad_enabled());
    {
        const ag::NoGradGuard outer;
        try {
            const ag::NoGradGuard inner;
            throw std::runtime_error("inner failed");
        } catch (const std::runtime_error&) {
        }
        EXPECT_FALSE(ag::grad_enabled());
    }
    EXPECT_TRUE(ag::grad_enabled());
}

TEST(NoGradGuard, OpsRecordNoParentsUnderTheGuard) {
    aero::util::Rng rng(21);
    const Var w = Var::param(Tensor::randn({3, 2}, rng));
    const Var x = Var::constant(Tensor::randn({4, 3}, rng));
    const Var recorded = ag::matmul(x, w);
    EXPECT_TRUE(recorded.requires_grad());
    EXPECT_EQ(recorded.node()->parents.size(), 2u);
    EXPECT_TRUE(static_cast<bool>(recorded.node()->backprop));

    const ag::NoGradGuard guard;
    const Var leaf = ag::silu(ag::matmul(x, w));
    EXPECT_FALSE(leaf.requires_grad());
    EXPECT_TRUE(leaf.node()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(leaf.node()->backprop));
}

TEST(NoGradGuard, OtherThreadsKeepRecording) {
    aero::util::Rng rng(22);
    const Var w = Var::param(Tensor::randn({2, 2}, rng));
    const ag::NoGradGuard guard;
    bool enabled = false;
    bool requires_grad = false;
    std::thread other([&] {
        enabled = ag::grad_enabled();
        requires_grad = ag::mul(w, w).requires_grad();
    });
    other.join();
    EXPECT_TRUE(enabled);
    EXPECT_TRUE(requires_grad);
    EXPECT_FALSE(ag::mul(w, w).requires_grad());
}

TEST(NoGradGuard, ValuesAreBitIdenticalWithAndWithoutTheGuard) {
    // One graph touching every op family a forward pass uses.
    aero::util::Rng rng(23);
    std::vector<Var> params;
    for (const std::vector<int>& shape :
         std::vector<std::vector<int>>{{4, 3, 3, 3},
                                       {4},
                                       {4},
                                       {4},
                                       {16, 8},
                                       {8},
                                       {8},
                                       {8}}) {
        params.push_back(Var::param(Tensor::randn(shape, rng)));
    }
    const Var image = Var::constant(Tensor::randn({2, 3, 4, 4}, rng));
    const Var context = Var::constant(Tensor::randn({5, 8}, rng));
    const auto forward = [&] {
        Var h = ag::conv2d(image, params[0], params[1], {1, 1});
        h = ag::silu(ag::group_norm(h, 2, params[2], params[3]));
        h = ag::avg_pool2x(h);                        // [2, 4, 2, 2]
        Var tokens = ag::reshape(ag::map_to_tokens(h), {2, 16});
        tokens = ag::add_row_bias(ag::matmul(tokens, params[4]), params[5]);
        tokens = ag::layer_norm_rows(tokens, params[6], params[7]);
        const Var attended = ag::attention(
            tokens, context, context, {{0, 1, 0, 2}, {1, 1, 2, 3}}, 2, 0.5f);
        const Var mixed = ag::tanh(ag::add(attended, ag::sigmoid(tokens)));
        return ag::softmax_rows(ag::scale(mixed, 3.0f)).value();
    };
    const Tensor recorded = forward();
    Tensor guarded;
    {
        const ag::NoGradGuard guard;
        guarded = forward();
    }
    ASSERT_TRUE(recorded.same_shape(guarded));
    EXPECT_EQ(std::memcmp(recorded.data(), guarded.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              recorded.size())),
              0);
}

// Parameterized composite-graph gradient check over assorted shapes:
// a two-layer computation mixing matmul, bias, activation and slicing.
class CompositeGradCheck
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CompositeGradCheck, DeepGraphGradients) {
    const auto [m, k] = GetParam();
    aero::util::Rng rng(800 + m * 10 + k);
    const Tensor proj = Tensor::randn({m * k}, rng);
    check_gradients(
        [&](const std::vector<Var>& v) {
            const Var h = ag::silu(ag::add_row_bias(
                ag::matmul(v[0], v[1]), v[2]));          // [m,k]
            const Var g = ag::softmax_rows(
                ag::matmul(h, ag::transpose2d(v[1])));   // [m,k_in]
            const Var mixed = ag::matmul(g, v[1]);       // [m,k]
            return project(ag::mul(mixed, h), proj);
        },
        {Tensor::randn({m, k}, rng), Tensor::randn({k, k}, rng),
         Tensor::randn({k}, rng)},
        /*tolerance=*/5e-2f, /*epsilon=*/5e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CompositeGradCheck,
                         ::testing::Values(std::make_tuple(2, 3),
                                           std::make_tuple(1, 4),
                                           std::make_tuple(3, 2)));

TEST(Autograd, MseLossValue) {
    const Var a = Var::param(Tensor::from_values({1.0f, 2.0f}));
    const Var b = Var::constant(Tensor::from_values({0.0f, 0.0f}));
    const Var loss = ag::mse_loss(a, b);
    EXPECT_NEAR(loss.value()[0], 2.5f, 1e-6f);
}

TEST(Autograd, CrossEntropyMatchesUniform) {
    // Uniform logits over 4 classes -> loss = ln 4.
    const Var logits = Var::param(Tensor::zeros({2, 4}));
    const Var loss = ag::cross_entropy_rows(logits, {0, 3});
    EXPECT_NEAR(loss.value()[0], std::log(4.0f), 1e-5f);
}

TEST(Autograd, DiamondGraphGradient) {
    // y = (x*x) + (x*x) reused node: dy/dx = 4x.
    Var x = Var::param(Tensor::from_values({3.0f}));
    const Var sq = ag::mul(x, x);
    ag::sum_all(ag::add(sq, sq)).backward();
    EXPECT_NEAR(x.grad()[0], 12.0f, 1e-5f);
}

bool same_bits(const Tensor& a, const Tensor& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<std::size_t>(a.size())) ==
               0;
}

/// Pool dispatches (one per kernel call) made by `y.backward()`.
long long backward_kernel_calls(const Var& y) {
    const auto& pool = aero::util::ThreadPool::instance();
    const long long before = pool.stats().tasks;
    y.backward();
    return pool.stats().tasks - before;
}

TEST(MatmulBackward, ComputesOnlyTheProductsThatAreNeeded) {
    // backward() seeds y with ones; the gradient of each operand that
    // requires one is the same kernel's product as before, bit for bit,
    // and an operand that requires none costs no kernel call.
    aero::util::Rng rng(31);
    const Tensor a = Tensor::randn({6, 5}, rng);
    const Tensor b = Tensor::randn({5, 7}, rng);
    const Tensor ones = Tensor::ones({6, 7});
    const Tensor grad_a = aero::tensor::matmul_nt(ones, b);
    const Tensor grad_b = aero::tensor::matmul_tn(a, ones);
    {
        const Var x = Var::constant(a);
        const Var w = Var::param(b);
        EXPECT_EQ(backward_kernel_calls(ag::matmul(x, w)), 1);
        EXPECT_TRUE(same_bits(w.grad(), grad_b));
    }
    {
        const Var x = Var::param(a);
        const Var w = Var::constant(b);
        EXPECT_EQ(backward_kernel_calls(ag::matmul(x, w)), 1);
        EXPECT_TRUE(same_bits(x.grad(), grad_a));
    }
    {
        const Var x = Var::param(a);
        const Var w = Var::param(b);
        EXPECT_EQ(backward_kernel_calls(ag::matmul(x, w)), 2);
        EXPECT_TRUE(same_bits(x.grad(), grad_a));
        EXPECT_TRUE(same_bits(w.grad(), grad_b));
    }
}

}  // namespace
