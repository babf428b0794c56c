// Determinism suite for the intra-op thread pool (DESIGN.md §11): every
// parallelized kernel must produce BITWISE-identical outputs for any
// AERO_THREADS value. Each test runs the same computation with the
// process-wide pool resized to 1, 2, and 7 threads and compares float
// bit patterns, not approximate values — the contract is exact.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/condition.hpp"
#include "diffusion/sampler.hpp"
#include "diffusion/schedule.hpp"
#include "diffusion/unet.hpp"
#include "nn/attention.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace ops = aero::tensor;
using aero::autograd::Var;
using aero::tensor::Tensor;
using aero::util::ThreadPool;

/// Thread counts the suite sweeps: serial, even split, and a prime that
/// never divides the chunk counts evenly.
const int kThreadCounts[] = {1, 2, 7};

/// Restores the global pool to its default size when a test ends, so
/// suites running after this one see the configured AERO_THREADS.
class PoolSizeGuard {
public:
    PoolSizeGuard() = default;
    ~PoolSizeGuard() {
        ThreadPool::instance().resize(ThreadPool::default_threads());
    }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
    if (!a.same_shape(b)) return false;
    return std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<std::size_t>(a.size())) ==
           0;
}

/// Runs `compute` at every thread count and asserts each result is
/// bitwise identical to the single-threaded one.
template <typename Fn>
void expect_thread_count_invariant(const char* label, Fn compute) {
    const PoolSizeGuard guard;
    ThreadPool::instance().resize(1);
    const Tensor reference = compute();
    for (const int threads : kThreadCounts) {
        ThreadPool::instance().resize(threads);
        const Tensor result = compute();
        EXPECT_TRUE(bitwise_equal(reference, result))
            << label << ": output differs at " << threads << " threads";
    }
}

/// Chunks one call of `compute` is split into, read from the pool's
/// counters; a result of 1 means the kernel ran serially.
template <typename Fn>
long long chunks_per_call(Fn compute) {
    const long long before = ThreadPool::instance().stats().chunks;
    compute();
    return ThreadPool::instance().stats().chunks - before;
}

TEST(Determinism, Matmul) {
    // 101 rows end in a 1-row tile and 83 columns in three 1-wide lane
    // blocks. At 101 x 96 x 83 (about 805k mul-adds) every product is
    // above the size a product needs to be split at all (checked below);
    // chunks hold whole row tiles.
    aero::util::Rng rng(11);
    const Tensor a = Tensor::randn({101, 96}, rng);
    const Tensor b = Tensor::randn({96, 83}, rng);
    const Tensor bt = ops::transpose2d(b);
    const Tensor at = ops::transpose2d(a);
    const auto product = [&] { return ops::matmul(a, b); };
    const auto product_nt = [&] { return ops::matmul_nt(a, bt); };
    const auto product_tn = [&] { return ops::matmul_tn(at, b); };
    EXPECT_GT(chunks_per_call(product), 1);
    EXPECT_GT(chunks_per_call(product_nt), 1);
    EXPECT_GT(chunks_per_call(product_tn), 1);
    expect_thread_count_invariant("matmul", product);
    expect_thread_count_invariant("matmul_nt", product_nt);
    expect_thread_count_invariant("matmul_tn", product_tn);
}

TEST(Determinism, ElementwiseAndReductions) {
    aero::util::Rng rng(12);
    const Tensor x = Tensor::randn({100000}, rng);
    const Tensor y = Tensor::randn({100000}, rng);
    expect_thread_count_invariant("silu", [&] { return ops::silu(x); });
    expect_thread_count_invariant("mul", [&] { return ops::mul(x, y); });
    // Scalar reductions wrapped in a 1-element tensor for the comparator.
    expect_thread_count_invariant("sum_all", [&] {
        Tensor s({1});
        s[0] = ops::sum_all(x);
        return s;
    });
    const Tensor m = Tensor::randn({37, 53}, rng);
    expect_thread_count_invariant("sum_rows",
                                  [&] { return ops::sum_rows(m); });
}

TEST(Determinism, Softmax) {
    aero::util::Rng rng(13);
    const Tensor logits = Tensor::randn({64, 512}, rng);
    expect_thread_count_invariant("softmax_rows", [&] {
        return ops::softmax_rows(logits);
    });
    const Tensor grad = Tensor::randn({64, 512}, rng);
    const Tensor probs = ops::softmax_rows(logits);
    expect_thread_count_invariant("softmax_rows_backward", [&] {
        return ops::softmax_rows_backward(grad, probs);
    });
}

TEST(Determinism, Conv2d) {
    aero::util::Rng rng(14);
    const Tensor input = Tensor::randn({2, 3, 12, 12}, rng);
    const Tensor weight = Tensor::randn({8, 3, 3, 3}, rng);
    const Tensor bias = Tensor::randn({8}, rng);
    const ops::Conv2dSpec spec{1, 1};
    expect_thread_count_invariant("conv2d", [&] {
        return ops::conv2d(input, weight, bias, spec);
    });
    const Tensor grad_out = Tensor::randn({2, 8, 12, 12}, rng);
    expect_thread_count_invariant("conv2d_backward_input", [&] {
        return ops::conv2d_backward_input(grad_out, weight, input.shape(),
                                          spec);
    });
    expect_thread_count_invariant("conv2d_backward_weight", [&] {
        return ops::conv2d_backward_weight(grad_out, input, weight.shape(),
                                           spec);
    });
    expect_thread_count_invariant("conv2d_backward_bias", [&] {
        return ops::conv2d_backward_bias(grad_out);
    });
}

TEST(Determinism, Conv2dLaneTails) {
    // 7 input channels leave a 4-wide and three 1-wide lane blocks, and a
    // 4-wide and a 3-wide channel tile, and 20 output channels a 4-wide
    // lane block, so chunks hold partial lane groups and partial tiles.
    // 29 columns leave a 1-wide position tile at stride 1 (29 outputs)
    // and 3- and 2-wide ones at stride 2 (15 outputs; input phases of 15
    // and 14 columns). 32 rows keep every kernel above the size a
    // convolution needs to be split at all, at both strides (checked
    // below).
    aero::util::Rng rng(17);
    const Tensor input = Tensor::randn({3, 7, 32, 29}, rng);
    const Tensor weight = Tensor::randn({20, 7, 3, 3}, rng);
    const Tensor bias = Tensor::randn({20}, rng);
    for (const int stride : {1, 2}) {
        const ops::Conv2dSpec spec{stride, 1};
        const Tensor out = ops::conv2d(input, weight, bias, spec);
        const Tensor grad_out = Tensor::randn(out.shape(), rng);
        const auto forward = [&] {
            return ops::conv2d(input, weight, bias, spec);
        };
        const auto backward_input = [&] {
            return ops::conv2d_backward_input(grad_out, weight,
                                              input.shape(), spec);
        };
        const auto backward_weight = [&] {
            return ops::conv2d_backward_weight(grad_out, input,
                                               weight.shape(), spec);
        };
        EXPECT_GT(chunks_per_call(forward), 1) << "stride " << stride;
        EXPECT_GT(chunks_per_call(backward_input), 1) << "stride " << stride;
        EXPECT_GT(chunks_per_call(backward_weight), 1) << "stride " << stride;
        expect_thread_count_invariant("conv2d", forward);
        expect_thread_count_invariant("conv2d_backward_input",
                                      backward_input);
        expect_thread_count_invariant("conv2d_backward_weight",
                                      backward_weight);
    }
}

TEST(Chunking, BatchOneEncoderConvRunsAsOneChunk) {
    // The image encoders' second conv (16 -> 32, stride 2, on one
    // image's 16x16 map) is below the size worth a pool dispatch, though
    // each kernel has several units here.
    aero::util::Rng rng(18);
    const Tensor input = Tensor::randn({1, 16, 16, 16}, rng);
    const Tensor weight = Tensor::randn({32, 16, 3, 3}, rng);
    const Tensor bias = Tensor::randn({32}, rng);
    const ops::Conv2dSpec spec{2, 1};
    const Tensor grad_out = Tensor::randn({1, 32, 8, 8}, rng);
    EXPECT_EQ(chunks_per_call(
                  [&] { return ops::conv2d(input, weight, bias, spec); }),
              1);
    EXPECT_EQ(chunks_per_call([&] {
                  return ops::conv2d_backward_input(grad_out, weight,
                                                    input.shape(), spec);
              }),
              1);
    EXPECT_EQ(chunks_per_call([&] {
                  return ops::conv2d_backward_weight(grad_out, input,
                                                     weight.shape(), spec);
              }),
              1);
}

TEST(Determinism, Attention) {
    aero::util::Rng rng(15);
    aero::nn::MultiHeadAttention attention(16, 4, rng);
    const Tensor query = Tensor::randn({10, 16}, rng);
    const Tensor context = Tensor::randn({6, 16}, rng);
    expect_thread_count_invariant("attention", [&] {
        const Var q = Var::constant(query);
        const Var ctx = Var::constant(context);
        return attention.forward(q, ctx).value();
    });
}

/// Flattened concatenation, so a test can compare several outputs at once.
Tensor flat_concat(const std::vector<Tensor>& parts) {
    std::vector<Tensor> flat;
    for (const Tensor& part : parts) flat.push_back(part.flattened());
    return ops::concat(flat, 0);
}

TEST(Determinism, TranscendentalMaps) {
    aero::util::Rng rng(19);
    const Tensor x = Tensor::randn({50000}, rng);
    const Tensor g = Tensor::randn({50000}, rng);
    expect_thread_count_invariant("sigmoid", [&] { return ops::sigmoid(x); });
    expect_thread_count_invariant("tanh", [&] { return ops::tanh(x); });
    expect_thread_count_invariant("exp", [&] { return ops::exp(x); });
    expect_thread_count_invariant("silu_backward",
                                  [&] { return ops::silu_backward(g, x); });
    const Tensor y = ops::tanh(x);
    expect_thread_count_invariant("tanh_backward",
                                  [&] { return ops::tanh_backward(g, y); });
    const Tensor s = ops::sigmoid(x);
    expect_thread_count_invariant("sigmoid_backward",
                                  [&] { return ops::sigmoid_backward(g, s); });
    EXPECT_GT(chunks_per_call([&] { return ops::silu(x); }), 1);
}

/// Output and every input gradient of `op` over `inputs` (all trainable),
/// backpropagating a fixed random projection.
template <typename Op>
Tensor forward_and_gradients(const std::vector<Tensor>& inputs,
                             const Tensor& projection, Op op) {
    std::vector<Var> leaves;
    for (const Tensor& input : inputs) leaves.push_back(Var::param(input));
    const Var out = op(leaves);
    aero::autograd::sum_all(aero::autograd::mul(
                                out, Var::constant(projection.reshaped(
                                         out.value().shape()))))
        .backward();
    std::vector<Tensor> parts{out.value()};
    for (const Var& leaf : leaves) parts.push_back(leaf.grad());
    return flat_concat(parts);
}

TEST(Determinism, NormalisationForwardAndBackward) {
    aero::util::Rng rng(20);
    // The 32-row UNet step's bottleneck group norm and token layer norm.
    const Tensor x = Tensor::randn({32, 48, 4, 4}, rng);
    const Tensor gamma = Tensor::randn({48}, rng, 1.0f, 0.2f);
    const Tensor beta = Tensor::randn({48}, rng);
    const Tensor projection = Tensor::randn({32 * 48 * 16}, rng);
    const auto group_norm = [&] {
        return forward_and_gradients(
            {x, gamma, beta}, projection, [](const std::vector<Var>& v) {
                return aero::autograd::group_norm(v[0], 4, v[1], v[2]);
            });
    };
    const Tensor rows = Tensor::randn({512, 48}, rng);
    const auto layer_norm = [&] {
        return forward_and_gradients(
            {rows, gamma, beta}, projection, [](const std::vector<Var>& v) {
                return aero::autograd::layer_norm_rows(v[0], v[1], v[2]);
            });
    };
    expect_thread_count_invariant("group_norm", group_norm);
    expect_thread_count_invariant("layer_norm_rows", layer_norm);
    const auto group_norm_forward = [&] {
        const aero::autograd::NoGradGuard no_grad;
        return aero::autograd::group_norm(Var::constant(x), 4,
                                          Var::constant(gamma),
                                          Var::constant(beta))
            .value();
    };
    const auto layer_norm_forward = [&] {
        return aero::autograd::layer_norm_rows(Var::constant(rows),
                                               Var::constant(gamma),
                                               Var::constant(beta))
            .value();
    };
    EXPECT_GT(chunks_per_call(group_norm_forward), 1);
    EXPECT_GT(chunks_per_call(layer_norm_forward), 1);
}

TEST(Determinism, SegmentedAttentionAndTokenTransposes) {
    aero::util::Rng rng(21);
    // 32 segments of 16 query rows over 1..30 key rows, four heads.
    std::vector<ops::AttentionSegment> segments;
    int keys = 0;
    for (int i = 0; i < 32; ++i) {
        const int k = 1 + (i * 7) % 30;
        segments.push_back({i * 16, 16, keys, k});
        keys += k;
    }
    const Tensor q = Tensor::randn({32 * 16, 48}, rng);
    const Tensor k = Tensor::randn({keys, 48}, rng);
    const Tensor v = Tensor::randn({keys, 48}, rng);
    const Tensor projection = Tensor::randn({32 * 16 * 48}, rng);
    const auto forward = [&] {
        return ops::attention(q, k, v, segments, 4, 0.25f);
    };
    expect_thread_count_invariant("attention", forward);
    expect_thread_count_invariant("attention_backward", [&] {
        return forward_and_gradients(
            {q, k, v}, projection, [&](const std::vector<Var>& in) {
                return aero::autograd::attention(in[0], in[1], in[2],
                                                 segments, 4, 0.25f);
            });
    });
    EXPECT_GT(chunks_per_call(forward), 1);

    const Tensor map = Tensor::randn({32, 48, 4, 4}, rng);
    expect_thread_count_invariant("map_to_tokens",
                                  [&] { return ops::map_to_tokens(map); });
    const Tensor tokens = ops::map_to_tokens(map);
    expect_thread_count_invariant("tokens_to_map", [&] {
        return ops::tokens_to_map(tokens, map.shape());
    });
}

TEST(Determinism, ConditionFeaturesBatch) {
    // Untrained encoders, and a detector whose objectness logits are
    // raised so every scene yields a full ROI batch.
    aero::core::Substrate substrate;
    substrate.budget = aero::core::Budget::smoke();
    substrate.embed_config.image_size = substrate.budget.image_size;
    aero::util::Rng rng(22);
    substrate.clip =
        std::make_unique<aero::embed::ClipModel>(substrate.embed_config, rng);
    aero::detect::DetectorConfig detector_config;
    detector_config.image_size = substrate.budget.image_size;
    detector_config.grid = detector_config.image_size / 4;
    substrate.detector =
        std::make_unique<aero::detect::GridDetector>(detector_config, rng);
    substrate.detector->parameters().back().mutable_value()[0] += 3.0f;

    // 20 samples: a full pass of 16 and a pass of 4; two targets differ
    // from their captions.
    aero::scene::DatasetConfig dataset_config;
    dataset_config.train_size = 20;
    dataset_config.test_size = 1;
    dataset_config.image_size = substrate.budget.image_size;
    const aero::scene::AerialDataset dataset(dataset_config);
    const auto captions = aero::core::caption_split(
        dataset.train(), aero::text::SimulatedLlm::keypoint_aware(),
        aero::text::PromptTemplate::keypoint_aware(), rng);
    std::vector<aero::core::ConditionInput> inputs;
    for (std::size_t i = 0; i < dataset.train().size(); ++i) {
        const std::size_t target = i % 9 == 4 ? (i + 1) % 20 : i;
        inputs.push_back({&dataset.train()[i], &captions[i].text,
                          &captions[target].text});
    }

    // Every field of every sample, flattened into one tensor.
    const auto features = [&] {
        std::vector<Tensor> parts;
        for (const aero::core::ConditionFeatures& f :
             aero::core::compute_condition_features(substrate, inputs, true,
                                                    12)) {
            for (const Tensor* field :
                 {&f.image_tokens, &f.text_tokens, &f.clip_text,
                  &f.clip_image, &f.global_feature, &f.roi_features,
                  &f.label_embeddings}) {
                EXPECT_FALSE(field->empty());
                parts.push_back(field->reshaped({field->size()}));
            }
        }
        return ops::concat(parts, 0);
    };
    expect_thread_count_invariant("compute_condition_features", features);
    EXPECT_GT(chunks_per_call(features), 1);
}

TEST(Determinism, FullDdimSample) {
    aero::util::Rng build_rng(16);
    aero::diffusion::UNetConfig config;
    config.in_channels = 4;
    config.base_channels = 8;
    config.cond_dim = 8;
    config.heads = 2;
    config.time_dim = 8;
    config.groups = 2;
    const aero::diffusion::UNet unet(config, build_rng);
    const aero::diffusion::NoiseSchedule schedule({8, 0.001f, 0.012f, 8});
    aero::diffusion::DdimConfig ddim;
    ddim.inference_steps = 4;
    ddim.guidance_scale = 1.0f;
    const aero::diffusion::DdimSampler sampler(unet, schedule, ddim);
    expect_thread_count_invariant("ddim_sample", [&] {
        aero::util::Rng sample_rng(77);  // same noise every run
        return sampler.sample({4, 8, 8}, Tensor(), sample_rng);
    });
}

}  // namespace
