// Component microbenchmarks (google-benchmark): the cost centres of the
// pipeline -- tensor kernels, UNet denoising steps, the scene renderer,
// the samplers, the frozen condition features and the evaluation
// metrics.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/condition.hpp"
#include "diffusion/sampler.hpp"
#include "diffusion/trainer.hpp"
#include "metrics/metrics.hpp"
#include "nn/attention.hpp"
#include "scene/dataset.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace aero;
using aero::autograd::Var;
using aero::tensor::Tensor;

void BM_MatMul(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    util::Rng rng(1);
    const Tensor a = Tensor::randn({n, n}, rng);
    const Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::matmul(a, b));
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

enum class LinearGrad { kInput, kWeight };

/// One backward product of a Linear layer (`in` -> `out`) over the
/// condition graph's 60 text-token rows: the input gradient
/// matmul_nt(g, W) or the weight gradient matmul_tn(x, g). Items are
/// multiply-adds over wall time.
void BM_LinearBackward(benchmark::State& state, LinearGrad grad, int in,
                       int out) {
    const int rows = 60;
    util::Rng rng(10);
    const Tensor x = Tensor::randn({rows, in}, rng);
    const Tensor w = Tensor::randn({in, out}, rng);
    const Tensor g = Tensor::randn({rows, out}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(grad == LinearGrad::kInput
                                     ? tensor::matmul_nt(g, w)
                                     : tensor::matmul_tn(x, g));
    }
    state.SetItemsProcessed(state.iterations() * rows * in * out);
}
BENCHMARK_CAPTURE(BM_LinearBackward, matmul_nt_60x32x32, LinearGrad::kInput,
                  32, 32)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LinearBackward, matmul_tn_60x32x32, LinearGrad::kWeight,
                  32, 32)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LinearBackward, matmul_nt_60x64x32, LinearGrad::kInput,
                  64, 32)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LinearBackward, matmul_tn_60x64x32, LinearGrad::kWeight,
                  64, 32)
    ->UseRealTime();

void BM_Conv2d(benchmark::State& state) {
    const int size = static_cast<int>(state.range(0));
    util::Rng rng(2);
    const Tensor x = Tensor::randn({1, 16, size, size}, rng);
    const Tensor w = Tensor::randn({16, 16, 3, 3}, rng);
    const Tensor bias = Tensor::randn({16}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tensor::conv2d(x, w, bias, {1, 1}));
    }
    // Items are multiply-adds, so the rate reads as MAC/s. The pool runs
    // the kernel on several threads, so the conv rates use wall time.
    state.SetItemsProcessed(state.iterations() * 16 * 16 * 9 * size * size);
}
BENCHMARK(BM_Conv2d)->Arg(8)->Arg(16)->Arg(32)->UseRealTime();

enum class ConvKernel { kForward, kBackwardInput, kBackwardWeight };

/// The 12 convolutions of one UNet forward at the default UNetConfig
/// (in 4, base 24) on the 8x8 latent (diffusion/unet.cpp), each with
/// random operands at `rows` batch rows.
struct UNetConvStack {
    struct Conv {
        Tensor input, weight, bias, grad_out;
        tensor::Conv2dSpec spec;
    };
    std::vector<Conv> convs;
    std::int64_t macs = 0;

    explicit UNetConvStack(int rows) {
        const int in = 4;
        const int c = 24;
        const int full = 8;
        const int half = full / 2;
        struct Shape {
            int in_channels, out_channels, kernel, size;
        };
        const Shape shapes[] = {
            {in, c, 3, full},                                   // conv_in
            {c, c, 3, full},         {c, c, 3, full},           // down
            {c, 2 * c, 3, half},     {2 * c, 2 * c, 3, half},   // mid_in
            {c, 2 * c, 1, half},                                // its skip
            {2 * c, 2 * c, 3, half}, {2 * c, 2 * c, 3, half},   // mid_out
            {3 * c, c, 3, full},     {c, c, 3, full},           // up
            {3 * c, c, 1, full},                                // its skip
            {c, in, 3, full},                                   // conv_out
        };
        util::Rng rng(9);
        for (const Shape& s : shapes) {
            convs.push_back(
                {Tensor::randn({rows, s.in_channels, s.size, s.size}, rng),
                 Tensor::randn(
                     {s.out_channels, s.in_channels, s.kernel, s.kernel}, rng),
                 Tensor::randn({s.out_channels}, rng),
                 Tensor::randn({rows, s.out_channels, s.size, s.size}, rng),
                 {1, s.kernel / 2}});
            macs += std::int64_t{rows} * s.out_channels * s.size * s.size *
                    s.in_channels * s.kernel * s.kernel;
        }
    }
};

/// One pass of a conv kernel over every UNet convolution: the forward at
/// a 32-row serving step, the two backward kernels at a batch-6 training
/// step. Items are multiply-adds over wall time, so the rate reads as
/// MAC/s on however many threads the pool runs (AERO_THREADS=1 for the
/// per-core rate).
void BM_UNetConvStack(benchmark::State& state, ConvKernel kernel, int rows) {
    const UNetConvStack stack(rows);
    for (auto _ : state) {
        for (const UNetConvStack::Conv& conv : stack.convs) {
            switch (kernel) {
                case ConvKernel::kForward:
                    benchmark::DoNotOptimize(tensor::conv2d(
                        conv.input, conv.weight, conv.bias, conv.spec));
                    break;
                case ConvKernel::kBackwardInput:
                    benchmark::DoNotOptimize(tensor::conv2d_backward_input(
                        conv.grad_out, conv.weight, conv.input.shape(),
                        conv.spec));
                    break;
                case ConvKernel::kBackwardWeight:
                    benchmark::DoNotOptimize(tensor::conv2d_backward_weight(
                        conv.grad_out, conv.input, conv.weight.shape(),
                        conv.spec));
                    break;
            }
        }
    }
    state.SetItemsProcessed(state.iterations() * stack.macs);
}
BENCHMARK_CAPTURE(BM_UNetConvStack, forward_rows32, ConvKernel::kForward, 32)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_UNetConvStack, backward_input_batch6,
                  ConvKernel::kBackwardInput, 6)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_UNetConvStack, backward_weight_batch6,
                  ConvKernel::kBackwardWeight, 6)
    ->UseRealTime();

void BM_MultiHeadAttention(benchmark::State& state) {
    const int tokens = static_cast<int>(state.range(0));
    util::Rng rng(3);
    nn::MultiHeadAttention attn(32, 4, rng);
    const Var x = Var::constant(Tensor::randn({tokens, 32}, rng));
    for (auto _ : state) {
        benchmark::DoNotOptimize(attn.forward(x).value());
    }
}
BENCHMARK(BM_MultiHeadAttention)->Arg(16)->Arg(64);

void BM_SceneRender(benchmark::State& state) {
    const int size = static_cast<int>(state.range(0));
    util::Rng rng(4);
    const scene::Scene sc = scene::generate_random_scene(rng, 0);
    scene::RenderOptions options;
    options.image_size = size;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scene::render(sc, options));
    }
}
BENCHMARK(BM_SceneRender)->Arg(32)->Arg(64);

diffusion::UNetConfig micro_unet_config() {
    diffusion::UNetConfig config;
    config.in_channels = 4;
    config.base_channels = 24;
    config.cond_dim = 32;
    return config;
}

void BM_UNetDenoiseStep(benchmark::State& state) {
    util::Rng rng(5);
    diffusion::UNet unet(micro_unet_config(), rng);
    const Tensor z = Tensor::randn({4, 8, 8}, rng);
    const Tensor cond = Tensor::randn({3, 32}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(unet.denoise(z, 10, 64, cond));
    }
}
BENCHMARK(BM_UNetDenoiseStep);

void BM_UNetTrainStep(benchmark::State& state) {
    util::Rng rng(6);
    diffusion::UNet unet(micro_unet_config(), rng);
    const diffusion::NoiseSchedule schedule({64, 0.001f, 0.012f});
    std::vector<Tensor> latents{Tensor::randn({4, 8, 8}, rng)};
    std::vector<Tensor> conds{Tensor::randn({3, 32}, rng)};
    diffusion::DiffusionTrainConfig config;
    config.steps = 1;
    config.batch_size = 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            diffusion::train_diffusion(unet, schedule, latents, conds,
                                       config, rng));
    }
}
BENCHMARK(BM_UNetTrainStep);

void BM_DdimSample(benchmark::State& state) {
    util::Rng rng(7);
    diffusion::UNet unet(micro_unet_config(), rng);
    const diffusion::NoiseSchedule schedule({64, 0.001f, 0.012f});
    diffusion::DdimConfig config;
    config.inference_steps = static_cast<int>(state.range(0));
    const diffusion::DdimSampler sampler(unet, schedule, config);
    const Tensor cond = Tensor::randn({3, 32}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sampler.sample({4, 8, 8}, cond, rng));
    }
}
BENCHMARK(BM_DdimSample)->Arg(4)->Arg(10);

/// perfbench's substrate shapes at a 16-sample split: 32 px images, an
/// untrained detector (every scene yields the 12-ROI cap) and short
/// CLIP/autoencoder training.
struct ConditionBench {
    core::Budget budget = [] {
        core::Budget b;
        b.train_images = 16;
        b.ae_steps = 18;
        b.clip_steps = 18;
        b.detector_steps = 0;
        return b;
    }();
    scene::AerialDataset dataset{[this] {
        scene::DatasetConfig config;
        config.train_size = budget.train_images;
        config.test_size = 1;
        config.image_size = budget.image_size;
        return config;
    }()};
    util::Rng rng{2025};
    core::Substrate substrate = core::build_substrate(dataset, budget, rng);
};

/// compute_condition_features over Arg(0) samples per call: 1 is the
/// cache-miss path of generate(), 16 one full pass of fit()'s batched
/// call. Items are samples.
void BM_ConditionFeatures(benchmark::State& state) {
    static const ConditionBench bench;
    const auto count = static_cast<std::size_t>(state.range(0));
    const auto& split = bench.dataset.train();
    const auto& captions = bench.substrate.keypoint_train;
    std::vector<core::ConditionInput> inputs;
    for (std::size_t i = 0; i < count; ++i) {
        inputs.push_back({&split[i], &captions[i].text, &captions[i].text});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::compute_condition_features(
            bench.substrate, inputs, /*use_object_detection=*/true,
            /*max_rois=*/12));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ConditionFeatures)->Arg(1)->Arg(16)->UseRealTime();

/// The condition-encoder graph of one fit() step: six
/// ConditionEncoder::encode calls (BLIP fusion, region augmenter) and
/// one backward through all six, on synthetic features of perfbench's
/// shapes (60 text tokens, 16 image tokens, 12 ROIs, d = 32). Items are
/// samples.
void BM_ConditionEncoderGraph(benchmark::State& state) {
    const int samples = 6;
    util::Rng rng(11);
    const embed::EmbedConfig config;
    const int d = config.dim;
    core::ConditionEncoder encoder(config, /*use_blip_fusion=*/true,
                                   /*use_image_feature=*/true,
                                   /*use_region_augment=*/true, rng);
    std::vector<core::ConditionFeatures> features(samples);
    for (core::ConditionFeatures& f : features) {
        f.image_tokens = Tensor::randn({16, d}, rng);
        f.text_tokens = Tensor::randn({60, d}, rng);
        f.clip_text = Tensor::randn({1, d}, rng);
        f.clip_image = Tensor::randn({1, d}, rng);
        f.global_feature = Tensor::randn({1, d}, rng);
        f.roi_features = Tensor::randn({12, d}, rng);
        f.label_embeddings = Tensor::randn({12, d}, rng);
    }
    for (auto _ : state) {
        encoder.zero_grad();
        Var total = autograd::sum_all(encoder.encode(features[0]));
        for (int i = 1; i < samples; ++i) {
            total = autograd::add(
                total, autograd::sum_all(encoder.encode(features[i])));
        }
        total.backward();
        benchmark::DoNotOptimize(total.value());
    }
    state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_ConditionEncoderGraph)->UseRealTime();

void BM_FidComputation(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    util::Rng rng(8);
    const metrics::FeatureNet net;
    std::vector<image::Image> real;
    std::vector<image::Image> fake;
    for (int i = 0; i < n; ++i) {
        image::Image a(32, 32, {0.4f, 0.5f, 0.3f});
        image::Image b(32, 32, {0.45f, 0.45f, 0.35f});
        image::add_gaussian_noise(a, rng, 0.1f);
        image::add_gaussian_noise(b, rng, 0.1f);
        real.push_back(std::move(a));
        fake.push_back(std::move(b));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(metrics::fid(net, real, fake));
    }
}
BENCHMARK(BM_FidComputation)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
