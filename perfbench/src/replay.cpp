// The traced run's replay: a fixed sample of the workload's own inputs
// goes through the public functions of each layer, one bench-side span
// around each call. Kernel figures use the UNet's own convolution and
// attention shapes; bytes moved are computed from tensor sizes, not
// measured.

#include <cstdio>

#include "core/condition.hpp"
#include "diffusion/sampler.hpp"
#include "linalg/matrix.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct ConvShape {
    int in_channels;
    int out_channels;
    int kernel;
    int pad;
    int size;  ///< square spatial extent of input and output
};

/// Every convolution of one UNet forward (diffusion/unet.cpp), derived
/// from its config and the latent edge length.
std::vector<ConvShape> unet_convs(const diffusion::UNetConfig& config,
                                  int latent) {
    const int in = config.in_channels;
    const int c = config.base_channels;
    const int half = latent / 2;
    return {
        {in, c, 3, 1, latent},                                    // conv_in
        {c, c, 3, 1, latent},         {c, c, 3, 1, latent},       // down
        {c, 2 * c, 3, 1, half},       {2 * c, 2 * c, 3, 1, half}, // mid_in
        {c, 2 * c, 1, 0, half},                                   // its skip
        {2 * c, 2 * c, 3, 1, half},   {2 * c, 2 * c, 3, 1, half}, // mid_out
        {3 * c, c, 3, 1, latent},     {c, c, 3, 1, latent},       // up
        {3 * c, c, 1, 0, latent},                                 // its skip
        {c, in, 3, 1, latent},                                    // conv_out
    };
}

struct ConvSet {
    std::vector<tensor::Tensor> inputs;
    std::vector<tensor::Tensor> weights;
    std::vector<tensor::Tensor> biases;
    std::vector<tensor::Tensor> grads;
    double macs = 0.0;
    double bytes = 0.0;  ///< computed: input + weight + output floats
};

ConvSet make_conv_set(const std::vector<ConvShape>& shapes, int rows,
                      util::Rng& rng) {
    ConvSet set;
    for (const ConvShape& s : shapes) {
        set.inputs.push_back(
            tensor::Tensor::randn({rows, s.in_channels, s.size, s.size}, rng));
        set.weights.push_back(tensor::Tensor::randn(
            {s.out_channels, s.in_channels, s.kernel, s.kernel}, rng));
        set.biases.push_back(tensor::Tensor::randn({s.out_channels}, rng));
        set.grads.push_back(tensor::Tensor::randn(
            {rows, s.out_channels, s.size, s.size}, rng));
        const double out = static_cast<double>(rows) * s.out_channels *
                           s.size * s.size;
        set.macs += out * s.in_channels * s.kernel * s.kernel;
        set.bytes += 4.0 * (static_cast<double>(rows) * s.in_channels *
                                s.size * s.size +
                            static_cast<double>(s.out_channels) *
                                s.in_channels * s.kernel * s.kernel +
                            out);
    }
    return set;
}

double time_conv_set(const ConvSet& set, const std::vector<ConvShape>& shapes,
                     int reps, SpanLog& spans, const char* name) {
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < reps; ++r) {
        const ScopedSpan span(spans, name);
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            const tensor::Conv2dSpec spec{1, shapes[i].pad};
            tensor::conv2d(set.inputs[i], set.weights[i], set.biases[i], spec);
        }
    }
    return ms_between(start, Clock::now()) / 1000.0 / reps;
}

}  // namespace

void replay_layers(const Harness& harness,
                   const std::vector<SceneInput>& inputs, std::uint64_t seed,
                   Report* report) {
    SpanLog spans;
    const int root = spans.open("replay");
    util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 53);
    const core::Substrate& substrate = *harness.substrate;
    const core::AeroDiffusionPipeline& pipeline = *harness.pipeline;
    const diffusion::UNet& unet = pipeline.unet();
    const diffusion::NoiseSchedule& schedule = pipeline.noise_schedule();
    const diffusion::LatentAutoencoder& ae = *substrate.autoencoder;
    const int latent = ae.config().latent_size();
    const int channels = ae.config().latent_channels;
    const int steps = schedule.steps();

    // Condition path: features, detection, encoder.
    std::vector<core::ConditionFeatures> features;
    std::vector<tensor::Tensor> conds;
    for (const SceneInput& input : inputs) {
        {
            const ScopedSpan span(spans, "embed.compute_condition_features");
            features.push_back(core::compute_condition_features(
                substrate, input.sample, input.caption, input.caption,
                pipeline.config().use_object_detection,
                pipeline.config().max_rois));
        }
        {
            const ScopedSpan span(spans, "detect.detect");
            substrate.detector->detect(input.sample.image);
        }
        const ScopedSpan span(spans, "core.encode");
        conds.push_back(
            pipeline.condition_encoder().encode(features.back()).value());
    }

    // Denoiser: one classifier-free-guided request (2 rows) and a batch
    // of 16 (32 rows), the occupancy of the bulk_repeat batcher.
    for (const int rows : {2, 32}) {
        const char* name = rows == 2 ? "diffusion.unet_forward.rows2"
                                     : "diffusion.unet_forward.rows32";
        for (int r = 0; r < 3; ++r) {
            const tensor::Tensor z =
                tensor::Tensor::randn({rows, channels, latent, latent}, rng);
            std::vector<int> t(static_cast<std::size_t>(rows), steps / 2);
            std::vector<tensor::Tensor> c;
            for (int i = 0; i < rows; ++i) {
                c.push_back(i % 2 == 0 ? conds[static_cast<std::size_t>(
                                             (i / 2) % conds.size())]
                                       : tensor::Tensor());
            }
            const ScopedSpan span(spans, name);
            unet.forward(autograd::Var::constant(z), t, steps, c);
        }
    }

    // Sampler job, decode, encode.
    std::vector<tensor::Tensor> latents;
    for (const tensor::Tensor& cond : conds) {
        diffusion::SamplerJob job;
        job.kind = diffusion::SamplerJob::Kind::kSample;
        job.shape = {channels, latent, latent};
        job.condition_tokens = cond;
        job.config = ddim_config(harness);
        job.rng = &rng;
        const ScopedSpan span(spans, "diffusion.run_sampler_job");
        latents.push_back(
            diffusion::run_sampler_job(unet, schedule, std::move(job)));
    }
    for (const tensor::Tensor& z : latents) {
        const ScopedSpan span(spans, "diffusion.decode_latent");
        ae.decode_latent(tensor::scale(z, 1.0f / substrate.latent_scale));
    }
    std::vector<tensor::Tensor> sources;
    for (const SceneInput& input : inputs) {
        const ScopedSpan span(spans, "diffusion.encode_image");
        sources.push_back(tensor::scale(ae.encode_image(input.sample.image),
                                        substrate.latent_scale));
    }

    // Kernels at the UNet's own shapes.
    const std::vector<ConvShape> shapes = unet_convs(unet.config(), latent);
    const ConvSet conv2 = make_conv_set(shapes, 2, rng);
    const ConvSet conv32 = make_conv_set(shapes, 32, rng);
    const double conv2_s = time_conv_set(conv2, shapes, 8, spans,
                                         "tensor.conv2d.unet_rows2");
    const double conv32_s = time_conv_set(conv32, shapes, 2, spans,
                                          "tensor.conv2d.unet_rows32");
    // Cross-attention projection of 16 requests' bottleneck tokens.
    const int tokens = 32 * (latent / 2) * (latent / 2);
    const int width = 2 * unet.config().base_channels;
    const tensor::Tensor a = tensor::Tensor::randn({tokens, width}, rng);
    const tensor::Tensor b = tensor::Tensor::randn({width, width}, rng);
    linalg::Matrix la(static_cast<std::size_t>(tokens),
                      static_cast<std::size_t>(width));
    linalg::Matrix lb(static_cast<std::size_t>(width),
                      static_cast<std::size_t>(width));
    for (double& v : la.data()) v = rng.normal();
    for (double& v : lb.data()) v = rng.normal();
    const int matmul_reps = 20;
    Clock::time_point start = Clock::now();
    for (int r = 0; r < matmul_reps; ++r) {
        const ScopedSpan span(spans, "tensor.matmul.attn_proj");
        tensor::matmul(a, b);
    }
    const double tensor_mm_s =
        ms_between(start, Clock::now()) / 1000.0 / matmul_reps;
    start = Clock::now();
    for (int r = 0; r < matmul_reps; ++r) {
        const ScopedSpan span(spans, "linalg.matmul.attn_proj");
        const linalg::Matrix product = la * lb;
    }
    const double linalg_mm_s =
        ms_between(start, Clock::now()) / 1000.0 / matmul_reps;
    const double mm_macs = static_cast<double>(tokens) * width * width;
    const double mm_bytes =
        4.0 * (static_cast<double>(tokens) * width * 2 + width * width);

    // One replayed fit step, three times, on a bench-owned pipeline so
    // the serving pipeline's parameters stay untouched.
    util::Rng fit_rng(seed + 61);
    core::AeroDiffusionPipeline trainee(core::PipelineConfig::aero_diffusion(),
                                        substrate, fit_rng);
    std::vector<autograd::Var> params = trainee.unet().parameters();
    for (const autograd::Var& p : trainee.condition_encoder().parameters()) {
        params.push_back(p);
    }
    nn::Adam adam(params, {.lr = trainee.config().lr, .weight_decay = 1e-5f});
    const int batch = harness.budget.batch_size;
    for (int step = 0; step < 3; ++step) {
        std::vector<tensor::Tensor> noisy;
        std::vector<tensor::Tensor> target;
        std::vector<int> timesteps;
        for (int i = 0; i < batch; ++i) {
            const tensor::Tensor& z0 =
                sources[static_cast<std::size_t>(i) % sources.size()];
            const int t = fit_rng.uniform_int(0, steps - 1);
            const tensor::Tensor eps =
                tensor::Tensor::randn(z0.shape(), fit_rng);
            noisy.push_back(schedule.q_sample(z0, t, eps).reshaped(
                {1, channels, latent, latent}));
            target.push_back(schedule.training_target(
                z0, eps, t, trainee.config().parameterization));
            timesteps.push_back(t);
        }
        adam.zero_grad();
        std::vector<autograd::Var> cond_vars;
        {
            const ScopedSpan span(spans, "core.train_encode");
            for (int i = 0; i < batch; ++i) {
                cond_vars.push_back(trainee.condition_encoder().encode(
                    features[static_cast<std::size_t>(i) % features.size()]));
            }
        }
        autograd::Var loss;
        {
            const ScopedSpan span(spans, "diffusion.train_forward");
            const autograd::Var pred = trainee.unet().forward(
                autograd::Var::constant(tensor::concat(noisy, 0)), timesteps,
                steps, cond_vars);
            loss = autograd::mse_loss(
                pred, autograd::Var::constant(
                          tensor::concat(target, 0).reshaped(
                              {batch, channels, latent, latent})));
        }
        {
            const ScopedSpan span(spans, "autograd.backward");
            loss.backward();
        }
        const ScopedSpan span(spans, "nn.adam_step");
        adam.clip_grad_norm(trainee.config().grad_clip);
        adam.step();
    }
    const ConvSet conv_train = make_conv_set(shapes, batch, rng);
    for (int r = 0; r < 3; ++r) {
        const ScopedSpan span(spans, "tensor.conv2d_backward.unet_batch");
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            const tensor::Conv2dSpec spec{1, shapes[i].pad};
            tensor::conv2d_backward_input(conv_train.grads[i],
                                          conv_train.weights[i],
                                          conv_train.inputs[i].shape(), spec);
            tensor::conv2d_backward_weight(conv_train.grads[i],
                                           conv_train.inputs[i],
                                           conv_train.weights[i].shape(),
                                           spec);
        }
    }

    report->add("embed.condition_features_ms",
                spans.median_ms("embed.compute_condition_features"), "ms");
    report->add("detect.detect_ms", spans.median_ms("detect.detect"), "ms");
    report->add("core.encode_ms", spans.median_ms("core.encode"), "ms");
    const double rows2 = spans.median_ms("diffusion.unet_forward.rows2");
    const double rows32 = spans.median_ms("diffusion.unet_forward.rows32");
    report->add("diffusion.unet_forward_ms.rows2", rows2, "ms");
    report->add("diffusion.unet_forward_ms.rows32", rows32, "ms");
    report->add("diffusion.unet_forward.row_cost_ratio",
                rows2 > 0.0 ? (rows32 / 32.0) / (rows2 / 2.0) : 0.0, "ratio");
    report->add("diffusion.sampler_job_ms",
                spans.median_ms("diffusion.run_sampler_job"), "ms");
    report->add("diffusion.decode_ms",
                spans.median_ms("diffusion.decode_latent"), "ms");
    report->add("diffusion.encode_ms",
                spans.median_ms("diffusion.encode_image"), "ms");
    report->add("tensor.conv2d_gmacs", conv2.macs / conv2_s / 1e9, "GMAC/s");
    report->add("tensor.conv2d_gmacs.rows32", conv32.macs / conv32_s / 1e9,
                "GMAC/s");
    report->add("tensor.conv2d_computed_gbps", conv32.bytes / conv32_s / 1e9,
                "GB/s");
    report->add("tensor.matmul_gmacs", mm_macs / tensor_mm_s / 1e9, "GMAC/s");
    report->add("tensor.matmul_computed_gbps", mm_bytes / tensor_mm_s / 1e9,
                "GB/s");
    report->add("linalg.matmul_gmacs", mm_macs / linalg_mm_s / 1e9, "GMAC/s");
    report->add("diffusion.train_forward_ms",
                spans.median_ms("diffusion.train_forward"), "ms");
    report->add("autograd.backward_ms", spans.median_ms("autograd.backward"),
                "ms");
    report->add("nn.adam_step_ms", spans.median_ms("nn.adam_step"), "ms");
    report->add("tensor.conv2d_backward_ms",
                spans.median_ms("tensor.conv2d_backward.unet_batch"), "ms");
    report->add("trace.replay_inputs", static_cast<double>(inputs.size()),
                "count");
    spans.close(root);
    spans.print_table();
}

}  // namespace perfbench
