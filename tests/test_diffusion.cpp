#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <utility>

#include "diffusion/autoencoder.hpp"
#include "diffusion/sampler.hpp"
#include "diffusion/schedule.hpp"
#include "diffusion/sentinel.hpp"
#include "diffusion/trainer.hpp"
#include "diffusion/unet.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace aero::diffusion;
using aero::autograd::Var;
using aero::tensor::Tensor;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

TEST(Schedule, MonotoneBetaAndDecayingAlphaBar) {
    // reference_steps == steps: betas are exactly the configured range.
    const NoiseSchedule schedule({64, 0.001f, 0.012f, 64});
    EXPECT_EQ(schedule.steps(), 64);
    for (int t = 1; t < schedule.steps(); ++t) {
        EXPECT_GT(schedule.beta(t), schedule.beta(t - 1));
        EXPECT_LT(schedule.alpha_bar(t), schedule.alpha_bar(t - 1));
    }
    EXPECT_NEAR(schedule.beta(0), 0.001f, 1e-6f);
    EXPECT_NEAR(schedule.beta(schedule.steps() - 1), 0.012f, 1e-6f);
    EXPECT_GT(schedule.alpha_bar(schedule.steps() - 1), 0.0f);
    EXPECT_LT(schedule.alpha_bar(schedule.steps() - 1), 1.0f);
}

TEST(Schedule, ShortScheduleStillReachesNoise) {
    // A shortened schedule rescales betas so the terminal state is (near)
    // pure noise -- otherwise DDIM would start off-distribution.
    const NoiseSchedule short_schedule({64, 0.001f, 0.012f});  // ref 1000
    EXPECT_LT(short_schedule.alpha_bar(63), 0.05f);
    const NoiseSchedule paper(ScheduleConfig::paper());
    EXPECT_LT(paper.alpha_bar(999), 0.05f);
    // And the paper discretisation keeps its exact betas.
    EXPECT_NEAR(paper.beta(0), 0.001f, 1e-6f);
    EXPECT_NEAR(paper.beta(999), 0.012f, 1e-6f);
}

TEST(Schedule, PaperConfiguration) {
    const ScheduleConfig paper = ScheduleConfig::paper();
    EXPECT_EQ(paper.steps, 1000);
    EXPECT_FLOAT_EQ(paper.beta_start, 0.001f);
    EXPECT_FLOAT_EQ(paper.beta_end, 0.012f);
}

TEST(Schedule, QSampleMixesSignalAndNoise) {
    const NoiseSchedule schedule({64, 0.001f, 0.012f});
    const Tensor z0 = Tensor::full({2, 2}, 1.0f);
    const Tensor eps = Tensor::full({2, 2}, -1.0f);
    // At t=0 mostly signal.
    const Tensor early = schedule.q_sample(z0, 0, eps);
    EXPECT_GT(early[0], 0.8f);
    // At the last step mostly noise.
    const Tensor late = schedule.q_sample(z0, 63, eps);
    EXPECT_LT(late[0], early[0]);
}

TEST(Schedule, PredictZ0InvertsQSample) {
    aero::util::Rng rng(1);
    const NoiseSchedule schedule({32, 0.001f, 0.012f});
    const Tensor z0 = Tensor::randn({3, 4, 4}, rng);
    const Tensor eps = Tensor::randn({3, 4, 4}, rng);
    const int t = 17;
    const Tensor zt = schedule.q_sample(z0, t, eps);
    const Tensor recovered = schedule.predict_z0(zt, t, eps);
    for (int i = 0; i < z0.size(); ++i) {
        EXPECT_NEAR(recovered[i], z0[i], 1e-4f);
    }
}

// Parameterized sweep: schedule invariants must hold for any step count,
// including the paper's T=1000 and aggressive short schedules.
class ScheduleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleSweep, TerminalStateIsNearNoise) {
    const NoiseSchedule schedule({GetParam(), 0.001f, 0.012f, 1000});
    EXPECT_LT(schedule.alpha_bar(schedule.steps() - 1), 0.06f);
    EXPECT_GT(schedule.alpha_bar(0), 0.5f);
}

TEST_P(ScheduleSweep, BetasAreValidProbabilities) {
    const NoiseSchedule schedule({GetParam(), 0.001f, 0.012f, 1000});
    for (int t = 0; t < schedule.steps(); ++t) {
        EXPECT_GT(schedule.beta(t), 0.0f);
        EXPECT_LT(schedule.beta(t), 0.5f);
        EXPECT_NEAR(schedule.alpha(t), 1.0f - schedule.beta(t), 1e-7f);
    }
}

TEST_P(ScheduleSweep, ParameterizationConversionsInvert) {
    const NoiseSchedule schedule({GetParam(), 0.001f, 0.012f, 1000});
    aero::util::Rng rng(31 + GetParam());
    const Tensor z0 = Tensor::randn({2, 3, 3}, rng);
    const Tensor eps = Tensor::randn({2, 3, 3}, rng);
    for (int t : {0, schedule.steps() / 2, schedule.steps() - 1}) {
        const Tensor zt = schedule.q_sample(z0, t, eps);
        for (auto param : {Parameterization::kEpsilon, Parameterization::kV}) {
            const Tensor target = schedule.training_target(z0, eps, t, param);
            const Tensor eps_back = schedule.to_epsilon(target, zt, t, param);
            const Tensor z0_back = schedule.to_z0(target, zt, t, param);
            for (int i = 0; i < z0.size(); ++i) {
                EXPECT_NEAR(eps_back[i], eps[i], 1e-3f)
                    << "t=" << t << " param=" << static_cast<int>(param);
                EXPECT_NEAR(z0_back[i], z0[i], 1e-3f)
                    << "t=" << t << " param=" << static_cast<int>(param);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(StepCounts, ScheduleSweep,
                         ::testing::Values(8, 16, 64, 250, 1000));

UNetConfig tiny_unet_config() {
    UNetConfig config;
    config.in_channels = 4;
    config.base_channels = 8;
    config.cond_dim = 8;
    config.heads = 2;
    config.time_dim = 8;
    config.groups = 2;
    return config;
}

TEST(TimeEmbeddingTest, DistinctStepsDistinctEmbeddings) {
    aero::util::Rng rng(2);
    TimeEmbedding emb(16, rng);
    const Var e = emb.forward({0, 10, 63}, 64);
    EXPECT_EQ(e.value().dim(0), 3);
    float diff = 0.0f;
    for (int j = 0; j < 16; ++j) {
        diff += std::abs(e.value()[0 * 16 + j] - e.value()[2 * 16 + j]);
    }
    EXPECT_GT(diff, 1e-3f);
}

TEST(UNetTest, ForwardPreservesShape) {
    aero::util::Rng rng(3);
    UNet unet(tiny_unet_config(), rng);
    const Var z = Var::constant(Tensor::randn({2, 4, 8, 8}, rng));
    const Tensor cond = Tensor::randn({3, 8}, rng);
    const Var out = unet.forward(z, {5, 20}, 64, {cond, Tensor()});
    EXPECT_EQ(out.value().dim(0), 2);
    EXPECT_EQ(out.value().dim(1), 4);
    EXPECT_EQ(out.value().dim(2), 8);
    EXPECT_EQ(out.value().dim(3), 8);
}

TEST(UNetTest, ConditionChangesOutput) {
    aero::util::Rng rng(4);
    UNet unet(tiny_unet_config(), rng);
    const Tensor z = Tensor::randn({4, 8, 8}, rng);
    const Tensor cond_a = Tensor::randn({2, 8}, rng);
    const Tensor cond_b = Tensor::randn({2, 8}, rng);
    const Tensor out_a = unet.denoise(z, 10, 64, cond_a);
    const Tensor out_b = unet.denoise(z, 10, 64, cond_b);
    const Tensor out_null = unet.denoise(z, 10, 64, Tensor());
    float diff_ab = 0.0f;
    float diff_an = 0.0f;
    for (int i = 0; i < out_a.size(); ++i) {
        diff_ab += std::abs(out_a[i] - out_b[i]);
        diff_an += std::abs(out_a[i] - out_null[i]);
    }
    EXPECT_GT(diff_ab, 1e-4f);
    EXPECT_GT(diff_an, 1e-4f);
}

TEST(UNetTest, TimestepChangesOutput) {
    aero::util::Rng rng(5);
    UNet unet(tiny_unet_config(), rng);
    const Tensor z = Tensor::randn({4, 8, 8}, rng);
    const Tensor a = unet.denoise(z, 1, 64, Tensor());
    const Tensor b = unet.denoise(z, 60, 64, Tensor());
    float diff = 0.0f;
    for (int i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
    EXPECT_GT(diff, 1e-4f);
}

TEST(UNetTest, GradientsReachEveryParameter) {
    aero::util::Rng rng(6);
    UNet unet(tiny_unet_config(), rng);
    const Var z = Var::constant(Tensor::randn({2, 4, 8, 8}, rng));
    const Tensor cond = Tensor::randn({2, 8}, rng);
    // One conditioned and one null-token sample so every branch
    // (including the learned null token) participates.
    aero::autograd::mean_all(unet.forward(z, {7, 12}, 64, {cond, Tensor()}))
        .backward();
    int with_grad = 0;
    int total = 0;
    for (const Var& p : unet.parameters()) {
        ++total;
        if (!p.grad().empty()) ++with_grad;
    }
    // Everything except possibly unused branches must receive gradient.
    EXPECT_EQ(with_grad, total);
}

// ---- batch-wide cross-attention reference ----------------------------------

namespace ag = aero::autograd;

/// The UNet forward as it was before the bottleneck cross-attention ran
/// batch-wide, rebuilt from a UNet's own parameters (registration order:
/// the null token, then each child depth-first). reference_attend is the
/// deleted per-sample loop, and reference_cross_attention the per-head
/// graph nn::MultiHeadAttention built before the fused op.
class ReferenceUNet {
public:
    explicit ReferenceUNet(const UNet& unet)
        : config_(unet.config()), p_(unet.parameters()) {
        const int c = config_.base_channels;
        null_token_ = next();
        time_fc1_ = linear();
        time_fc2_ = linear();
        cond_pool_proj_ = linear();
        conv_in_ = conv();
        down_ = res_block(c, c);
        mid_in_ = res_block(c, 2 * c);
        cond_proj_ = linear();
        attn_norm_ = {next(), next()};
        wq_ = linear();
        wk_ = linear();
        wv_ = linear();
        wo_ = linear();
        mid_out_ = res_block(2 * c, 2 * c);
        up_ = res_block(3 * c, c);
        norm_out_ = {next(), next()};
        conv_out_ = conv();
        EXPECT_EQ(cursor_, p_.size());
    }

    Var forward(const Var& z, const std::vector<int>& t, int total_steps,
                const std::vector<Tensor>& condition_tokens) const {
        const int n = z.value().dim(0);
        std::vector<Var> conds;
        for (const Tensor& tokens : condition_tokens) {
            conds.push_back(tokens.empty() ? Var() : Var::constant(tokens));
        }
        Var temb = time_embedding(t, total_steps);
        std::vector<Var> pooled_rows;
        for (int i = 0; i < n; ++i) {
            const Var& tokens = conds[static_cast<std::size_t>(i)];
            const Var source = tokens.defined() ? tokens : null_token_;
            const int k = source.value().dim(0);
            Tensor averaging({1, k});
            for (int j = 0; j < k; ++j) {
                averaging[j] = 1.0f / static_cast<float>(k);
            }
            pooled_rows.push_back(
                ag::matmul(Var::constant(std::move(averaging)), source));
        }
        const Var pooled =
            n == 1 ? pooled_rows.front() : ag::concat(pooled_rows, 0);
        temb = ag::add(temb, cond_pool_proj_.forward(pooled));

        Var h = conv_in_.forward(z);
        const Var skip = down_.forward(h, temb, config_.groups);
        Var mid = ag::avg_pool2x(skip);
        mid = mid_in_.forward(mid, temb, config_.groups);
        std::vector<Var> attended;
        for (int i = 0; i < n; ++i) {
            attended.push_back(reference_attend(
                ag::slice(mid, 0, i, i + 1), conds[static_cast<std::size_t>(i)]));
        }
        mid = n == 1 ? attended.front() : ag::concat(attended, 0);
        mid = mid_out_.forward(mid, temb, config_.groups);
        Var up = ag::upsample_nearest2x(mid);
        up = ag::concat({up, skip}, 1);
        up = up_.forward(up, temb, config_.groups);
        return conv_out_.forward(ag::silu(ag::group_norm(
            up, config_.groups, norm_out_.gamma, norm_out_.beta)));
    }

    /// The cross-attention's wo weight and bias (shared with the UNet).
    std::vector<Var> output_projection() const { return {wo_.w, wo_.b}; }

private:
    struct Linear {
        Var w, b;
        Var forward(const Var& x) const {
            return ag::add_row_bias(ag::matmul(x, w), b);
        }
    };
    struct Conv {
        Var w, b;
        Var forward(const Var& x) const {
            return ag::conv2d(x, w, b, {1, 1});
        }
    };
    struct Norm {
        Var gamma, beta;
    };
    struct ResBlock {
        Norm norm1;
        Conv conv1;
        Linear time_proj;
        Norm norm2;
        Conv conv2;
        Var skip;  ///< 1x1 projection, undefined when in == out
        Var forward(const Var& x, const Var& temb, int groups) const {
            Var h = conv1.forward(ag::silu(
                ag::group_norm(x, groups, norm1.gamma, norm1.beta)));
            h = ag::add_spatial_bias(h, time_proj.forward(temb));
            h = conv2.forward(ag::silu(
                ag::group_norm(h, groups, norm2.gamma, norm2.beta)));
            const Var shortcut =
                skip.defined() ? ag::conv2d(x, skip, Var(), {1, 0}) : x;
            return ag::add(h, shortcut);
        }
    };

    Var next() { return p_[cursor_++]; }
    Linear linear() { return {next(), next()}; }
    Conv conv() { return {next(), next()}; }
    ResBlock res_block(int in, int out) {
        ResBlock block{{next(), next()}, conv(), linear(),
                       {next(), next()}, conv(), Var()};
        if (in != out) block.skip = next();
        return block;
    }

    Var time_embedding(const std::vector<int>& t, int total_steps) const {
        const int n = static_cast<int>(t.size());
        const int dim = config_.time_dim;
        const int half = dim / 2;
        Tensor features({n, dim});
        for (int i = 0; i < n; ++i) {
            const float pos =
                static_cast<float>(t[static_cast<std::size_t>(i)]) /
                static_cast<float>(total_steps);
            for (int k = 0; k < half; ++k) {
                const float freq =
                    std::pow(10000.0f, -static_cast<float>(k) /
                                           static_cast<float>(half));
                const float angle =
                    pos * freq * 2.0f * std::numbers::pi_v<float> * 50.0f;
                features[i * dim + k] = std::sin(angle);
                features[i * dim + half + k] = std::cos(angle);
            }
        }
        return time_fc2_.forward(
            ag::silu(time_fc1_.forward(Var::constant(features))));
    }

    Var reference_cross_attention(const Var& query,
                                  const Var& context) const {
        const Var q = wq_.forward(query);
        const Var k = wk_.forward(context);
        const Var v = wv_.forward(context);
        const int head_dim = q.value().dim(1) / config_.heads;
        const float inv_sqrt_dk =
            1.0f / std::sqrt(static_cast<float>(head_dim));
        std::vector<Var> head_outputs;
        for (int h = 0; h < config_.heads; ++h) {
            const int lo = h * head_dim;
            const int hi = lo + head_dim;
            const Var scores = ag::scale(
                ag::matmul(ag::slice(q, 1, lo, hi),
                           ag::transpose2d(ag::slice(k, 1, lo, hi))),
                inv_sqrt_dk);
            head_outputs.push_back(ag::matmul(ag::softmax_rows(scores),
                                              ag::slice(v, 1, lo, hi)));
        }
        return wo_.forward(ag::concat(head_outputs, 1));
    }

    Var reference_attend(const Var& features,
                         const Var& condition_tokens) const {
        // features: [1, 2C, h, w] for ONE sample.
        const int channels = features.value().dim(1);
        const int tokens = features.value().dim(2) * features.value().dim(3);
        const Var context = condition_tokens.defined()
                                ? cond_proj_.forward(condition_tokens)
                                : cond_proj_.forward(null_token_);
        const Var seq = ag::transpose2d(
            ag::reshape(features, {channels, tokens}));  // [T, 2C]
        const Var attended = ag::add(
            seq, reference_cross_attention(
                     ag::layer_norm_rows(seq, attn_norm_.gamma,
                                         attn_norm_.beta),
                     context));
        return ag::reshape(ag::transpose2d(attended),
                           {1, channels, features.value().dim(2),
                            features.value().dim(3)});
    }

    UNetConfig config_;
    std::vector<Var> p_;
    std::size_t cursor_ = 0;
    Var null_token_;
    Linear time_fc1_, time_fc2_, cond_pool_proj_;
    Conv conv_in_;
    ResBlock down_, mid_in_;
    Linear cond_proj_;
    Norm attn_norm_;
    Linear wq_, wk_, wv_, wo_;
    ResBlock mid_out_, up_;
    Norm norm_out_;
    Conv conv_out_;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<std::size_t>(a.size())) ==
               0;
}

TEST(UNetTest, BatchWideCrossAttentionMatchesPerSampleReference) {
    // 32 rows mixing conditional rows of 1, 7, 14 and 30 tokens with
    // unconditional (null-token) rows. Every weight is perturbed: the
    // zero-initialised output projection would otherwise make the
    // cross-attention a no-op that no comparison could see.
    aero::util::Rng rng(31);
    const UNetConfig config;  // the pipeline's denoiser shape
    UNet unet(config, rng);
    for (Var p : unet.parameters()) {
        for (float& x : p.mutable_value()) {
            x += 0.05f * static_cast<float>(rng.normal());
        }
    }
    constexpr int kRows = 32;
    const int token_counts[] = {1, 7, 14, 30, 0};  // 0: unconditional
    const Tensor z = Tensor::randn({kRows, config.in_channels, 8, 8}, rng);
    std::vector<int> t;
    std::vector<Tensor> conds;
    for (int i = 0; i < kRows; ++i) {
        t.push_back((i * 7) % 64);
        const int k = token_counts[i % 5];
        conds.push_back(k == 0 ? Tensor()
                               : Tensor::randn({k, config.cond_dim}, rng));
    }

    const ReferenceUNet reference_unet(unet);
    const Tensor reference =
        reference_unet.forward(Var::constant(z), t, 64, conds).value();

    aero::util::ThreadPool& pool = aero::util::ThreadPool::instance();
    for (const int threads : {1, 2, 7}) {
        pool.resize(threads);
        for (const bool guarded : {false, true}) {
            Tensor out;
            if (guarded) {
                const aero::autograd::NoGradGuard no_grad;
                out = unet.forward(Var::constant(z), t, 64, conds).value();
            } else {
                out = unet.forward(Var::constant(z), t, 64, conds).value();
            }
            EXPECT_TRUE(bitwise_equal(out, reference))
                << threads << " threads, guard " << guarded;
        }
    }
    pool.resize(aero::util::ThreadPool::default_threads());

    // The comparison can see the attention: with its output projection
    // zeroed (the initial state) the same forward gives other bits.
    for (Var p : reference_unet.output_projection()) {
        for (float& x : p.mutable_value()) x = 0.0f;
    }
    EXPECT_FALSE(bitwise_equal(
        unet.forward(Var::constant(z), t, 64, conds).value(), reference));
}

TEST(Trainer, LossDecreasesOnToyData) {
    aero::util::Rng rng(7);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({16, 0.001f, 0.012f});
    // Toy dataset: two fixed latents with distinct conditions.
    std::vector<Tensor> latents;
    std::vector<Tensor> conds;
    latents.push_back(Tensor::full({4, 8, 8}, 0.5f));
    latents.push_back(Tensor::full({4, 8, 8}, -0.5f));
    conds.push_back(Tensor::full({1, 8}, 1.0f));
    conds.push_back(Tensor::full({1, 8}, -1.0f));

    DiffusionTrainConfig config;
    config.steps = 60;
    config.batch_size = 2;
    config.lr = 3e-3f;
    const DiffusionTrainStats stats =
        train_diffusion(unet, schedule, latents, conds, config, rng);
    EXPECT_LT(stats.tail_loss, stats.first_loss);
}

// ---- divergence sentinel ----------------------------------------------------

SentinelConfig tight_sentinel() {
    SentinelConfig config;
    config.snapshot_interval = 1;
    config.warmup_steps = 4;
    config.spike_factor = 10.0f;
    config.max_rollbacks = 2;
    return config;
}

TEST(Sentinel, NanLossRollsBackParamsAndReducesLr) {
    Var x = Var::param(Tensor::from_values({1.0f, 2.0f}));
    aero::nn::Adam opt({x}, {.lr = 0.1f});
    DivergenceSentinel sentinel({x}, opt, tight_sentinel());

    EXPECT_EQ(sentinel.observe(0, 1.0f, 1.0f),
              DivergenceSentinel::Action::kProceed);
    // Simulate the optimizer poisoning the weights after a good step.
    x.mutable_value()[0] = 77.0f;
    EXPECT_EQ(sentinel.observe(1, kNan, 1.0f),
              DivergenceSentinel::Action::kRollback);
    EXPECT_FLOAT_EQ(x.value()[0], 1.0f);  // restored to last snapshot
    EXPECT_FLOAT_EQ(x.value()[1], 2.0f);
    EXPECT_FLOAT_EQ(opt.config().lr, 0.05f);
    EXPECT_EQ(sentinel.nan_events(), 1);
    EXPECT_EQ(sentinel.rollbacks(), 1);
    EXPECT_FALSE(sentinel.diverged());
}

TEST(Sentinel, NeverSnapshotsNonFiniteParameters) {
    // A poisoned weight can leave the loss finite for a while (e.g. the
    // null-condition token only enters CFG-dropped batches). The
    // snapshot refresh must not capture it, or rollback would restore
    // the corruption.
    Var x = Var::param(Tensor::from_values({1.0f, 2.0f}));
    aero::nn::Adam opt({x}, {.lr = 0.1f});
    DivergenceSentinel sentinel({x}, opt, tight_sentinel());  // interval 1

    x.mutable_value()[1] = kNan;  // asymptomatic corruption
    EXPECT_EQ(sentinel.observe(0, 1.0f, 1.0f),  // finite loss: "healthy"
              DivergenceSentinel::Action::kProceed);
    EXPECT_EQ(sentinel.observe(1, kNan, 1.0f),  // now it surfaces
              DivergenceSentinel::Action::kRollback);
    EXPECT_FLOAT_EQ(x.value()[0], 1.0f);  // pre-poison state restored
    EXPECT_FLOAT_EQ(x.value()[1], 2.0f);
}

TEST(Sentinel, InfiniteGradientNormAlsoTriggersRollback) {
    Var x = Var::param(Tensor::from_values({1.0f}));
    aero::nn::Adam opt({x}, {});
    DivergenceSentinel sentinel({x}, opt, tight_sentinel());
    EXPECT_EQ(sentinel.observe(0, 0.5f,
                               std::numeric_limits<float>::infinity()),
              DivergenceSentinel::Action::kRollback);
    EXPECT_EQ(sentinel.nan_events(), 1);
}

TEST(Sentinel, ExhaustedRollbackBudgetDeclaresDivergence) {
    Var x = Var::param(Tensor::from_values({1.0f}));
    aero::nn::Adam opt({x}, {});
    DivergenceSentinel sentinel({x}, opt, tight_sentinel());  // budget 2
    EXPECT_EQ(sentinel.observe(0, kNan, 1.0f),
              DivergenceSentinel::Action::kRollback);
    EXPECT_EQ(sentinel.observe(1, kNan, 1.0f),
              DivergenceSentinel::Action::kRollback);
    EXPECT_EQ(sentinel.observe(2, kNan, 1.0f),
              DivergenceSentinel::Action::kAbort);
    EXPECT_TRUE(sentinel.diverged());
    EXPECT_EQ(sentinel.rollbacks(), 2);
    EXPECT_EQ(sentinel.nan_events(), 3);
}

TEST(Sentinel, LossSpikeDetectedAfterWarmupOnly) {
    Var x = Var::param(Tensor::from_values({1.0f}));
    aero::nn::Adam opt({x}, {});
    DivergenceSentinel sentinel({x}, opt, tight_sentinel());
    // During warmup even a huge loss passes (the EMA is still priming).
    EXPECT_EQ(sentinel.observe(0, 1.0f, 1.0f),
              DivergenceSentinel::Action::kProceed);
    EXPECT_EQ(sentinel.observe(1, 100.0f, 1.0f),
              DivergenceSentinel::Action::kProceed);
    // Settle the EMA past warmup, then spike.
    int step = 2;
    for (; step < 10; ++step) {
        ASSERT_EQ(sentinel.observe(step, 1.0f, 1.0f),
                  DivergenceSentinel::Action::kProceed);
    }
    EXPECT_EQ(sentinel.observe(step, 10.0f * sentinel.smoothed_loss() * 2.0f,
                               1.0f),
              DivergenceSentinel::Action::kRollback);
    EXPECT_EQ(sentinel.spike_events(), 1);
    EXPECT_EQ(sentinel.nan_events(), 0);
}

TEST(Sentinel, DisabledSentinelNeverIntervenes) {
    Var x = Var::param(Tensor::from_values({1.0f}));
    aero::nn::Adam opt({x}, {.lr = 0.1f});
    SentinelConfig config;
    config.enabled = false;
    DivergenceSentinel sentinel({x}, opt, config);
    EXPECT_EQ(sentinel.observe(0, kNan, kNan),
              DivergenceSentinel::Action::kProceed);
    EXPECT_EQ(sentinel.rollbacks(), 0);
    EXPECT_FLOAT_EQ(opt.config().lr, 0.1f);
}

// ---- fault-injected training ------------------------------------------------

/// Toy training run shared by the recovery tests: fixed data, seeded
/// RNG, tight sentinel. `injector` may be null for the clean baseline.
DiffusionTrainStats run_toy_training(std::uint64_t seed,
                                     aero::util::FaultInjector* injector,
                                     int steps = 80) {
    aero::util::Rng rng(seed);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({16, 0.001f, 0.012f});
    std::vector<Tensor> latents;
    std::vector<Tensor> conds;
    latents.push_back(Tensor::full({4, 8, 8}, 0.5f));
    latents.push_back(Tensor::full({4, 8, 8}, -0.5f));
    conds.push_back(Tensor::full({1, 8}, 1.0f));
    conds.push_back(Tensor::full({1, 8}, -1.0f));

    DiffusionTrainConfig config;
    config.steps = steps;
    config.batch_size = 2;
    config.lr = 3e-3f;
    config.sentinel.snapshot_interval = 4;
    config.sentinel.lr_decay = 0.7f;
    config.fault_injector = injector;
    return train_diffusion(unet, schedule, latents, conds, config, rng);
}

TEST(Trainer, NanInjectionTriggersRollbackAndRecoversWithinBand) {
    // Acceptance criterion: a NaN poked into the weights at step k rolls
    // back, training completes, and the tail loss lands within 20% of an
    // uninjected run with the same seed.
    const DiffusionTrainStats clean = run_toy_training(7, nullptr);
    ASSERT_FALSE(clean.diverged);
    ASSERT_EQ(clean.rollbacks, 0);

    aero::util::FaultInjector injector(1);
    injector.arm_nan(20, "param");
    const DiffusionTrainStats faulted = run_toy_training(7, &injector);
    EXPECT_EQ(injector.injected_count(), 1);
    EXPECT_GE(faulted.nan_events, 1);
    EXPECT_GE(faulted.rollbacks, 1);
    EXPECT_FALSE(faulted.diverged);
    EXPECT_LT(faulted.tail_loss, faulted.first_loss);
    EXPECT_NEAR(faulted.tail_loss, clean.tail_loss,
                0.2f * clean.tail_loss);
}

TEST(Trainer, GradientAndLossInjectionBothCaught) {
    aero::util::FaultInjector injector(2);
    injector.arm_nan(15, "grad");
    injector.arm_nan(30, "loss");
    const DiffusionTrainStats stats = run_toy_training(9, &injector);
    EXPECT_EQ(injector.injected_count(), 2);
    EXPECT_EQ(stats.nan_events, 2);
    EXPECT_EQ(stats.rollbacks, 2);
    EXPECT_FALSE(stats.diverged);
    EXPECT_TRUE(std::isfinite(stats.tail_loss));
}

TEST(Trainer, ForcedLossSpikeRollsBack) {
    aero::util::FaultInjector injector(3);
    injector.arm_spike(40, 100.0f);
    const DiffusionTrainStats stats = run_toy_training(11, &injector);
    EXPECT_EQ(injector.injected_count(), 1);
    EXPECT_EQ(stats.nan_events, 0);
    EXPECT_EQ(stats.rollbacks, 1);
    EXPECT_FALSE(stats.diverged);
}

TEST(Trainer, PersistentPoisoningDeclaresDivergence) {
    aero::util::FaultInjector injector(4);
    // More consecutive NaN losses than the rollback budget allows.
    for (int step = 10; step < 20; ++step) injector.arm_nan(step, "loss");
    const DiffusionTrainStats stats = run_toy_training(13, &injector);
    EXPECT_TRUE(stats.diverged);
    EXPECT_GT(stats.nan_events, stats.rollbacks);
    // Weights stay the last good snapshot: the recorded losses (all from
    // healthy steps) are still finite.
    EXPECT_TRUE(std::isfinite(stats.final_loss));
}

TEST(Samplers, OutputShapesAndFiniteness) {
    aero::util::Rng rng(8);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({8, 0.001f, 0.012f});
    const Tensor cond = Tensor::randn({2, 8}, rng);

    const DdpmSampler ddpm(unet, schedule);
    const Tensor a = ddpm.sample({4, 8, 8}, cond, rng);
    EXPECT_EQ(a.dim(0), 4);
    for (float v : a) EXPECT_TRUE(std::isfinite(v));

    DdimConfig ddim_config;
    ddim_config.inference_steps = 4;
    ddim_config.guidance_scale = 7.0f;
    const DdimSampler ddim(unet, schedule, ddim_config);
    const Tensor b = ddim.sample({4, 8, 8}, cond, rng);
    EXPECT_EQ(b.dim(1), 8);
    for (float v : b) EXPECT_TRUE(std::isfinite(v));
}

TEST(Samplers, DdimGuidanceChangesSample) {
    aero::util::Rng rng(9);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({8, 0.001f, 0.012f});
    const Tensor cond = Tensor::randn({2, 8}, rng);

    DdimConfig weak;
    weak.inference_steps = 4;
    weak.guidance_scale = 1.0f;
    DdimConfig strong = weak;
    strong.guidance_scale = 7.0f;

    aero::util::Rng rng_a(42);
    aero::util::Rng rng_b(42);
    const Tensor a =
        DdimSampler(unet, schedule, weak).sample({4, 8, 8}, cond, rng_a);
    const Tensor b =
        DdimSampler(unet, schedule, strong).sample({4, 8, 8}, cond, rng_b);
    float diff = 0.0f;
    for (int i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
    EXPECT_GT(diff, 1e-4f);
}

TEST(Samplers, DdimDeterministicGivenSeed) {
    aero::util::Rng rng(10);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({8, 0.001f, 0.012f});
    DdimConfig config;
    config.inference_steps = 4;
    aero::util::Rng rng_a(5);
    aero::util::Rng rng_b(5);
    const DdimSampler sampler(unet, schedule, config);
    const Tensor a = sampler.sample({4, 8, 8}, Tensor(), rng_a);
    const Tensor b = sampler.sample({4, 8, 8}, Tensor(), rng_b);
    for (int i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Samplers, HeunIsDeterministicAndDiffersFromEuler) {
    aero::util::Rng rng(22);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({16, 0.001f, 0.012f});
    DdimConfig euler_config;
    euler_config.inference_steps = 6;
    euler_config.guidance_scale = 1.0f;
    DdimConfig heun_config = euler_config;
    heun_config.use_heun = true;
    const Tensor cond = Tensor::randn({2, 8}, rng);

    aero::util::Rng a1(3);
    aero::util::Rng a2(3);
    const Tensor heun_a =
        DdimSampler(unet, schedule, heun_config).sample({4, 8, 8}, cond, a1);
    const Tensor heun_b =
        DdimSampler(unet, schedule, heun_config).sample({4, 8, 8}, cond, a2);
    for (int i = 0; i < heun_a.size(); ++i) {
        EXPECT_EQ(heun_a[i], heun_b[i]);
    }

    aero::util::Rng e1(3);
    const Tensor euler =
        DdimSampler(unet, schedule, euler_config).sample({4, 8, 8}, cond, e1);
    float diff = 0.0f;
    for (int i = 0; i < euler.size(); ++i) {
        diff += std::abs(euler[i] - heun_a[i]);
        EXPECT_TRUE(std::isfinite(heun_a[i]));
    }
    EXPECT_GT(diff, 1e-4f);
}

TEST(Samplers, StochasticEtaNeverTakesHeunBranch) {
    // Regression: the Heun gate used to test the *per-step* sigma
    // (`sigma == 0`), but sigma is a rounded float product — with a
    // positive eta it can still underflow to exactly 0 on steps where
    // the schedule factors are small. This setup makes that concrete:
    // beta_start = 6e-8 puts alpha_bar(0) one ulp below 1, and a
    // denormal eta keeps every sigma numerically irrelevant while the
    // t=1 -> t=0 step's sigma rounds to exactly 0.0f. The old gate
    // silently ran the Heun corrector on that step of a stochastic
    // (eta > 0) trajectory; the fixed gate (config eta) must make
    // use_heun a strict no-op, i.e. bitwise-identical samples.
    aero::util::Rng rng(23);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({8, 6e-8f, 0.02f, 8});
    const float eta = 1e-44f;
    ASSERT_GT(eta, 0.0f);
    const float ab0 = schedule.alpha_bar(0);
    const float ab1 = schedule.alpha_bar(1);
    ASSERT_LT(ab0, 1.0f);  // no 0/0 anywhere in the sigma formula
    // The sampler's own sigma expression for the t=1 -> t=0 step
    // underflows to exactly zero despite eta > 0 — the precondition the
    // old gate mishandled.
    const float sigma10 = eta *
                          std::sqrt((1.0f - ab0) / (1.0f - ab1)) *
                          std::sqrt(1.0f - ab1 / ab0);
    ASSERT_EQ(sigma10, 0.0f);

    DdimConfig stochastic;
    stochastic.inference_steps = 8;
    stochastic.guidance_scale = 1.0f;
    stochastic.eta = eta;
    DdimConfig stochastic_heun = stochastic;
    stochastic_heun.use_heun = true;

    const Tensor cond = Tensor::randn({2, 8}, rng);
    aero::util::Rng a(9);
    aero::util::Rng b(9);
    const Tensor plain =
        DdimSampler(unet, schedule, stochastic).sample({4, 8, 8}, cond, a);
    const Tensor with_heun = DdimSampler(unet, schedule, stochastic_heun)
                                 .sample({4, 8, 8}, cond, b);
    for (int i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i], with_heun[i]) << "at " << i;
    }
}

TEST(Samplers, EditStrengthControlsDeviation) {
    // Low-strength SDEdit stays closer to the source latent than
    // high-strength.
    aero::util::Rng rng(20);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({16, 0.001f, 0.012f});
    DdimConfig config;
    config.inference_steps = 8;
    config.guidance_scale = 1.0f;
    const DdimSampler sampler(unet, schedule, config);
    const Tensor source = Tensor::randn({4, 8, 8}, rng);
    const Tensor cond = Tensor::randn({2, 8}, rng);

    auto deviation = [&](float strength) {
        double total = 0.0;
        for (int trial = 0; trial < 3; ++trial) {
            aero::util::Rng trial_rng(100 + trial);
            const Tensor out = sampler.edit(source, cond, strength, trial_rng);
            for (int i = 0; i < out.size(); ++i) {
                const double d = out[i] - source[i];
                total += d * d;
            }
        }
        return total;
    };
    EXPECT_LT(deviation(0.2f), deviation(1.0f));
}

TEST(Samplers, InpaintPreservesUnmaskedRegion) {
    aero::util::Rng rng(21);
    UNet unet(tiny_unet_config(), rng);
    const NoiseSchedule schedule({16, 0.001f, 0.012f});
    DdimConfig config;
    config.inference_steps = 8;
    config.guidance_scale = 1.0f;
    const DdimSampler sampler(unet, schedule, config);
    const Tensor source = Tensor::randn({4, 8, 8}, rng);
    // Mask: regenerate the left half only.
    Tensor mask({4, 8, 8});
    for (int c = 0; c < 4; ++c) {
        for (int y = 0; y < 8; ++y) {
            for (int x = 0; x < 4; ++x) mask[(c * 8 + y) * 8 + x] = 1.0f;
        }
    }
    const Tensor out = sampler.inpaint(source, mask, Tensor(), rng);
    // The kept (right) half must match the source exactly (final step
    // re-imposes the clean source there).
    for (int c = 0; c < 4; ++c) {
        for (int y = 0; y < 8; ++y) {
            for (int x = 4; x < 8; ++x) {
                EXPECT_FLOAT_EQ(out[(c * 8 + y) * 8 + x],
                                source[(c * 8 + y) * 8 + x]);
            }
        }
    }
    // And the regenerated half must differ.
    float diff = 0.0f;
    for (int c = 0; c < 4; ++c) {
        for (int y = 0; y < 8; ++y) {
            for (int x = 0; x < 4; ++x) {
                diff += std::abs(out[(c * 8 + y) * 8 + x] -
                                 source[(c * 8 + y) * 8 + x]);
            }
        }
    }
    EXPECT_GT(diff, 0.1f);
}

TEST(AutoencoderTest, ShapesRoundTrip) {
    aero::util::Rng rng(11);
    AutoencoderConfig config;
    config.image_size = 32;
    config.base_channels = 8;
    LatentAutoencoder ae(config, rng);
    const Var images = Var::constant(Tensor::randn({2, 3, 32, 32}, rng));
    const Var z = ae.encode(images);
    EXPECT_EQ(z.value().dim(1), config.latent_channels);
    EXPECT_EQ(z.value().dim(2), 8);
    const Var recon = ae.decode(z);
    EXPECT_EQ(recon.value().dim(1), 3);
    EXPECT_EQ(recon.value().dim(2), 32);
    for (float v : recon.value()) {
        EXPECT_GE(v, -1.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(AutoencoderTest, NonSquareImagesTrainAsTheirResizedCopies) {
    // A training image is resized to the autoencoder's square whenever
    // either extent differs, exactly as its resize_bilinear copy would be.
    AutoencoderConfig config;
    config.image_size = 32;
    config.base_channels = 8;
    AutoencoderTrainConfig train_config;
    train_config.steps = 3;
    train_config.batch_size = 2;
    for (const auto& [width, height] : {std::pair{32, 48}, {48, 32}}) {
        SCOPED_TRACE(std::to_string(width) + "x" + std::to_string(height));
        std::vector<aero::image::Image> images;
        std::vector<aero::image::Image> resized;
        for (int i = 0; i < 3; ++i) {
            aero::image::Image img(width, height,
                                   {0.2f + 0.2f * static_cast<float>(i), 0.5f,
                                    0.7f - 0.2f * static_cast<float>(i)});
            aero::image::fill_rect(img, 2 + 7 * i, 4 + 9 * i, 8, 12,
                                   {1.0f, 1.0f, 1.0f});
            resized.push_back(aero::image::resize_bilinear(img, 32, 32));
            images.push_back(std::move(img));
        }
        aero::util::Rng rng_a(41);
        aero::util::Rng rng_b(41);
        LatentAutoencoder a(config, rng_a);
        LatentAutoencoder b(config, rng_b);
        train_autoencoder(a, images, train_config, rng_a);
        train_autoencoder(b, resized, train_config, rng_b);
        const std::vector<Var> pa = a.parameters();
        const std::vector<Var> pb = b.parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
            EXPECT_TRUE(bitwise_equal(pa[i].value(), pb[i].value()))
                << "parameter " << i;
        }
    }
}

TEST(AutoencoderTest, TrainingImprovesReconstruction) {
    aero::util::Rng rng(12);
    AutoencoderConfig config;
    config.image_size = 32;
    config.base_channels = 8;
    LatentAutoencoder ae(config, rng);

    // Small set of structured images.
    std::vector<aero::image::Image> images;
    for (int i = 0; i < 6; ++i) {
        aero::image::Image img(32, 32,
                               {0.2f + 0.1f * static_cast<float>(i), 0.4f,
                                0.8f - 0.1f * static_cast<float>(i)});
        aero::image::fill_rect(img, 4 * i, 8, 6, 6, {1.0f, 1.0f, 1.0f});
        images.push_back(std::move(img));
    }
    AutoencoderTrainConfig train_config;
    train_config.steps = 80;
    train_config.batch_size = 4;
    const AutoencoderTrainStats stats =
        train_autoencoder(ae, images, train_config, rng);
    EXPECT_LT(stats.final_loss, stats.first_loss);
    EXPECT_GT(stats.latent_scale, 0.0f);

    // Round-trip of a training image should be closer than a black frame.
    const Tensor z = ae.encode_image(images[0]);
    const aero::image::Image recon = ae.decode_latent(z);
    const double psnr_recon = aero::image::psnr(images[0], recon);
    const aero::image::Image black(32, 32);
    const double psnr_black = aero::image::psnr(images[0], black);
    EXPECT_GT(psnr_recon, psnr_black);
}

}  // namespace
