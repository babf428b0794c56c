// Continuous cross-request step batching (DESIGN.md §16). The load-
// bearing contract: a batched run is BITWISE identical to the
// sequential path at every batch size — including mid-flight joins,
// early retirements, mixed job kinds and mixed latent shapes — and
// leaves each caller's Rng stream in the same post-run state. Plus the
// sampler bugfix sweep riding along: non-finite edit strengths, the
// mid-Heun cancellation poll, and the per-request normalization of the
// step-time metric.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "diffusion/sampler.hpp"
#include "diffusion/schedule.hpp"
#include "diffusion/unet.hpp"
#include "autograd/var.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "util/rng.hpp"

namespace {

using aero::diffusion::BatchedDdimScheduler;
using aero::diffusion::DdimConfig;
using aero::diffusion::DdimSampler;
using aero::diffusion::NoiseSchedule;
using aero::diffusion::SamplerJob;
using aero::diffusion::UNet;
using aero::diffusion::UNetConfig;
using aero::serve::StepBatcher;
using aero::serve::StepBatcherConfig;
using aero::tensor::Tensor;
using aero::util::Rng;

/// Tiny but real UNet (the test_parallel fixture): full architecture,
/// smoke-sized widths, so a 4-step DDIM run is milliseconds.
const UNet& shared_unet() {
    static const UNet unet = [] {
        Rng build_rng(16);
        UNetConfig config;
        config.in_channels = 4;
        config.base_channels = 8;
        config.cond_dim = 8;
        config.heads = 2;
        config.time_dim = 8;
        config.groups = 2;
        return UNet(config, build_rng);
    }();
    return unet;
}

const NoiseSchedule& shared_schedule() {
    static const NoiseSchedule schedule({8, 0.001f, 0.012f, 8});
    return schedule;
}

Tensor shared_condition() {
    static const Tensor condition = [] {
        Rng rng(91);
        return Tensor::randn({3, 8}, rng);
    }();
    return condition;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
    if (!a.same_shape(b)) return false;
    return std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<std::size_t>(a.size())) ==
           0;
}

/// A job recipe: everything needed to build the same SamplerJob twice
/// (once for the sequential reference, once for the batched run), each
/// time with a fresh Rng seeded `seed`.
struct Recipe {
    SamplerJob::Kind kind = SamplerJob::Kind::kSample;
    std::vector<int> shape = {4, 8, 8};
    float strength = 0.6f;
    bool conditioned = false;
    DdimConfig config;
    std::uint64_t seed = 1;
};

SamplerJob build_job(const Recipe& recipe, Rng* rng) {
    SamplerJob job;
    job.kind = recipe.kind;
    job.config = recipe.config;
    job.rng = rng;
    if (recipe.conditioned) job.condition_tokens = shared_condition();
    switch (recipe.kind) {
        case SamplerJob::Kind::kSample:
            job.shape = recipe.shape;
            break;
        case SamplerJob::Kind::kEdit: {
            Rng source_rng(recipe.seed + 1000);
            job.source = Tensor::randn(recipe.shape, source_rng);
            job.strength = recipe.strength;
            break;
        }
        case SamplerJob::Kind::kInpaint: {
            Rng source_rng(recipe.seed + 1000);
            job.source = Tensor::randn(recipe.shape, source_rng);
            job.mask = Tensor(recipe.shape);
            // Regenerate the first half of the latent, keep the rest.
            for (int i = 0; i < job.mask.size() / 2; ++i) {
                job.mask.data()[i] = 1.0f;
            }
            break;
        }
    }
    return job;
}

/// Sequential reference: a private batch-of-one run. Returns the latent
/// and the post-run Rng probe (next_u64) for stream-state comparison.
struct Reference {
    Tensor latent;
    std::uint64_t rng_probe = 0;
};

Reference sequential_reference(const Recipe& recipe) {
    Rng rng(recipe.seed);
    Reference ref;
    ref.latent = aero::diffusion::run_sampler_job(
        shared_unet(), shared_schedule(), build_job(recipe, &rng));
    ref.rng_probe = rng.next_u64();
    return ref;
}

/// Admits every recipe into one scheduler, runs it dry, and checks each
/// job's latent AND post-run Rng stream against the sequential path.
void expect_batched_matches_sequential(const std::vector<Recipe>& recipes,
                                       const char* label) {
    std::vector<Reference> references;
    references.reserve(recipes.size());
    for (const Recipe& recipe : recipes) {
        references.push_back(sequential_reference(recipe));
    }

    BatchedDdimScheduler scheduler(shared_unet(), shared_schedule());
    std::vector<Rng> rngs;
    rngs.reserve(recipes.size());
    for (const Recipe& recipe : recipes) rngs.emplace_back(recipe.seed);
    std::map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < recipes.size(); ++i) {
        by_id[scheduler.admit(build_job(recipes[i], &rngs[i]))] = i;
    }
    while (scheduler.step() > 0) {
    }
    std::size_t retired = 0;
    for (BatchedDdimScheduler::Finished& finished :
         scheduler.take_finished()) {
        ASSERT_EQ(by_id.count(finished.id), 1u) << label;
        const std::size_t i = by_id[finished.id];
        EXPECT_FALSE(finished.cancelled) << label << ": job " << i;
        EXPECT_TRUE(bitwise_equal(finished.latent, references[i].latent))
            << label << ": job " << i << " differs from sequential";
        EXPECT_EQ(rngs[i].next_u64(), references[i].rng_probe)
            << label << ": job " << i << " left its Rng stream elsewhere";
        ++retired;
    }
    EXPECT_EQ(retired, recipes.size()) << label;
}

/// Mixed workload covering every code path: plain, CFG, Heun,
/// stochastic eta, edit, inpaint.
std::vector<Recipe> mixed_recipes(std::size_t count) {
    std::vector<Recipe> recipes;
    for (std::size_t i = 0; i < count; ++i) {
        Recipe recipe;
        recipe.seed = 100 + i;
        recipe.config.inference_steps = 4;
        switch (i % 6) {
            case 0:
                break;  // plain unconditional sample
            case 1:
                recipe.conditioned = true;
                recipe.config.guidance_scale = 7.0f;
                break;
            case 2:
                recipe.config.use_heun = true;
                break;
            case 3:
                recipe.config.eta = 0.3f;
                break;
            case 4:
                recipe.kind = SamplerJob::Kind::kEdit;
                recipe.conditioned = true;
                recipe.config.guidance_scale = 3.0f;
                break;
            case 5:
                recipe.kind = SamplerJob::Kind::kInpaint;
                recipe.config.eta = 0.2f;
                break;
        }
        recipes.push_back(recipe);
    }
    return recipes;
}

// ---- bitwise equivalence ----------------------------------------------------

TEST(BatchBitwiseTest, BatchSizesMatchSequential) {
    for (const std::size_t batch : {1u, 2u, 7u}) {
        expect_batched_matches_sequential(mixed_recipes(batch),
                                          "batch of mixed jobs");
    }
}

TEST(BatchBitwiseTest, MixedLatentShapesSplitIntoGroups) {
    // Jobs with differently-shaped latents can share a step; they must
    // partition into per-shape forwards without perturbing each other.
    std::vector<Recipe> recipes = mixed_recipes(3);
    recipes[1].shape = {4, 4, 4};
    expect_batched_matches_sequential(recipes, "mixed shapes");
}

TEST(BatchBitwiseTest, CompositionOrderDoesNotMatter) {
    const std::vector<Recipe> forward = mixed_recipes(4);
    std::vector<Recipe> reversed(forward.rbegin(), forward.rend());
    expect_batched_matches_sequential(forward, "forward order");
    expect_batched_matches_sequential(reversed, "reversed order");
}

TEST(BatchBitwiseTest, StaggeredJoinsMatchSequential) {
    // A join at a step boundary must not disturb jobs already mid-
    // flight, and the joiner itself must match its own sequential run.
    const std::vector<Recipe> recipes = mixed_recipes(3);
    std::vector<Reference> references;
    for (const Recipe& recipe : recipes) {
        references.push_back(sequential_reference(recipe));
    }

    BatchedDdimScheduler scheduler(shared_unet(), shared_schedule());
    std::vector<Rng> rngs;
    for (const Recipe& recipe : recipes) rngs.emplace_back(recipe.seed);
    std::map<std::uint64_t, std::size_t> by_id;
    by_id[scheduler.admit(build_job(recipes[0], &rngs[0]))] = 0;
    by_id[scheduler.admit(build_job(recipes[1], &rngs[1]))] = 1;
    scheduler.step();
    scheduler.step();
    by_id[scheduler.admit(build_job(recipes[2], &rngs[2]))] = 2;
    while (scheduler.step() > 0) {
    }
    std::size_t retired = 0;
    for (BatchedDdimScheduler::Finished& finished :
         scheduler.take_finished()) {
        const std::size_t i = by_id[finished.id];
        EXPECT_TRUE(bitwise_equal(finished.latent, references[i].latent))
            << "staggered job " << i;
        EXPECT_EQ(rngs[i].next_u64(), references[i].rng_probe)
            << "staggered job " << i;
        ++retired;
    }
    EXPECT_EQ(retired, recipes.size());
}

TEST(BatchBitwiseTest, EarlyRetirementDoesNotPerturbSurvivors) {
    std::vector<Recipe> recipes = mixed_recipes(3);
    // Job 1 cancels at its third step-boundary poll; 0 and 2 run to
    // completion and must still match their sequential references.
    int polls = 0;
    recipes[1].config.should_cancel = [&polls] { return ++polls > 2; };

    std::vector<Reference> references;
    references.push_back(sequential_reference(recipes[0]));
    references.push_back({});  // cancelled: no reference
    references.push_back(sequential_reference(recipes[2]));

    polls = 0;
    BatchedDdimScheduler scheduler(shared_unet(), shared_schedule());
    std::vector<Rng> rngs;
    for (const Recipe& recipe : recipes) rngs.emplace_back(recipe.seed);
    std::map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < recipes.size(); ++i) {
        by_id[scheduler.admit(build_job(recipes[i], &rngs[i]))] = i;
    }
    while (scheduler.step() > 0) {
    }
    std::size_t retired = 0;
    for (BatchedDdimScheduler::Finished& finished :
         scheduler.take_finished()) {
        const std::size_t i = by_id[finished.id];
        if (i == 1) {
            EXPECT_TRUE(finished.cancelled);
            EXPECT_TRUE(finished.latent.empty());
        } else {
            EXPECT_FALSE(finished.cancelled);
            EXPECT_TRUE(bitwise_equal(finished.latent, references[i].latent))
                << "survivor " << i << " perturbed by a retirement";
        }
        ++retired;
    }
    EXPECT_EQ(retired, recipes.size());
}

// ---- bugfix: non-finite edit strength ---------------------------------------

TEST(SamplerRegressionTest, NonFiniteEditStrengthReturnsEmpty) {
    DdimConfig config;
    config.inference_steps = 4;
    const DdimSampler sampler(shared_unet(), shared_schedule(), config);
    Rng source_rng(5);
    const Tensor source = Tensor::randn({4, 8, 8}, source_rng);

    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
        Rng rng(6);
        const Tensor out = sampler.edit(source, Tensor(), bad, rng);
        EXPECT_TRUE(out.empty()) << "strength " << bad;
        // The rejected job must not have consumed any noise.
        EXPECT_EQ(rng.next_u64(), Rng(6).next_u64()) << "strength " << bad;
    }

    Rng rng(6);
    EXPECT_FALSE(sampler.edit(source, Tensor(), 0.6f, rng).empty());
}

// ---- bugfix: mid-Heun cancellation poll -------------------------------------

TEST(SamplerRegressionTest, HeunPollsCancellationMidStep) {
    // Heun doubles the NFE per step, so cancellation is polled before
    // the corrector's second evaluation too: 2 polls per step, minus
    // the final step (t_prev < 0 skips the corrector).
    const int steps = 4;
    DdimConfig config;
    config.inference_steps = steps;
    config.use_heun = true;
    int polls = 0;
    config.should_cancel = [&polls] {
        ++polls;
        return false;
    };
    const DdimSampler sampler(shared_unet(), shared_schedule(), config);
    Rng rng(7);
    EXPECT_FALSE(sampler.sample({4, 8, 8}, Tensor(), rng).empty());
    EXPECT_EQ(polls, 2 * steps - 1);

    // Without Heun only the step-boundary poll runs.
    polls = 0;
    config.use_heun = false;
    const DdimSampler plain(shared_unet(), shared_schedule(), config);
    Rng plain_rng(7);
    EXPECT_FALSE(plain.sample({4, 8, 8}, Tensor(), plain_rng).empty());
    EXPECT_EQ(polls, steps);

    // Cancelling on the mid-step poll abandons the run one denoiser
    // evaluation later — not one full Heun step later.
    polls = 0;
    config.use_heun = true;
    config.should_cancel = [&polls] { return ++polls >= 2; };
    const DdimSampler cancelled(shared_unet(), shared_schedule(), config);
    Rng cancel_rng(7);
    EXPECT_TRUE(cancelled.sample({4, 8, 8}, Tensor(), cancel_rng).empty());
    EXPECT_EQ(polls, 2);
}

// ---- bugfix: step metric normalization at batch > 1 -------------------------

TEST(BatchMetricsTest, StepTimeRecordedPerRequestNormalized) {
    if (!aero::obs::enabled()) GTEST_SKIP() << "obs disabled; no metrics";
    aero::obs::MetricsRegistry& registry =
        aero::obs::MetricsRegistry::instance();
    aero::obs::Histogram& step_ms = registry.histogram(
        "aero_diffusion_step_ms", "single DDIM denoising step, ms",
        aero::obs::default_ms_buckets());
    aero::obs::Histogram& batch_size = registry.histogram(
        "aero_batch_size",
        "requests amortised by one batched denoising step",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    aero::obs::Counter& steps = registry.counter(
        "aero_batch_steps_total", "batched denoising steps executed");
    aero::obs::Counter& joins = registry.counter(
        "aero_batch_joins_total",
        "sampling jobs admitted into the step batch");
    aero::obs::Counter& retired = registry.counter(
        "aero_batch_retired_total",
        "sampling jobs retired from the step batch (finished or "
        "cancelled)");

    const auto step_before = step_ms.snapshot();
    const auto size_before = batch_size.snapshot();
    const long long steps_before = steps.value();
    const long long joins_before = joins.value();
    const long long retired_before = retired.value();

    const std::vector<Recipe> recipes = mixed_recipes(3);
    BatchedDdimScheduler scheduler(shared_unet(), shared_schedule());
    std::vector<Rng> rngs;
    for (const Recipe& recipe : recipes) rngs.emplace_back(recipe.seed);
    for (std::size_t i = 0; i < recipes.size(); ++i) {
        scheduler.admit(build_job(recipes[i], &rngs[i]));
    }
    scheduler.step();

    // One batched step over 3 requests: the step histogram gets one
    // NORMALIZED observation per participant (elapsed / 3 each), so the
    // histogram stays in per-request units, and the batch-size
    // histogram gets exactly one observation of 3.
    EXPECT_EQ(step_ms.snapshot().count - step_before.count, 3);
    EXPECT_EQ(batch_size.snapshot().count - size_before.count, 1);
    EXPECT_EQ(steps.value() - steps_before, 1);
    EXPECT_EQ(joins.value() - joins_before, 3);

    while (scheduler.step() > 0) {
    }
    EXPECT_EQ(scheduler.take_finished().size(), recipes.size());
    // Every join eventually balances with a retirement.
    EXPECT_EQ(retired.value() - retired_before, 3);
}

// ---- serve::StepBatcher -----------------------------------------------------

/// Restores the process-wide AERO_BATCH gate after a test flips it.
class BatchGateGuard {
public:
    BatchGateGuard() : saved_(aero::serve::batching_enabled()) {}
    ~BatchGateGuard() { aero::serve::set_batching_enabled(saved_); }

private:
    bool saved_;
};

TEST(StepBatcherTest, NotLiveConfigsAreTrueNoOps) {
    const BatchGateGuard guard;
    aero::serve::set_batching_enabled(true);
    StepBatcherConfig config;
    config.batch_max = 1;
    EXPECT_FALSE(aero::serve::step_batching_live(config));
    config.batch_max = 8;
    EXPECT_TRUE(aero::serve::step_batching_live(config));
    aero::serve::set_batching_enabled(false);  // AERO_BATCH=0
    EXPECT_FALSE(aero::serve::step_batching_live(config));
}

TEST(StepBatcherTest, ConcurrentCallersGetBitwiseSequentialResults) {
    const BatchGateGuard guard;
    aero::serve::set_batching_enabled(true);
    StepBatcherConfig config;
    config.batch_max = 4;
    StepBatcher batcher(shared_unet(), shared_schedule(), config);

    const std::vector<Recipe> recipes = mixed_recipes(8);
    std::vector<Reference> references;
    for (const Recipe& recipe : recipes) {
        references.push_back(sequential_reference(recipe));
    }
    std::vector<Tensor> results(recipes.size());
    std::vector<std::uint64_t> probes(recipes.size());
    {
        std::vector<std::thread> callers;
        callers.reserve(recipes.size());
        for (std::size_t i = 0; i < recipes.size(); ++i) {
            callers.emplace_back([&, i] {
                Rng rng(recipes[i].seed);
                results[i] = batcher.execute(build_job(recipes[i], &rng));
                probes[i] = rng.next_u64();
            });
        }
        for (std::thread& caller : callers) caller.join();
    }
    for (std::size_t i = 0; i < recipes.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(results[i], references[i].latent))
            << "caller " << i;
        EXPECT_EQ(probes[i], references[i].rng_probe) << "caller " << i;
    }
    const StepBatcher::Stats stats = batcher.stats();
    EXPECT_EQ(stats.admitted, 8);
    EXPECT_EQ(stats.completed, 8);
    EXPECT_EQ(stats.cancelled, 0);
    EXPECT_GE(stats.peak_batch, 1u);
    EXPECT_LE(stats.peak_batch, 4u);
    batcher.shutdown();
    batcher.shutdown();  // idempotent
    // After shutdown new jobs resolve empty instead of hanging.
    Rng late_rng(3);
    EXPECT_TRUE(
        batcher.execute(build_job(mixed_recipes(1)[0], &late_rng)).empty());
}

TEST(StepBatcherTest, StressMixedCancellationsAndShutdownDrain) {
    // TSan-hunted stress: many callers, a small batch, some jobs
    // cancelling mid-flight, and a shutdown racing the tail. The
    // invariants: every execute() resolves, and the stats balance.
    const BatchGateGuard guard;
    aero::serve::set_batching_enabled(true);
    StepBatcherConfig config;
    config.batch_max = 4;
    StepBatcher batcher(shared_unet(), shared_schedule(), config);

    constexpr std::size_t kCallers = 12;
    std::vector<int> polls(kCallers, 0);
    std::vector<Tensor> results(kCallers);
    {
        std::vector<std::thread> callers;
        for (std::size_t i = 0; i < kCallers; ++i) {
            callers.emplace_back([&, i] {
                Recipe recipe = mixed_recipes(kCallers)[i];
                if (i % 3 == 0) {
                    // Cancel after a couple of denoising steps.
                    recipe.config.should_cancel = [&polls, i] {
                        return ++polls[i] > 2;
                    };
                }
                Rng rng(recipe.seed);
                results[i] = batcher.execute(build_job(recipe, &rng));
            });
        }
        for (std::thread& caller : callers) caller.join();
    }
    batcher.shutdown();
    const StepBatcher::Stats stats = batcher.stats();
    EXPECT_EQ(stats.admitted, static_cast<long long>(kCallers));
    EXPECT_EQ(stats.completed + stats.cancelled,
              static_cast<long long>(kCallers));
    EXPECT_GE(stats.cancelled, static_cast<long long>(kCallers / 3));
    for (std::size_t i = 0; i < kCallers; ++i) {
        if (i % 3 == 0) {
            EXPECT_TRUE(results[i].empty()) << "caller " << i;
        } else {
            EXPECT_FALSE(results[i].empty()) << "caller " << i;
        }
    }
}

TEST(StepBatcherTest, GuardedStepsLeaveAConcurrentTrainingGraphIntact) {
    // The batcher's forwards run under a NoGradGuard on its own thread.
    // The guard is thread-local, so a training forward and backward on
    // this thread meanwhile, over the same UNet, must still record its
    // whole graph: every parameter gets the gradient of a solo run.
    const BatchGateGuard guard;
    aero::serve::set_batching_enabled(true);
    const UNet& unet = shared_unet();
    Rng rng(57);
    const aero::autograd::Var z =
        aero::autograd::Var::constant(Tensor::randn({3, 4, 8, 8}, rng));
    const std::vector<Tensor> conditions{shared_condition(), Tensor(),
                                         Tensor::randn({5, 8}, rng)};
    const auto train_step = [&] {
        std::vector<aero::autograd::Var> params = unet.parameters();
        for (aero::autograd::Var& p : params) p.zero_grad();
        aero::autograd::mean_all(
            unet.forward(z, {1, 4, 6}, 8, conditions))
            .backward();
        std::vector<Tensor> grads;
        for (aero::autograd::Var& p : params) {
            grads.push_back(p.grad());
            p.zero_grad();
        }
        return grads;
    };
    const std::vector<Tensor> solo = train_step();

    StepBatcherConfig config;
    config.batch_max = 4;
    StepBatcher batcher(unet, shared_schedule(), config);
    std::atomic<bool> done{false};
    std::atomic<int> steps_run{0};
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < 4; ++i) {
        callers.emplace_back([&, i] {
            const Recipe recipe = mixed_recipes(4)[i];
            while (!done.load()) {
                Rng job_rng(recipe.seed);
                EXPECT_FALSE(
                    batcher.execute(build_job(recipe, &job_rng)).empty());
                steps_run.fetch_add(1);
            }
        });
    }
    std::vector<std::vector<Tensor>> rounds;
    for (int round = 0; round < 4; ++round) rounds.push_back(train_step());
    done.store(true);
    for (std::thread& caller : callers) caller.join();
    batcher.shutdown();
    EXPECT_GT(steps_run.load(), 0);
    for (std::size_t round = 0; round < rounds.size(); ++round) {
        ASSERT_EQ(rounds[round].size(), solo.size());
        for (std::size_t p = 0; p < solo.size(); ++p) {
            EXPECT_TRUE(bitwise_equal(rounds[round][p], solo[p]))
                << "round " << round << ", parameter " << p;
        }
    }
}

}  // namespace
