// Overload-control tests: AIMD limit convergence under a ManualClock,
// CoDel drop arming/acceleration/reset, degradation-ladder monotonicity
// and batch bias, the step-histogram p99 signal, the per-client token
// bucket (unit + service accounting), priority dequeue ordering with
// the anti-starvation bound, the expired-deadline-at-admission
// regression, bitwise neutrality under AERO_OVERLOAD=0, an end-to-end
// ladder shed, and a TSan chaos soak driving overload_spike, the rate
// limit, mixed priorities and deadlines through a 4-worker service. The
// serve accounting invariant holds throughout: submitted == sum over
// outcomes, and by_rung sums to the terminal count.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/overload.hpp"
#include "serve/service.hpp"
#include "util/fault.hpp"
#include "util/rate_limit.hpp"

namespace {

using namespace aero;
using namespace aero::serve;
using aero::core::AeroDiffusionPipeline;
using aero::core::Budget;
using aero::core::PipelineConfig;
using aero::core::Substrate;
using aero::scene::AerialDataset;
using aero::scene::DatasetConfig;

const Substrate& shared_substrate() {
    static const Substrate substrate = [] {
        Budget budget = Budget::smoke();
        DatasetConfig config;
        config.train_size = budget.train_images;
        config.test_size = budget.test_images;
        config.image_size = budget.image_size;
        static const AerialDataset dataset(config);
        util::Rng rng(2025);
        return core::build_substrate(dataset, budget, rng);
    }();
    return substrate;
}

/// Untrained pipeline — finite weights are all these tests need.
const AeroDiffusionPipeline& shared_pipeline() {
    static const AeroDiffusionPipeline pipeline = [] {
        util::Rng rng(7);
        return AeroDiffusionPipeline(PipelineConfig::aero_diffusion(),
                                     shared_substrate(), rng);
    }();
    return pipeline;
}

InferenceRequest valid_request(std::uint64_t seed = 1,
                               std::size_t sample = 0) {
    const Substrate& s = shared_substrate();
    InferenceRequest request;
    request.reference = s.dataset->test()[sample % s.dataset->test().size()];
    request.source_caption =
        s.keypoint_test[sample % s.keypoint_test.size()].text;
    request.target_caption = request.source_caption;
    request.seed = seed;
    return request;
}

ServiceConfig basic_config() {
    ServiceConfig config;
    config.limits.image_size = Budget::smoke().image_size;
    // Tests pin rate limiting explicitly; don't inherit the env.
    config.rate_limit = util::RateLimitConfig{};
    return config;
}

/// A controller config that is live and reacts on every evaluation.
OverloadConfig live_overload() {
    OverloadConfig config;
    config.enabled = true;
    return config;
}

// ---- AIMD concurrency limit -------------------------------------------------

TEST(AdmissionControllerTest, AimdConvergesDownThenRecovers) {
    OverloadConfig config = live_overload();
    config.latency_target_ms = 10.0;
    config.min_limit = 1;
    config.max_limit = 8;
    config.additive_increase = 1.0;
    config.decrease_factor = 0.5;
    config.interval_ms = 1.0;
    config.window = 4;
    obs::ManualClock clock;
    clock.set_ns(1'000'000);  // 1ms
    AdmissionController controller(config, &clock);
    ASSERT_TRUE(controller.enabled());
    EXPECT_EQ(controller.limit(), 8);

    // Sustained 5x-target latencies: one multiplicative decrease per
    // interval until the floor (8 -> 4 -> 2 -> 1).
    for (int i = 0; i < 20; ++i) {
        clock.advance_ms(2.0);
        controller.on_finish(50.0);
    }
    EXPECT_EQ(controller.limit(), config.min_limit);
    EXPECT_GE(controller.decreases(), 3);
    EXPECT_GT(controller.load_index(), 1.0);

    // On-target windows earn additive increases back to the ceiling.
    for (int i = 0; i < 40; ++i) {
        clock.advance_ms(2.0);
        controller.on_finish(1.0);
    }
    EXPECT_EQ(controller.limit(), config.max_limit);
    EXPECT_LT(controller.load_index(), 1.0);
}

TEST(AdmissionControllerTest, DecreasesAreRateLimitedToOnePerInterval) {
    OverloadConfig config = live_overload();
    config.latency_target_ms = 10.0;
    config.max_limit = 64;
    config.decrease_factor = 0.5;
    config.interval_ms = 100.0;
    config.window = 4;
    obs::ManualClock clock;
    clock.set_ns(200'000'000);
    AdmissionController controller(config, &clock);

    // Many overshooting finishes inside one interval: at most one
    // decrease may land (64 -> 32, not a free-fall to the floor).
    for (int i = 0; i < 10; ++i) {
        clock.advance_ms(1.0);
        controller.on_finish(100.0);
    }
    EXPECT_EQ(controller.decreases(), 1);
    EXPECT_EQ(controller.limit(), 32);
}

// ---- CoDel queue discipline -------------------------------------------------

TEST(AdmissionControllerTest, CodelArmsDropsAcceleratesAndResets) {
    OverloadConfig config = live_overload();
    config.codel_target_ms = 10.0;
    config.codel_interval_ms = 100.0;
    obs::ManualClock clock;
    clock.set_ns(1'000'000);
    AdmissionController controller(config, &clock);

    // Below target: never drops, keeps the discipline disarmed.
    EXPECT_FALSE(controller.codel_drop(5.0));

    // First overage arms the grace interval but does not drop.
    EXPECT_FALSE(controller.codel_drop(15.0));
    clock.advance_ms(50.0);
    EXPECT_FALSE(controller.codel_drop(15.0));  // still inside the grace

    // Sustained past the interval: drop.
    clock.advance_ms(60.0);
    EXPECT_TRUE(controller.codel_drop(15.0));
    EXPECT_EQ(controller.codel_drops(), 1);

    // Next drop accelerates: interval / sqrt(2) ~ 70.7ms.
    clock.advance_ms(50.0);
    EXPECT_FALSE(controller.codel_drop(15.0));
    clock.advance_ms(25.0);
    EXPECT_TRUE(controller.codel_drop(15.0));
    EXPECT_EQ(controller.codel_drops(), 2);

    // A dip under target resets; the next overage re-arms from scratch.
    EXPECT_FALSE(controller.codel_drop(2.0));
    EXPECT_FALSE(controller.codel_drop(15.0));
    clock.advance_ms(150.0);
    EXPECT_TRUE(controller.codel_drop(15.0));
}

// ---- degradation ladder -----------------------------------------------------

TEST(AdmissionControllerTest, LadderIsMonotoneInLoadAndBatchIsNeverMilder) {
    OverloadConfig config = live_overload();
    config.latency_target_ms = 10.0;
    config.load_smoothing = 1.0;  // index tracks the newest sample exactly
    config.interval_ms = 0.0;     // evaluate on every finish
    obs::ManualClock clock;
    clock.set_ns(1'000'000);
    AdmissionController controller(config, &clock);

    DegradeRung last = DegradeRung::kFull;
    const double latencies[] = {5.0, 12.0, 17.0, 25.0, 40.0};
    for (const double ms : latencies) {
        clock.advance_ms(1.0);
        controller.on_finish(ms);
        const DegradeRung rung = controller.rung_for(Priority::kInteractive);
        EXPECT_GE(rung, last) << "ladder must not skip down as load rises";
        EXPECT_GE(controller.rung_for(Priority::kBatch), rung);
        last = rung;
    }
    // 40ms against a 10ms target = index 4.0, past every threshold.
    EXPECT_EQ(last, DegradeRung::kShed);
}

TEST(AdmissionControllerTest, BatchBiasDegradesBatchFirst) {
    OverloadConfig config = live_overload();
    config.latency_target_ms = 10.0;
    config.load_smoothing = 1.0;
    config.interval_ms = 0.0;
    config.batch_bias = 0.5;
    obs::ManualClock clock;
    clock.set_ns(1'000'000);
    AdmissionController controller(config, &clock);

    // Index 0.8: interactive still full, batch reads 1.3 -> rung 1.
    clock.advance_ms(1.0);
    controller.on_finish(8.0);
    EXPECT_EQ(controller.rung_for(Priority::kInteractive),
              DegradeRung::kFull);
    EXPECT_EQ(controller.rung_for(Priority::kBatch),
              DegradeRung::kReducedSteps);
}

TEST(AdmissionControllerTest, PollDecaysAFullShedRungWithoutCompletions) {
    OverloadConfig config = live_overload();
    config.latency_target_ms = 10.0;
    config.load_smoothing = 0.5;
    config.interval_ms = 10.0;
    obs::ManualClock clock;
    clock.set_ns(20'000'000);
    AdmissionController controller(config, &clock);

    controller.on_finish(100.0);  // index 5.0: straight to shed
    EXPECT_EQ(controller.rung_for(Priority::kInteractive),
              DegradeRung::kShed);

    // Shed admissions complete nothing; arrival polls alone must decay
    // the index and walk the ladder back down (no stuck-at-shed
    // latch). Polls re-evaluate on the CoDel timescale.
    for (int i = 0; i < 20; ++i) {
        clock.advance_ms(config.codel_interval_ms);
        controller.poll();
    }
    EXPECT_EQ(controller.rung_for(Priority::kInteractive),
              DegradeRung::kFull);
    EXPECT_LT(controller.load_index(), 1.0);
}

TEST(AdmissionControllerTest, SpikeInjectionEscalatesImmediately) {
    OverloadConfig config = live_overload();
    config.latency_target_ms = 10.0;
    config.load_smoothing = 1.0;
    config.spike_factor = 8.0;
    obs::ManualClock clock;
    clock.set_ns(20'000'000);  // past the decrease interval
    AdmissionController controller(config, &clock);
    EXPECT_EQ(controller.rung_for(Priority::kInteractive),
              DegradeRung::kFull);

    controller.inject_spike();
    EXPECT_GT(controller.load_index(), 3.0);
    EXPECT_EQ(controller.rung_for(Priority::kInteractive),
              DegradeRung::kShed);
    EXPECT_GE(controller.decreases(), 1);
}

// ---- step-histogram p99 signal ---------------------------------------------

TEST(AdmissionControllerTest, StepHistogramP99DrivesDecreases) {
    if (!obs::enabled()) GTEST_SKIP() << "obs disabled; no step signal";
    OverloadConfig config = live_overload();
    config.latency_target_ms = 1000.0;  // request latencies look benign
    config.step_target_ms = 1.0;
    config.interval_ms = 0.0;
    obs::ManualClock clock;
    clock.set_ns(1'000'000);
    AdmissionController controller(config, &clock);

    // The controller baselines the cumulative histogram at
    // construction, so only these observations feed its delta-p99.
    obs::Histogram& steps = obs::MetricsRegistry::instance().histogram(
        "aero_diffusion_step_ms", "single DDIM denoising step, ms",
        obs::default_ms_buckets());
    for (int i = 0; i < 20; ++i) steps.observe(40.0);

    clock.advance_ms(1.0);
    controller.on_finish(0.01);  // benign end-to-end latency
    EXPECT_GE(controller.step_p99_ms(), 40.0);
    EXPECT_GE(controller.decreases(), 1);
    EXPECT_LT(controller.limit(), config.max_limit);
}

TEST(AdmissionControllerTest, StepSignalStaysNormalizedAtBatchGreaterThanOne) {
    if (!obs::enabled()) GTEST_SKIP() << "obs disabled; no step signal";
    // A batched denoising step amortises N requests, so the sampler
    // records elapsed / N once per participant into the step histogram
    // (sampler.cpp). This pins the contract from the controller's side:
    // per-request-normalized observations at a benign per-request cost
    // must NOT trip the AIMD decrease, while the same batch recorded
    // raw (the pre-normalization bug: one 8x observation per step)
    // must.
    OverloadConfig config = live_overload();
    config.latency_target_ms = 1000.0;  // request latencies look benign
    config.step_target_ms = 1.5;
    config.interval_ms = 0.0;
    obs::ManualClock clock;
    clock.set_ns(1'000'000);
    AdmissionController controller(config, &clock);

    obs::Histogram& steps = obs::MetricsRegistry::instance().histogram(
        "aero_diffusion_step_ms", "single DDIM denoising step, ms",
        obs::default_ms_buckets());
    // A batch of 8 whose step took 8 ms of wall time: 8 normalized
    // observations of 1 ms each. Per-request cost is under target.
    for (int i = 0; i < 8; ++i) steps.observe(1.0);
    clock.advance_ms(1.0);
    controller.on_finish(0.01);
    EXPECT_LE(controller.step_p99_ms(), config.step_target_ms);
    EXPECT_EQ(controller.decreases(), 0);
    EXPECT_EQ(controller.limit(), config.max_limit);

    // Normalization must not dull the signal either: a batch whose
    // per-request cost genuinely breaches the target (8 ms each — what
    // the raw pre-normalization recording would also have claimed for
    // the fast batch above) still trips the decrease.
    for (int i = 0; i < 8; ++i) steps.observe(8.0);
    clock.advance_ms(1.0);
    controller.on_finish(0.01);
    EXPECT_GT(controller.step_p99_ms(), config.step_target_ms);
    EXPECT_GE(controller.decreases(), 1);
    EXPECT_LT(controller.limit(), config.max_limit);
}

// ---- disabled controller is the identity ------------------------------------

TEST(AdmissionControllerTest, DisabledControllerIsIdentity) {
    OverloadConfig config;  // enabled = false
    config.max_limit = 16;
    obs::ManualClock clock;
    clock.set_ns(1'000'000);
    AdmissionController controller(config, &clock);
    EXPECT_FALSE(controller.enabled());
    for (int i = 0; i < 10; ++i) {
        clock.advance_ms(100.0);
        controller.on_finish(1e6);
    }
    EXPECT_EQ(controller.limit(), 16);
    EXPECT_FALSE(controller.codel_drop(1e6));
    EXPECT_EQ(controller.rung_for(Priority::kBatch), DegradeRung::kFull);
    EXPECT_EQ(controller.decreases(), 0);
}

// ---- per-client token bucket ------------------------------------------------

TEST(RateLimiterTest, BurstSpendRefillAndExemption) {
    util::RateLimitConfig config;
    config.qps = 2.0;
    config.burst = 2.0;
    util::RateLimiter limiter(config);
    ASSERT_TRUE(limiter.enabled());

    std::int64_t now = 0;
    EXPECT_TRUE(limiter.admit("alice", now));
    EXPECT_TRUE(limiter.admit("alice", now));
    EXPECT_FALSE(limiter.admit("alice", now));  // burst exhausted
    EXPECT_TRUE(limiter.admit("", now));        // anonymous: exempt
    EXPECT_TRUE(limiter.admit("", now));

    now += 500'000'000;  // +0.5s at 2 qps = one token back
    EXPECT_TRUE(limiter.admit("alice", now));
    EXPECT_FALSE(limiter.admit("alice", now));
    EXPECT_EQ(limiter.rejected(), 2);

    // Refill clamps at burst: a long idle gap does not bank tokens.
    now += 60'000'000'000;
    EXPECT_TRUE(limiter.admit("alice", now));
    EXPECT_TRUE(limiter.admit("alice", now));
    EXPECT_FALSE(limiter.admit("alice", now));
}

TEST(RateLimiterTest, UnconfiguredLimiterAdmitsEverything) {
    util::RateLimiter limiter(util::RateLimitConfig{});
    EXPECT_FALSE(limiter.enabled());
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(limiter.admit("alice", 0));
    EXPECT_EQ(limiter.rejected(), 0);
}

TEST(OverloadServiceTest, RateLimitedClientsShedWithAccounting) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    config.rate_limit.qps = 1.0;
    config.rate_limit.burst = 1.0;
    InferenceService service(shared_pipeline(), config);

    std::vector<std::future<RequestResult>> futures;
    for (int i = 0; i < 3; ++i) {
        InferenceRequest request = valid_request(10 + i, i);
        request.options.client_id = "bulk-client";
        futures.push_back(service.submit(std::move(request)));
    }
    int shed = 0;
    for (auto& f : futures) {
        const RequestResult r = f.get();
        if (r.outcome == Outcome::kShed) {
            ++shed;
            EXPECT_NE(r.message.find("rate limited"), std::string::npos);
        }
    }
    service.stop();
    // Burst 1 at 1 qps, three back-to-back submits: exactly two shed.
    EXPECT_EQ(shed, 2);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rate_limited, 2);
    EXPECT_EQ(stats.outcome(Outcome::kShed), 2);
    EXPECT_TRUE(stats.balanced());
}

// ---- expired-deadline admission (regression) --------------------------------

TEST(OverloadServiceTest, ExpiredDeadlineAtAdmissionIsTimeoutNotShed) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    InferenceService service(shared_pipeline(), config);

    // 1e-9 ms passes validation (finite, non-negative, under the cap)
    // but truncates to an already-expired steady-clock deadline.
    InferenceRequest request = valid_request(21);
    request.deadline_ms = 1e-9;
    const RequestResult result = service.submit(std::move(request)).get();
    EXPECT_EQ(result.outcome, Outcome::kTimeout);
    EXPECT_EQ(result.message, "deadline expired at admission");
    EXPECT_FALSE(result.cancelled);
    // Never enqueued: the queue-wait accounting window must stay empty.
    EXPECT_EQ(result.queue_ms, 0.0);

    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.outcome(Outcome::kTimeout), 1);
    EXPECT_EQ(stats.outcome(Outcome::kShed), 0);
    EXPECT_TRUE(stats.balanced());
}

TEST(OverloadServiceTest, ExpiredDeadlineBeatsQueueFullClassification) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    config.queue_capacity = 1;
    InferenceService service(shared_pipeline(), config);

    // Keep the worker and the queue busy, then submit an expired
    // request: it must classify kTimeout even if the queue is full.
    std::vector<std::future<RequestResult>> busy;
    busy.push_back(service.submit(valid_request(31, 0)));
    busy.push_back(service.submit(valid_request(32, 1)));
    InferenceRequest expired = valid_request(33, 2);
    expired.deadline_ms = 1e-9;
    const RequestResult result = service.submit(std::move(expired)).get();
    EXPECT_EQ(result.outcome, Outcome::kTimeout);
    EXPECT_EQ(result.message, "deadline expired at admission");
    for (auto& f : busy) f.get();
    service.stop();
    EXPECT_TRUE(service.stats().balanced());
}

// ---- priority queueing ------------------------------------------------------

/// Absolute pickup instant (ms since t0) of a request submitted at
/// `submitted` whose result reports `queue_ms` of queue wait.
double pickup_ms(std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point submitted,
                 const RequestResult& result) {
    const double submit_ms =
        std::chrono::duration<double, std::milli>(submitted - t0).count();
    return submit_ms + result.queue_ms;
}

TEST(OverloadServiceTest, InteractiveDequeuesBeforeBatch) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    config.overload.batch_max_wait_ms = 1e9;  // starvation bound inert
    InferenceService service(shared_pipeline(), config);

    const auto t0 = std::chrono::steady_clock::now();
    // Occupy the single worker, then enqueue batch before interactive.
    auto first = service.submit(valid_request(41, 0));
    InferenceRequest batch = valid_request(42, 1);
    batch.options.priority = Priority::kBatch;
    const auto batch_at = std::chrono::steady_clock::now();
    auto batch_future = service.submit(std::move(batch));
    const auto inter_at = std::chrono::steady_clock::now();
    auto inter_future = service.submit(valid_request(43, 2));

    const RequestResult inter = inter_future.get();
    const RequestResult batched = batch_future.get();
    first.get();
    service.stop();

    // The interactive request submitted later was picked up earlier.
    EXPECT_LT(pickup_ms(t0, inter_at, inter),
              pickup_ms(t0, batch_at, batched));
    EXPECT_TRUE(service.stats().balanced());
}

TEST(OverloadServiceTest, AgedBatchHeadBeatsInteractive) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    config.overload.batch_max_wait_ms = 0.0;  // any wait trips the bound
    InferenceService service(shared_pipeline(), config);

    const auto t0 = std::chrono::steady_clock::now();
    auto first = service.submit(valid_request(51, 0));
    InferenceRequest batch = valid_request(52, 1);
    batch.options.priority = Priority::kBatch;
    const auto batch_at = std::chrono::steady_clock::now();
    auto batch_future = service.submit(std::move(batch));
    const auto inter_at = std::chrono::steady_clock::now();
    auto inter_future = service.submit(valid_request(53, 2));

    const RequestResult inter = inter_future.get();
    const RequestResult batched = batch_future.get();
    first.get();
    service.stop();

    EXPECT_LT(pickup_ms(t0, batch_at, batched),
              pickup_ms(t0, inter_at, inter));
    EXPECT_TRUE(service.stats().balanced());
}

// ---- degraded generation paths ---------------------------------------------

TEST(OverloadPipelineTest, DegradedControlsProduceFiniteFullSizeImages) {
    const AeroDiffusionPipeline& pipeline = shared_pipeline();
    const scene::AerialSample& ref = shared_substrate().dataset->test()[0];
    const std::string caption = shared_substrate().keypoint_test[0].text;
    const int size = Budget::smoke().image_size;

    core::GenerateControl control;
    control.max_steps = 2;
    control.half_resolution = true;
    util::Rng rng(42);
    const image::Image degraded =
        pipeline.generate(ref, caption, caption, rng, -1, &control);
    ASSERT_FALSE(degraded.empty());
    EXPECT_EQ(degraded.width(), size);
    EXPECT_EQ(degraded.height(), size);
    for (const float v : degraded.data()) ASSERT_TRUE(std::isfinite(v));

    // A default control block is bitwise-identical to no control block.
    util::Rng rng_a(43), rng_b(43);
    core::GenerateControl inert;
    const image::Image plain =
        pipeline.generate(ref, caption, caption, rng_a, -1, nullptr);
    const image::Image with_inert =
        pipeline.generate(ref, caption, caption, rng_b, -1, &inert);
    ASSERT_EQ(plain.data().size(), with_inert.data().size());
    EXPECT_EQ(std::memcmp(plain.data().data(), with_inert.data().data(),
                          plain.data().size() * sizeof(float)),
              0);
}

// ---- ladder end to end ------------------------------------------------------

TEST(OverloadServiceTest, SaturatedLadderShedsAtAdmission) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    config.overload.enabled = true;
    config.overload.latency_target_ms = 1e-3;  // everything overshoots
    // Long interval: the second submit's poll() must not decay the
    // index before the rung is read.
    config.overload.interval_ms = 1000.0;
    config.overload.load_smoothing = 1.0;
    InferenceService service(shared_pipeline(), config);

    // First request admits at kFull (no load signal yet) and, on
    // finish, drives the load index far past the shed threshold.
    const RequestResult first = service.submit(valid_request(61, 0)).get();
    EXPECT_EQ(first.rung, DegradeRung::kFull);
    ASSERT_TRUE(first.outcome == Outcome::kOk ||
                first.outcome == Outcome::kDegraded);

    const RequestResult second = service.submit(valid_request(62, 1)).get();
    EXPECT_EQ(second.outcome, Outcome::kShed);
    EXPECT_EQ(second.rung, DegradeRung::kShed);
    EXPECT_NE(second.message.find("degradation ladder"), std::string::npos);

    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.by_rung[static_cast<int>(DegradeRung::kFull)], 1);
    EXPECT_EQ(stats.by_rung[static_cast<int>(DegradeRung::kShed)], 1);
    long long rung_sum = 0;
    for (const long long n : stats.by_rung) rung_sum += n;
    EXPECT_EQ(rung_sum, stats.terminal());
    EXPECT_TRUE(stats.balanced());
}

// ---- AERO_OVERLOAD=0 bitwise neutrality -------------------------------------

TEST(OverloadServiceTest, DisabledSwitchIsBitwiseNeutral) {
    ServiceConfig plain_config = basic_config();
    plain_config.workers = 1;
    image::Image baseline;
    {
        InferenceService service(shared_pipeline(), plain_config);
        const RequestResult r = service.submit(valid_request(71, 0)).get();
        ASSERT_EQ(r.outcome, Outcome::kOk);
        baseline = r.image;
    }

    // Aggressive overload config, but the process switch is off: every
    // result must match the plain service bit for bit.
    const bool prev = overload_enabled();
    set_overload_enabled(false);
    {
        ServiceConfig config = plain_config;
        config.overload.enabled = true;
        config.overload.latency_target_ms = 1e-3;
        config.overload.interval_ms = 0.0;
        config.overload.load_smoothing = 1.0;
        InferenceService service(shared_pipeline(), config);
        for (int i = 0; i < 2; ++i) {
            InferenceRequest request = valid_request(71, 0);
            if (i == 1) request.options.priority = Priority::kBatch;
            const RequestResult r = service.submit(std::move(request)).get();
            ASSERT_EQ(r.outcome, Outcome::kOk);
            EXPECT_EQ(r.rung, DegradeRung::kFull);
            ASSERT_EQ(r.image.data().size(), baseline.data().size());
            EXPECT_EQ(std::memcmp(r.image.data().data(),
                                  baseline.data().data(),
                                  baseline.data().size() * sizeof(float)),
                      0);
        }
        EXPECT_TRUE(service.stats().balanced());
    }
    set_overload_enabled(prev);
}

// ---- chaos soak (TSan-covered via scripts/check.sh) -------------------------

TEST(OverloadChaosTest, ServiceSoakStaysBalancedUnderSpikesAndFaults) {
    util::FaultInjector injector(1234);
    injector.set_fail_rate("overload_spike", 0.2);

    ServiceConfig config = basic_config();
    config.workers = 4;
    config.queue_capacity = 8;
    config.overload.enabled = true;
    config.overload.latency_target_ms = 30.0;
    config.overload.batch_max_wait_ms = 20.0;
    config.rate_limit.qps = 200.0;
    config.rate_limit.burst = 8.0;
    config.fault_injector = &injector;
    InferenceService service(shared_pipeline(), config);

    constexpr int kRequests = 48;
    std::vector<std::future<RequestResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        InferenceRequest request = valid_request(100 + i, i);
        if (i % 3 == 0) request.options.priority = Priority::kBatch;
        if (i % 4 == 0) request.deadline_ms = 200.0;
        request.options.client_id = (i % 2 == 0) ? "alice" : "bob";
        futures.push_back(service.submit(std::move(request)));
    }
    for (auto& f : futures) {
        const RequestResult r = f.get();
        if (r.outcome == Outcome::kOk || r.outcome == Outcome::kDegraded) {
            ASSERT_FALSE(r.image.empty());
        }
    }
    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kRequests);
    EXPECT_TRUE(stats.balanced());
}

}  // namespace
