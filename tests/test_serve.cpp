// Serving-layer tests: boundary validation (incl. fuzz), the circuit
// breaker state machine, the threaded InferenceService under load
// shedding, deadlines, injected transient/encoder faults and a mixed
// soak, and admission control: the per-client token bucket, deadlines
// that expire before admission, and priority dequeue ordering with the
// anti-starvation bound. The accounting invariant checked throughout:
// every submit() resolves with exactly one typed outcome and
// stats().balanced() holds.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "serve/service.hpp"
#include "text/parser.hpp"
#include "text/vocabulary.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
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
using Kind = aero::diffusion::SamplerJob::Kind;

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

/// Untrained (randomly initialised) pipeline: weights are finite, which
/// is all the serving tests need, and it keeps the fixture fast.
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

ValidationLimits smoke_limits() {
    ValidationLimits limits;
    limits.image_size = Budget::smoke().image_size;
    return limits;
}

ServiceConfig basic_config() {
    ServiceConfig config;
    config.limits = smoke_limits();
    return config;
}

void expect_finite_image(const image::Image& img, int size) {
    ASSERT_FALSE(img.empty());
    EXPECT_EQ(img.width(), size);
    EXPECT_EQ(img.height(), size);
    for (const float v : img.data()) ASSERT_TRUE(std::isfinite(v));
}

// ---- validation -------------------------------------------------------------

TEST(ServeValidationTest, AcceptsGrammarCaptionsAndClampsRoi) {
    const ValidationLimits limits = smoke_limits();
    InferenceRequest request = valid_request();
    std::string message;
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kNone);

    // Partially out-of-bounds inpaint region is clamped, not rejected.
    request.task.kind = Kind::kInpaint;
    request.task.region = {-4.0f, -4.0f, 12.0f, 12.0f};
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kNone);
    EXPECT_GE(request.task.region.x, 0.0f);
    EXPECT_GE(request.task.region.y, 0.0f);
    EXPECT_LE(request.task.region.x + request.task.region.w,
              static_cast<float>(limits.image_size));
}

TEST(ServeValidationTest, TypedRejections) {
    const ValidationLimits limits = smoke_limits();
    std::string message;

    InferenceRequest request = valid_request();
    request.source_caption = "   ";
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kEmptyCaption);

    request = valid_request();
    request.target_caption = std::string(limits.max_caption_chars + 1, 'a');
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kCaptionTooLong);

    request = valid_request();
    request.source_caption = "an aerial\x01view";
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kCaptionNotText);

    request = valid_request();
    request.source_caption = "qwfp zxcv jklh wruy mnbt asdg";
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kCaptionUnknownWords);

    request = valid_request();
    request.reference.image.at(3, 3, 1) =
        std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadReferenceImage);

    request = valid_request();
    request.reference.image = image::Image(8, 8);
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadReferenceImage);

    request = valid_request();
    request.deadline_ms = -1.0;
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadDeadline);

    request = valid_request();
    request.deadline_ms = std::numeric_limits<double>::infinity();
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadDeadline);

    request = valid_request();
    request.task.kind = Kind::kEdit;
    request.task.strength = 0.0f;
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadStrength);

    // Non-finite strengths must die here: NaN sails through std::clamp,
    // and downstream it would reach a float -> size_t cast (UB).
    request = valid_request();
    request.task.kind = Kind::kEdit;
    request.task.strength = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadStrength);
    request.task.strength = std::numeric_limits<float>::infinity();
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadStrength);

    request = valid_request();
    request.task.kind = Kind::kInpaint;
    request.task.region = {200.0f, 200.0f, 4.0f, 4.0f};  // fully outside
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadRegion);

    request = valid_request();
    request.task.kind = Kind::kInpaint;
    request.task.region = {2.0f, 2.0f,
                           std::numeric_limits<float>::quiet_NaN(), 4.0f};
    EXPECT_EQ(validate_request(request, limits, &message),
              InvalidReason::kBadRegion);
}

/// Fuzz-style garbage through every boundary parser: request validation,
/// the caption parser, the vocabulary tokeniser and the strict JSON
/// parser must type or reject everything — and never crash. (Run under
/// ASan/UBSan via scripts/check.sh.)
TEST(ServeValidationTest, FuzzGarbageNeverCrashes) {
    const ValidationLimits limits = smoke_limits();
    util::Rng rng(0xfa22);
    for (int i = 0; i < 300; ++i) {
        const int length = rng.uniform_int(0, 600);
        std::string garbage(static_cast<std::size_t>(length), '\0');
        for (char& c : garbage) {
            c = static_cast<char>(rng.uniform_int(0, 255));
        }

        InferenceRequest request = valid_request();
        request.task.kind = static_cast<Kind>(rng.uniform_int(0, 2));
        request.source_caption = garbage;
        request.target_caption = garbage;
        request.task.strength = static_cast<float>(rng.uniform(-2.0, 2.0));
        request.deadline_ms = rng.uniform(-1e9, 1e9);
        request.task.region = {
            static_cast<float>(rng.uniform(-100.0, 100.0)),
            static_cast<float>(rng.uniform(-100.0, 100.0)),
            static_cast<float>(rng.uniform(-50.0, 50.0)),
            static_cast<float>(rng.uniform(-50.0, 50.0))};
        std::string message;
        (void)validate_request(request, limits, &message);

        // Truncated / oversized / binary input through the text stack.
        (void)text::parse_caption(garbage);
        (void)text::Vocabulary::aerial().encode(garbage);
        (void)text::parse_scenario(garbage);

        // ... and through the strict JSON parser.
        util::JsonValue parsed;
        std::string error;
        (void)util::json_parse(garbage, &parsed, &error);
    }
    // Truncations of a well-formed document must all be rejected or
    // parsed — never crash or hang.
    const std::string doc =
        "{\"format\": 2, \"name\": \"AeroDiffusion\", \"step\": 64}";
    for (std::size_t keep = 0; keep < doc.size(); ++keep) {
        util::JsonValue parsed;
        EXPECT_FALSE(util::json_parse(doc.substr(0, keep), &parsed));
    }
}

// ---- pipeline entry-point hardening ----------------------------------------

TEST(PipelineHardeningTest, RejectsNonFiniteReference) {
    const AeroDiffusionPipeline& pipeline = shared_pipeline();
    util::Rng rng(3);
    scene::AerialSample bad = shared_substrate().dataset->test()[0];
    bad.image.at(0, 0, 0) = std::numeric_limits<float>::infinity();

    core::GenerateControl control;
    const image::Image out =
        pipeline.generate(bad, "an aerial view", "an aerial view", rng, -1,
                          &control);
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(control.error.empty());

    // Control-free call sites get an empty image, not UB.
    EXPECT_TRUE(pipeline.generate(bad, "a", "a", rng).empty());
    EXPECT_TRUE(pipeline
                    .generate(bad, "a", "a", rng, -1, nullptr,
                              {.kind = Kind::kEdit})
                    .empty());
}

TEST(PipelineHardeningTest, RejectsWrongSizeReference) {
    const AeroDiffusionPipeline& pipeline = shared_pipeline();
    util::Rng rng(3);
    scene::AerialSample bad = shared_substrate().dataset->test()[0];
    bad.image = image::Image(4, 4, {0.5f, 0.5f, 0.5f});
    EXPECT_TRUE(pipeline.generate(bad, "a", "a", rng).empty());
}

TEST(PipelineHardeningTest, ClampRegionContract) {
    std::string error;
    // NaN -> reject.
    EXPECT_FALSE(AeroDiffusionPipeline::clamp_region(
        {std::nanf(""), 0.0f, 4.0f, 4.0f}, 32, &error));
    // Non-positive size -> reject.
    EXPECT_FALSE(
        AeroDiffusionPipeline::clamp_region({1.0f, 1.0f, 0.0f, 4.0f}, 32,
                                            &error));
    EXPECT_FALSE(
        AeroDiffusionPipeline::clamp_region({1.0f, 1.0f, 4.0f, -2.0f}, 32,
                                            &error));
    // Entirely outside -> reject.
    EXPECT_FALSE(
        AeroDiffusionPipeline::clamp_region({40.0f, 0.0f, 4.0f, 4.0f}, 32,
                                            &error));
    // Partial overlap -> clamped to the intersection.
    const auto clamped = AeroDiffusionPipeline::clamp_region(
        {-2.0f, 30.0f, 6.0f, 6.0f}, 32, &error);
    ASSERT_TRUE(clamped);
    EXPECT_FLOAT_EQ(clamped->x, 0.0f);
    EXPECT_FLOAT_EQ(clamped->w, 4.0f);
    EXPECT_FLOAT_EQ(clamped->y, 30.0f);
    EXPECT_FLOAT_EQ(clamped->h, 2.0f);

    const auto inpainted = AeroDiffusionPipeline::clamp_region(
        {8.0f, 8.0f, 8.0f, 8.0f}, 32, &error);
    ASSERT_TRUE(inpainted);
    EXPECT_FLOAT_EQ(inpainted->w, 8.0f);
}

TEST(PipelineHardeningTest, InpaintWithWildRegionIsSafe) {
    const AeroDiffusionPipeline& pipeline = shared_pipeline();
    const auto& sample = shared_substrate().dataset->test()[0];
    util::Rng rng(11);
    // Fully outside: typed rejection, empty image.
    core::GenerateControl control;
    EXPECT_TRUE(pipeline
                    .generate(sample, "a", "a", rng, -1, &control,
                              {.kind = Kind::kInpaint,
                               .region = {900.0f, 900.0f, 5.0f, 5.0f}})
                    .empty());
    EXPECT_FALSE(control.error.empty());
    // Partially outside: clamped and rendered.
    const image::Image out = pipeline.generate(
        sample, "a", "a", rng, -1, nullptr,
        {.kind = Kind::kInpaint, .region = {-10.0f, -10.0f, 20.0f, 20.0f}});
    expect_finite_image(out, shared_substrate().budget.image_size);
}

// ---- circuit breaker --------------------------------------------------------

TEST(CircuitBreakerTest, TripCooldownProbeRecover) {
    CircuitBreaker breaker({/*failure_threshold=*/2, /*open_cooldown=*/3});
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

    EXPECT_TRUE(breaker.allow_conditional());
    breaker.on_failure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    breaker.on_failure();  // second consecutive failure trips it
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(breaker.trips(), 1);

    // Cooldown: requests are forced unconditional while Open.
    EXPECT_FALSE(breaker.allow_conditional());
    EXPECT_FALSE(breaker.allow_conditional());
    // Cooldown exhausted: this caller carries the half-open probe.
    EXPECT_TRUE(breaker.allow_conditional());
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    // Only one probe in flight; concurrent requests stay degraded.
    EXPECT_FALSE(breaker.allow_conditional());

    // probe failed: re-open for another cooldown
    breaker.on_failure(/*held_probe=*/true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(breaker.trips(), 2);
    EXPECT_FALSE(breaker.allow_conditional());
    EXPECT_FALSE(breaker.allow_conditional());
    EXPECT_TRUE(breaker.allow_conditional());  // next probe
    breaker.on_success(/*held_probe=*/true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(breaker.recoveries(), 1);

    // A success resets the failure streak.
    breaker.on_failure();
    breaker.on_success();
    breaker.on_failure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, AbandonedProbeFreesTheSlot) {
    CircuitBreaker breaker({/*failure_threshold=*/1, /*open_cooldown=*/1});
    breaker.on_failure();  // trips immediately
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

    bool probe = false;
    EXPECT_TRUE(breaker.allow_conditional(&probe));
    EXPECT_TRUE(probe);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_FALSE(breaker.allow_conditional(&probe));
    EXPECT_FALSE(probe);

    // The holder bails without a verdict (deadline cancellation): the
    // slot frees, the state stays HalfOpen, and the next request
    // carries a fresh probe instead of the breaker wedging.
    breaker.on_probe_abandoned();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_TRUE(breaker.allow_conditional(&probe));
    EXPECT_TRUE(probe);
    breaker.on_success(/*held_probe=*/true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(breaker.recoveries(), 1);
}

// Regression (found by the thread-safety annotation pass): a request
// admitted while the breaker was still Closed can deliver its verdict
// after a trip + cooldown has moved the breaker to HalfOpen. That stale
// verdict must neither close the breaker (fake recovery without a
// probe) nor re-open it (resetting the cooldown under the in-flight
// probe). Only the probe holder transitions out of HalfOpen.
TEST(CircuitBreakerTest, StaleVerdictCannotCloseHalfOpenBreaker) {
    CircuitBreaker breaker({/*failure_threshold=*/1, /*open_cooldown=*/1});
    // A slow request admitted while Closed...
    EXPECT_TRUE(breaker.allow_conditional());
    // ...then the breaker trips and reaches HalfOpen via another request.
    breaker.on_failure();
    bool probe = false;
    EXPECT_TRUE(breaker.allow_conditional(&probe));
    EXPECT_TRUE(probe);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

    // The slow request's success arrives: stale, ignored.
    breaker.on_success(/*held_probe=*/false);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_EQ(breaker.recoveries(), 0);

    // And its failure twin would be equally ignored: the cooldown is
    // not reset and the probe slot stays owned by the real probe.
    breaker.on_failure(/*held_probe=*/false);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_EQ(breaker.trips(), 1);

    // The real probe's verdict still decides recovery.
    breaker.on_success(/*held_probe=*/true);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(breaker.recoveries(), 1);
}

TEST(CircuitBreakerTest, StaleFailureWhileOpenDoesNotExtendCooldown) {
    CircuitBreaker breaker({/*failure_threshold=*/1, /*open_cooldown=*/2});
    EXPECT_TRUE(breaker.allow_conditional());  // slow request, Closed
    breaker.on_failure();                      // trips Open
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

    // One cooldown request passes, then the slow request's failure
    // lands. It must not restart the cooldown: the next distinct
    // request still wins the probe.
    EXPECT_FALSE(breaker.allow_conditional());
    breaker.on_failure(/*held_probe=*/false);
    EXPECT_EQ(breaker.trips(), 1);
    bool probe = false;
    EXPECT_TRUE(breaker.allow_conditional(&probe));
    EXPECT_TRUE(probe);
}

TEST(CircuitBreakerTest, RetryAttemptsDoNotCountTowardCooldown) {
    CircuitBreaker breaker({/*failure_threshold=*/1, /*open_cooldown=*/2});
    breaker.on_failure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

    // Retry attempts (count_cooldown=false) leave the cooldown alone,
    // no matter how many a single request burns.
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(breaker.allow_conditional(nullptr, false));
    }
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

    // Exactly open_cooldown distinct requests reach the probe.
    EXPECT_FALSE(breaker.allow_conditional());
    bool probe = false;
    EXPECT_TRUE(breaker.allow_conditional(&probe));
    EXPECT_TRUE(probe);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

// ---- service ----------------------------------------------------------------

TEST(InferenceServiceTest, HappyPathServesConditionalSamples) {
    ServiceConfig config = basic_config();
    config.workers = 2;
    InferenceService service(shared_pipeline(), config);

    std::vector<std::future<RequestResult>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(
            service.submit(valid_request(100 + i, i)));
    }
    for (auto& future : futures) {
        const RequestResult result = future.get();
        EXPECT_EQ(result.outcome, Outcome::kOk) << result.message;
        EXPECT_EQ(result.attempts, 1);
        expect_finite_image(result.image,
                            shared_substrate().budget.image_size);
        EXPECT_GE(result.latency_ms, result.queue_ms);
    }
    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 4);
    EXPECT_EQ(stats.outcome(Outcome::kOk), 4);
    EXPECT_TRUE(stats.balanced());
    EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
}

TEST(InferenceServiceTest, DeterministicAcrossWorkerAssignment) {
    ServiceConfig config = basic_config();
    config.workers = 3;
    InferenceService service(shared_pipeline(), config);
    auto a = service.submit(valid_request(42, 1)).get();
    // The priority class picks a queue, never the image.
    InferenceRequest batch = valid_request(42, 1);
    batch.options.priority = Priority::kBatch;
    auto b = service.submit(std::move(batch)).get();
    ASSERT_EQ(a.outcome, Outcome::kOk);
    ASSERT_EQ(b.outcome, Outcome::kOk);
    EXPECT_EQ(a.image.data(), b.image.data());
}

TEST(InferenceServiceTest, PipelineRejectsNonFiniteEditStrength) {
    // Defence in depth below validation: a caller driving the pipeline
    // directly with a NaN/Inf strength gets a typed rejection, not a
    // NaN-poisoned clamp feeding a size_t cast.
    util::Rng rng(9);
    const scene::AerialSample& reference = shared_substrate().dataset->test()[0];
    const std::string caption = valid_request().source_caption;
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
        core::GenerateControl control;
        const image::Image out = shared_pipeline().generate(
            reference, caption, caption, rng, -1, &control,
            {.kind = Kind::kEdit, .strength = bad});
        EXPECT_TRUE(out.empty());
        EXPECT_FALSE(control.error.empty());
    }
}

TEST(InferenceServiceTest, BatchedOutputBitwiseEqualsSequential) {
    // The tentpole contract end to end: a service whose workers hand
    // sampling jobs to the continuous step batcher returns images
    // bitwise identical to a batching-disabled service, per seed,
    // across generate/edit/inpaint.
    const bool gate = serve::batching_enabled();
    serve::set_batching_enabled(true);
    const auto requests = [] {
        std::vector<InferenceRequest> batch;
        for (int i = 0; i < 6; ++i) {
            InferenceRequest request = valid_request(500 + i, i);
            if (i % 3 == 1) {
                request.task.kind = Kind::kEdit;
                request.task.strength = 0.5f;
            } else if (i % 3 == 2) {
                request.task.kind = Kind::kInpaint;
                request.task.region = {2.0f, 2.0f, 8.0f, 8.0f};
            }
            batch.push_back(std::move(request));
        }
        return batch;
    };

    const auto run = [&](bool batched) {
        ServiceConfig config = basic_config();
        config.workers = batched ? 4 : 2;
        config.batch.batch_max = batched ? 4 : 1;
        InferenceService service(shared_pipeline(), config);
        std::vector<std::future<RequestResult>> futures;
        for (InferenceRequest& request : requests()) {
            futures.push_back(service.submit(std::move(request)));
        }
        std::vector<image::Image> images;
        for (auto& future : futures) {
            RequestResult result = future.get();
            EXPECT_EQ(result.outcome, Outcome::kOk) << result.message;
            images.push_back(std::move(result.image));
        }
        service.stop();
        EXPECT_TRUE(service.stats().balanced());
        return images;
    };

    const std::vector<image::Image> sequential = run(false);
    const std::vector<image::Image> batched = run(true);
    serve::set_batching_enabled(gate);
    ASSERT_EQ(sequential.size(), batched.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(sequential[i].data(), batched[i].data())
            << "request " << i << " diverged under batching";
    }
}

TEST(InferenceServiceTest, ShedsWhenQueueIsFull) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    config.queue_capacity = 2;
    InferenceService service(shared_pipeline(), config);

    const int total = 12;
    std::vector<std::future<RequestResult>> futures;
    for (int i = 0; i < total; ++i) {
        futures.push_back(service.submit(valid_request(200 + i, i)));
    }
    int ok = 0;
    int shed = 0;
    for (auto& future : futures) {
        const RequestResult result = future.get();
        ASSERT_TRUE(result.outcome == Outcome::kOk ||
                    result.outcome == Outcome::kShed)
            << outcome_name(result.outcome);
        if (result.outcome == Outcome::kOk) {
            ++ok;
        } else {
            ++shed;
            EXPECT_TRUE(result.image.empty());
            EXPECT_EQ(result.attempts, 0);
        }
    }
    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.outcome(Outcome::kOk), ok);
    EXPECT_EQ(stats.outcome(Outcome::kShed), shed);
    EXPECT_TRUE(stats.balanced());
    EXPECT_GT(shed, 0);  // 1 worker, capacity 2, 12 fast submits
    EXPECT_GT(ok, 0);
}

TEST(InferenceServiceTest, InvalidRequestsResolveImmediately) {
    InferenceService service(shared_pipeline(), basic_config());
    InferenceRequest bad = valid_request();
    bad.source_caption.clear();
    const RequestResult result = service.submit(std::move(bad)).get();
    EXPECT_EQ(result.outcome, Outcome::kInvalid);
    EXPECT_EQ(result.invalid_reason, InvalidReason::kEmptyCaption);
    EXPECT_TRUE(result.image.empty());
    EXPECT_TRUE(service.stats().balanced());
}

TEST(InferenceServiceTest, DeadlinedRequestsNeverHalfRendered) {
    ServiceConfig config = basic_config();
    config.workers = 2;
    InferenceService service(shared_pipeline(), config);

    std::vector<std::future<RequestResult>> futures;
    for (int i = 0; i < 6; ++i) {
        InferenceRequest request = valid_request(300 + i, i);
        request.deadline_ms = 0.01;  // expires before any step completes
        futures.push_back(service.submit(std::move(request)));
    }
    for (auto& future : futures) {
        const RequestResult result = future.get();
        EXPECT_EQ(result.outcome, Outcome::kTimeout) << result.message;
        EXPECT_TRUE(result.image.empty());
    }
    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.outcome(Outcome::kTimeout), 6);
    EXPECT_TRUE(stats.balanced());
}

TEST(InferenceServiceTest, RetriesRecoverFromTransientFaults) {
    util::FaultInjector injector(0xbeef);
    injector.set_fail_rate("serve_transient", 0.5);

    ServiceConfig config = basic_config();
    config.workers = 2;
    config.queue_capacity = 16;  // no shedding: this test isolates retry
    config.max_attempts = 6;
    config.backoff_base_ms = 0.1;
    config.backoff_max_ms = 0.5;
    config.fault_injector = &injector;
    InferenceService service(shared_pipeline(), config);

    const int total = 10;
    std::vector<std::future<RequestResult>> futures;
    for (int i = 0; i < total; ++i) {
        futures.push_back(service.submit(valid_request(400 + i, i)));
    }
    int ok = 0;
    for (auto& future : futures) {
        const RequestResult result = future.get();
        ASSERT_TRUE(result.outcome == Outcome::kOk ||
                    result.outcome == Outcome::kFailed)
            << outcome_name(result.outcome);
        if (result.outcome == Outcome::kOk) ++ok;
    }
    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_TRUE(stats.balanced());
    // At 50% transient rate and 6 attempts nearly all recover, and the
    // recovery must show up as retries.
    EXPECT_GE(ok, total / 2);
    EXPECT_GT(stats.retries, 0);
    EXPECT_GT(injector.injected_count(), 0);
}

TEST(InferenceServiceTest, BreakerTripsThenRecoversViaProbe) {
    util::FaultInjector injector(0xc0de);
    injector.set_fail_rate("condition_encoder", 1.0);

    ServiceConfig config = basic_config();
    config.workers = 1;  // serialise requests for a deterministic walk
    config.max_attempts = 2;
    config.backoff_base_ms = 0.05;
    config.breaker.failure_threshold = 2;
    config.breaker.open_cooldown = 2;
    config.fault_injector = &injector;
    InferenceService service(shared_pipeline(), config);

    // Outage: every conditional attempt fails. Requests still complete —
    // degraded — and the repeated failures trip the breaker.
    for (int i = 0; i < 3; ++i) {
        const RequestResult result =
            service.submit(valid_request(500 + i, i)).get();
        EXPECT_EQ(result.outcome, Outcome::kDegraded) << result.message;
        expect_finite_image(result.image,
                            shared_substrate().budget.image_size);
    }
    EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);
    const int trips_after_outage = service.stats().breaker_trips;
    EXPECT_GE(trips_after_outage, 1);

    // While the outage lasts, requests keep completing — degraded, with
    // a finite unconditional image — whether forced by the open breaker
    // or via a failed half-open probe.
    const RequestResult open_result =
        service.submit(valid_request(510, 0)).get();
    EXPECT_EQ(open_result.outcome, Outcome::kDegraded);

    // Encoder heals; after the cooldown a probe closes the breaker.
    injector.set_fail_rate("condition_encoder", 0.0);
    bool recovered = false;
    for (int i = 0; i < 6; ++i) {
        const RequestResult result =
            service.submit(valid_request(520 + i, i)).get();
        if (result.outcome == Outcome::kOk) {
            recovered = true;
            break;
        }
        EXPECT_EQ(result.outcome, Outcome::kDegraded);
    }
    EXPECT_TRUE(recovered);
    EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_GE(stats.breaker_recoveries, 1);
    EXPECT_TRUE(stats.balanced());
}

TEST(InferenceServiceTest, ConcurrentStopJoinsWorkersOnce) {
    InferenceService service(shared_pipeline(), basic_config());
    std::future<RequestResult> pending =
        service.submit(valid_request(800, 0));
    // An explicit stop() racing another (stands in for the destructor):
    // exactly one caller may join each worker thread.
    std::thread racer([&service] { service.stop(); });
    service.stop();
    racer.join();
    // stop() drains queued work before joining, so the request still
    // resolves with a real outcome.
    EXPECT_EQ(pending.get().outcome, Outcome::kOk);
    EXPECT_TRUE(service.stats().balanced());
    // Admission stays closed: a late submit resolves kShed at once and
    // still lands in the books.
    EXPECT_EQ(service.submit(valid_request(801, 1)).get().outcome,
              Outcome::kShed);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 2);
    EXPECT_TRUE(stats.balanced());
}

TEST(InferenceServiceTest, AbandonedProbeDoesNotWedgeBreaker) {
    util::FaultInjector injector(0xabcd);
    injector.set_fail_rate("condition_encoder", 1.0);

    ServiceConfig config = basic_config();
    config.workers = 1;
    config.max_attempts = 1;
    config.breaker.failure_threshold = 1;
    config.breaker.open_cooldown = 1;
    config.slow_fault_ms = 100.0;
    config.fault_injector = &injector;
    InferenceService service(shared_pipeline(), config);

    // One failed conditional attempt trips the breaker.
    EXPECT_EQ(service.submit(valid_request(700, 0)).get().outcome,
              Outcome::kDegraded);
    EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);

    // The next request wins the half-open probe, then stalls past its
    // deadline (injected slow step) and is cancelled between denoising
    // steps — an exit that once leaked the probe slot forever.
    injector.set_fail_rate("serve_slow", 1.0);
    InferenceRequest stalled = valid_request(701, 1);
    stalled.deadline_ms = 30.0;
    const RequestResult cancelled = service.submit(std::move(stalled)).get();
    EXPECT_EQ(cancelled.outcome, Outcome::kTimeout) << cancelled.message;
    EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kHalfOpen);

    // Everything heals: the freed slot lets the very next request
    // probe, succeed, and close the breaker.
    injector.set_fail_rate("serve_slow", 0.0);
    injector.set_fail_rate("condition_encoder", 0.0);
    const RequestResult recovered =
        service.submit(valid_request(702, 2)).get();
    EXPECT_EQ(recovered.outcome, Outcome::kOk) << recovered.message;
    EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);
    service.stop();

    const ServiceStats stats = service.stats();
    EXPECT_GE(stats.breaker_recoveries, 1);
    EXPECT_TRUE(stats.balanced());
}

/// Acceptance soak: random encoder failures, transient faults, malformed
/// requests, impossible deadlines, queue overload, mixed priorities and
/// two rate-limited clients all at once. The service must finish with
/// zero crashes, zero non-finite outputs, a typed outcome per request,
/// and balanced accounting. TSan-covered via scripts/check.sh.
TEST(InferenceServiceTest, FaultInjectionSoak) {
    util::FaultInjector injector(0x50a4);
    injector.set_fail_rate("condition_encoder", 0.3);
    injector.set_fail_rate("serve_transient", 0.15);

    ServiceConfig config = basic_config();
    config.workers = 3;
    config.queue_capacity = 5;
    config.max_attempts = 3;
    config.backoff_base_ms = 0.1;
    config.backoff_max_ms = 1.0;
    config.breaker.failure_threshold = 3;
    config.breaker.open_cooldown = 3;
    config.batch_max_wait_ms = 20.0;
    config.rate_limit.qps = 200.0;
    config.rate_limit.burst = 8.0;
    config.fault_injector = &injector;
    InferenceService service(shared_pipeline(), config);

    const int total = 36;
    const int size = shared_substrate().budget.image_size;
    std::vector<std::future<RequestResult>> futures;
    for (int i = 0; i < total; ++i) {
        InferenceRequest request = valid_request(600 + i, i);
        if (i % 3 == 0) request.options.priority = Priority::kBatch;
        request.options.client_id = (i % 2 == 0) ? "alice" : "bob";
        switch (i % 9) {
            case 3:  // malformed: binary caption
                request.source_caption = std::string("\xff\xfe garbage");
                break;
            case 5:  // malformed: poisoned pixels
                request.reference.image.at(1, 1, 0) =
                    std::numeric_limits<float>::quiet_NaN();
                break;
            case 6:  // impossible deadline
                request.deadline_ms = 0.01;
                break;
            case 7:
                request.task.kind = Kind::kEdit;
                request.task.strength = 0.4f;
                break;
            case 8:
                request.task.kind = Kind::kInpaint;
                request.task.region = {4.0f, 4.0f, 12.0f, 12.0f};
                break;
            default: break;
        }
        futures.push_back(service.submit(std::move(request)));
    }

    int with_image = 0;
    for (int i = 0; i < total; ++i) {
        const RequestResult result = futures[static_cast<std::size_t>(i)].get();
        const int o = static_cast<int>(result.outcome);
        ASSERT_GE(o, 0);
        ASSERT_LT(o, kNumOutcomes);
        if (result.outcome == Outcome::kOk ||
            result.outcome == Outcome::kDegraded) {
            expect_finite_image(result.image, size);
            ++with_image;
        } else {
            EXPECT_TRUE(result.image.empty());
        }
        if (i % 9 == 3 || i % 9 == 5) {
            EXPECT_EQ(result.outcome, Outcome::kInvalid);
        }
        if (i % 9 == 6) {  // impossible deadline: timed out unless shed
            EXPECT_TRUE(result.outcome == Outcome::kTimeout ||
                        result.outcome == Outcome::kShed)
                << outcome_name(result.outcome);
        }
    }
    service.stop();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_TRUE(stats.balanced());
    EXPECT_GT(with_image, 0);
    EXPECT_EQ(stats.outcome(Outcome::kInvalid), 8);  // 4x case-3 + 4x case-5
    EXPECT_LE(stats.rate_limited, stats.outcome(Outcome::kShed));
    // Submitting after stop() sheds rather than hangs, and the books
    // still balance.
    const RequestResult after = service.submit(valid_request(999)).get();
    EXPECT_EQ(after.outcome, Outcome::kShed);
    EXPECT_TRUE(service.stats().balanced());
}

// Regression: a request whose deadline expires in the dequeue -> first-
// step window (worker stalled on the previous job) must count as a
// cancellation in cancelled_mid_run, not silently fold into the plain
// queued-timeout bucket — that window once went unaccounted.
TEST(InferenceServiceTest, DequeueToCancelWindowIsAccounted) {
    util::FaultInjector injector(0xd3ad);
    injector.set_fail_rate("serve_slow", 1.0);

    ServiceConfig config = basic_config();
    config.workers = 1;  // serialise: the stalled job blocks the next
    config.queue_capacity = 4;
    config.slow_fault_ms = 60.0;
    config.fault_injector = &injector;
    InferenceService service(shared_pipeline(), config);

    // Job A stalls 60ms inside its attempt; job B's 20ms deadline
    // expires while B waits behind it, so B is dequeued already-dead.
    std::future<RequestResult> slow = service.submit(valid_request(900, 0));
    InferenceRequest doomed = valid_request(901, 1);
    doomed.deadline_ms = 20.0;
    const RequestResult dead = service.submit(std::move(doomed)).get();
    EXPECT_EQ(dead.outcome, Outcome::kTimeout) << dead.message;
    EXPECT_TRUE(dead.cancelled);
    EXPECT_EQ(dead.attempts, 0);  // never reached a denoising step
    EXPECT_TRUE(dead.image.empty());
    EXPECT_EQ(slow.get().outcome, Outcome::kOk);

    service.stop();
    const ServiceStats stats = service.stats();
    EXPECT_GE(stats.cancelled_mid_run, 1);
    EXPECT_EQ(stats.outcome(Outcome::kTimeout), 1);
    EXPECT_TRUE(stats.balanced());
}

// ---- admission control ------------------------------------------------------

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

TEST(AdmissionTest, RateLimitedClientsShedWithAccounting) {
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

TEST(AdmissionTest, ExpiredDeadlineAtAdmissionIsTimeoutNotShed) {
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

TEST(AdmissionTest, ExpiredDeadlineBeatsQueueFullClassification) {
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

/// Absolute pickup instant (ms since t0) of a request submitted at
/// `submitted` whose result reports `queue_ms` of queue wait.
double pickup_ms(std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point submitted,
                 const RequestResult& result) {
    const double submit_ms =
        std::chrono::duration<double, std::milli>(submitted - t0).count();
    return submit_ms + result.queue_ms;
}

TEST(AdmissionTest, InteractiveDequeuesBeforeBatch) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    config.batch_max_wait_ms = 1e9;  // starvation bound inert
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

TEST(AdmissionTest, AgedBatchHeadBeatsInteractive) {
    ServiceConfig config = basic_config();
    config.workers = 1;
    config.batch_max_wait_ms = 0.0;  // any wait trips the bound
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

}  // namespace
