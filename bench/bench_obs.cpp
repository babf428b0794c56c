// Observability overhead bench: the AERO_OBS contract is that the full
// instrumentation stack (metric handles, per-stage spans, per-step
// sampler timing, serve histograms) costs near-nothing, and that the
// enable switch is bitwise-neutral on kernel output. This bench holds
// both promises to numbers:
//
//   * generate path — min-of-alternating-rounds wall time for one full
//     conditional generate with obs enabled vs disabled; FAILS (exit 1)
//     when the relative overhead exceeds 5% beyond a small absolute
//     slack that absorbs scheduler noise on sub-millisecond deltas,
//   * bitwise neutrality — the same seed must produce byte-identical
//     images in both modes; any drift FAILS the bench,
//   * serve path — p50/p99 end-to-end latency for a small batch in both
//     modes, reported for trend tracking (not gated: queueing noise
//     dwarfs the instrumentation signal at bench scale).
//
// The pipeline runs untrained: instrumentation cost does not depend on
// model quality, and skipping fit() keeps rounds cheap enough to repeat.

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/clock.hpp"
#include "serve/service.hpp"

namespace {

using namespace aero;

constexpr double kMaxOverheadFraction = 0.05;
/// Absolute slack (ms) under which a delta is treated as timer noise.
constexpr double kAbsoluteSlackMs = 2.0;

image::Image run_generate(const core::AeroDiffusionPipeline& pipeline,
                          const bench::Harness& harness, std::uint64_t seed) {
    const scene::AerialSample& sample = harness.dataset->test()[0];
    const std::string& caption = harness.substrate.keypoint_test[0].text;
    util::Rng rng(seed);
    return pipeline.generate(sample, caption, caption, rng);
}

/// p50/p99 of a small serve batch in the current obs mode.
std::pair<double, double> serve_latencies(
    const core::AeroDiffusionPipeline& pipeline,
    const bench::Harness& harness, int requests) {
    serve::ServiceConfig config;
    config.limits.image_size = harness.budget.image_size;
    config.workers = 2;
    config.queue_capacity = static_cast<std::size_t>(requests);
    serve::InferenceService service(pipeline, config);
    std::vector<std::future<serve::RequestResult>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        serve::InferenceRequest request;
        request.reference = harness.dataset
                                ->test()[static_cast<std::size_t>(i) %
                                         harness.dataset->test().size()];
        request.source_caption =
            harness.substrate
                .keypoint_test[static_cast<std::size_t>(i) %
                               harness.substrate.keypoint_test.size()]
                .text;
        request.target_caption = request.source_caption;
        request.seed = 7000 + static_cast<std::uint64_t>(i);
        futures.push_back(service.submit(std::move(request)));
    }
    std::vector<double> latencies;
    latencies.reserve(futures.size());
    for (auto& future : futures) {
        latencies.push_back(future.get().latency_ms);
    }
    service.stop();
    return {bench::percentile(latencies, 0.50),
            bench::percentile(latencies, 0.99)};
}

}  // namespace

int main() {
    const bench::Harness harness = bench::build_harness(/*seed=*/2025);
    util::Rng rng(7);
    const core::AeroDiffusionPipeline pipeline(
        core::PipelineConfig::aero_diffusion(), harness.substrate, rng);

    const int scale = std::max(0, util::env_int("AERO_BENCH_SCALE", 1));
    const int rounds_per_mode = 3 + scale;  // min-of-N absorbs noise
    const int serve_requests = 6 + 2 * scale;

    // Warm both modes once (page-in, pool spin-up, metric registration).
    obs::set_enabled(true);
    (void)run_generate(pipeline, harness, 1000);
    obs::set_enabled(false);
    (void)run_generate(pipeline, harness, 1000);

    // Alternate modes round-robin so drift (thermal, scheduler) hits
    // both equally; keep the minimum per mode.
    double best_enabled_ms = 0.0;
    double best_disabled_ms = 0.0;
    for (int round = 0; round < 2 * rounds_per_mode; ++round) {
        const bool enabled = (round % 2) == 0;
        obs::set_enabled(enabled);
        const obs::Stopwatch watch;
        (void)run_generate(pipeline, harness,
                           2000 + static_cast<std::uint64_t>(round));
        const double ms = watch.ms();
        double& best = enabled ? best_enabled_ms : best_disabled_ms;
        if (round < 2 || ms < best) best = ms;
    }
    const double delta_ms = best_enabled_ms - best_disabled_ms;
    const double overhead =
        best_disabled_ms > 0.0 ? delta_ms / best_disabled_ms : 0.0;

    // Bitwise neutrality: same seed, both modes, identical bytes.
    obs::set_enabled(true);
    const image::Image with_obs = run_generate(pipeline, harness, 4242);
    obs::set_enabled(false);
    const image::Image without_obs = run_generate(pipeline, harness, 4242);
    const bool bitwise_identical =
        !with_obs.empty() && with_obs.data() == without_obs.data();

    obs::set_enabled(true);
    const auto [serve_p50_on, serve_p99_on] =
        serve_latencies(pipeline, harness, serve_requests);
    obs::set_enabled(false);
    const auto [serve_p50_off, serve_p99_off] =
        serve_latencies(pipeline, harness, serve_requests);
    obs::set_enabled(true);

    bench::print_table(
        {"path", "obs on", "obs off", "delta"},
        {{"generate min (ms)", bench::fmt(best_enabled_ms),
          bench::fmt(best_disabled_ms),
          bench::fmt(delta_ms) + " (" + bench::fmt(overhead * 100.0, 1) +
              "%)"},
         {"serve p50 (ms)", bench::fmt(serve_p50_on),
          bench::fmt(serve_p50_off),
          bench::fmt(serve_p50_on - serve_p50_off)},
         {"serve p99 (ms)", bench::fmt(serve_p99_on),
          bench::fmt(serve_p99_off),
          bench::fmt(serve_p99_on - serve_p99_off)},
         {"bitwise identical", bitwise_identical ? "yes" : "NO", "-", "-"}});

    util::JsonValue payload = util::JsonValue::object();
    payload.set("generate_enabled_ms", best_enabled_ms);
    payload.set("generate_disabled_ms", best_disabled_ms);
    payload.set("overhead_fraction", overhead);
    payload.set("serve_p50_enabled_ms", serve_p50_on);
    payload.set("serve_p50_disabled_ms", serve_p50_off);
    payload.set("serve_p99_enabled_ms", serve_p99_on);
    payload.set("serve_p99_disabled_ms", serve_p99_off);
    payload.set("bitwise_identical", bitwise_identical);
    payload.set("rounds_per_mode", rounds_per_mode);
    bench::record_results("bench_obs", payload);

    bool ok = true;
    if (!bitwise_identical) {
        std::fprintf(stderr,
                     "FAIL: AERO_OBS toggling changed generated bytes\n");
        ok = false;
    }
    if (overhead > kMaxOverheadFraction && delta_ms > kAbsoluteSlackMs) {
        std::fprintf(stderr,
                     "FAIL: obs overhead %.1f%% (%.2f ms) exceeds %.0f%%\n",
                     overhead * 100.0, delta_ms,
                     kMaxOverheadFraction * 100.0);
        ok = false;
    }
    if (ok) std::printf("bench_obs: PASS\n");
    return ok ? 0 : 1;
}
