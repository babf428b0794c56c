// Serving-layer bench: drives the hardened InferenceService through a
// clean run and three failure regimes and reports, per scenario,
//   * p50 / p99 end-to-end latency (admission -> terminal outcome),
//   * shed rate (bounded-queue admission control),
//   * degraded-response rate (circuit-breaker unconditional fallback),
//   * timeout and failure rates, retry volume and breaker activity.
// The pipeline is used untrained: serving cost and failure policy do
// not depend on model quality, and skipping fit() keeps the bench about
// the service layer rather than the optimizer.

#include <algorithm>
#include <cstdio>
#include <future>
#include <vector>

#include "bench_common.hpp"
#include "serve/service.hpp"

namespace {

using namespace aero;

struct Scenario {
    std::string name;
    serve::ServiceConfig config;
    double transient_rate = 0.0;
    double encoder_rate = 0.0;
    double deadline_ms = 0.0;  ///< applied to every request; 0 = none
};

struct ScenarioReport {
    serve::ServiceStats stats;
    std::vector<double> latencies;  ///< all terminal outcomes
    double wall_ms = 0.0;
    long long total = 0;
};

ScenarioReport run_scenario(const bench::Harness& harness,
                            const core::AeroDiffusionPipeline& pipeline,
                            const Scenario& scenario, int requests) {
    util::FaultInjector injector(/*seed=*/0xbe7 + requests);
    if (scenario.transient_rate > 0.0) {
        injector.set_fail_rate("serve_transient", scenario.transient_rate);
    }
    if (scenario.encoder_rate > 0.0) {
        injector.set_fail_rate("condition_encoder", scenario.encoder_rate);
    }
    serve::ServiceConfig config = scenario.config;
    config.fault_injector = &injector;

    serve::InferenceService service(pipeline, config);
    const auto& test = harness.dataset->test();
    const auto& captions = harness.substrate.keypoint_test;

    obs::Stopwatch watch;
    std::vector<std::future<serve::RequestResult>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        const std::size_t slot = static_cast<std::size_t>(i) % test.size();
        serve::InferenceRequest request;
        request.reference = test[slot];
        request.source_caption = captions[slot].text;
        request.target_caption = captions[slot].text;
        request.seed = 0x5e21e0 + static_cast<std::uint64_t>(i);
        request.deadline_ms = scenario.deadline_ms;
        using Kind = diffusion::SamplerJob::Kind;
        switch (i % 3) {
            case 0: break;  // kSample
            case 1:
                request.task.kind = Kind::kEdit;
                request.task.strength = 0.5f;
                break;
            default:
                request.task.kind = Kind::kInpaint;
                request.task.region = {
                    static_cast<float>(harness.budget.image_size / 4),
                    static_cast<float>(harness.budget.image_size / 4),
                    static_cast<float>(harness.budget.image_size / 2),
                    static_cast<float>(harness.budget.image_size / 2)};
                break;
        }
        futures.push_back(service.submit(std::move(request)));
    }

    ScenarioReport report;
    for (auto& future : futures) {
        const serve::RequestResult result = future.get();
        report.latencies.push_back(result.latency_ms);
    }
    report.wall_ms = watch.seconds() * 1000.0;
    service.stop();
    report.stats = service.stats();
    report.total = report.stats.terminal();
    return report;
}

std::string rate(long long count, long long total) {
    if (total <= 0) return "0%";
    return bench::fmt(100.0 * static_cast<double>(count) /
                          static_cast<double>(total),
                      1) +
           "%";
}

}  // namespace

int main() {
    using namespace aero;
    std::printf("=== Serving latency & failure policy (scale %d) ===\n",
                util::bench_scale());
    bench::Harness harness = bench::build_harness(2025);
    util::Rng rng(7);
    const core::AeroDiffusionPipeline pipeline(
        core::PipelineConfig::aero_diffusion(), harness.substrate, rng);

    const int requests = 24 * std::max(1, util::bench_scale());

    serve::ServiceConfig base;
    base.workers = 3;
    base.queue_capacity = static_cast<std::size_t>(requests);

    // Overload: one worker, a queue far smaller than the burst, and a
    // deadline short enough that some queued requests expire — the
    // admission-control and cancellation paths under pressure.
    serve::ServiceConfig overload = base;
    overload.workers = 1;
    overload.queue_capacity = 4;

    std::vector<Scenario> scenarios{
        {"clean", base, 0.0, 0.0, 0.0},
        {"transient 15%", base, 0.15, 0.0, 0.0},
        {"encoder outage 40%", base, 0.0, 0.40, 0.0},
        {"overload + deadlines", overload, 0.0, 0.0, 100.0},
    };

    util::JsonValue results = util::JsonValue::object();
    std::vector<std::vector<std::string>> rows;
    for (const Scenario& scenario : scenarios) {
        const ScenarioReport report =
            run_scenario(harness, pipeline, scenario, requests);
        const serve::ServiceStats& stats = report.stats;
        const double p50 = bench::percentile(report.latencies, 0.50);
        const double p99 = bench::percentile(report.latencies, 0.99);
        rows.push_back(
            {scenario.name, bench::fmt(p50, 1), bench::fmt(p99, 1),
             rate(stats.outcome(serve::Outcome::kShed), report.total),
             rate(stats.outcome(serve::Outcome::kDegraded), report.total),
             rate(stats.outcome(serve::Outcome::kTimeout), report.total),
             rate(stats.outcome(serve::Outcome::kFailed), report.total),
             std::to_string(stats.retries),
             std::to_string(stats.breaker_trips) + "/" +
                 std::to_string(stats.breaker_recoveries)});

        util::JsonValue entry = util::JsonValue::object();
        entry.set("requests", util::JsonValue(
                                  static_cast<double>(stats.submitted)));
        entry.set("p50_ms", util::JsonValue(p50));
        entry.set("p99_ms", util::JsonValue(p99));
        entry.set("wall_ms", util::JsonValue(report.wall_ms));
        for (int o = 0; o < serve::kNumOutcomes; ++o) {
            entry.set(serve::outcome_name(static_cast<serve::Outcome>(o)),
                      util::JsonValue(static_cast<double>(
                          stats.by_outcome[o])));
        }
        entry.set("retries",
                  util::JsonValue(static_cast<double>(stats.retries)));
        entry.set("breaker_trips",
                  util::JsonValue(static_cast<double>(stats.breaker_trips)));
        entry.set("breaker_recoveries",
                  util::JsonValue(
                      static_cast<double>(stats.breaker_recoveries)));
        entry.set("balanced", util::JsonValue(stats.balanced()));
        results.set(scenario.name, entry);

        if (!stats.balanced()) {
            std::printf("ACCOUNTING VIOLATION in '%s': submitted=%lld "
                        "terminal=%lld\n",
                        scenario.name.c_str(), stats.submitted,
                        stats.terminal());
            return 1;
        }
    }

    bench::print_table({"scenario", "p50 ms", "p99 ms", "shed", "degraded",
                        "timeout", "failed", "retries", "trips/recov"},
                       rows);
    bench::record_results("bench_serve", results);
    std::printf("every request resolved with exactly one typed outcome "
                "(accounting balanced in all scenarios)\n");
    return 0;
}
