// Overload-control bench: an offered-load sweep over the admission
// controller. First a capacity run (overload off, unbounded queue,
// submit everything at once) measures the service's goodput ceiling;
// then paced open-loop runs at 1x / 2x / 4x that capacity, with the
// controller on and a bounded queue, report goodput (kOk + kDegraded
// per second), p50/p99 latency, shed rate and the degradation-rung
// distribution. The gate this bench enforces: goodput at 4x offered
// load stays at >= 80% of capacity goodput — graceful degradation
// instead of congestion collapse.

#include <algorithm>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/service.hpp"

namespace {

using namespace aero;

struct RunReport {
    serve::ServiceStats stats;
    std::vector<double> latencies;
    double wall_s = 0.0;
    long long good = 0;  ///< kOk + kDegraded
    double goodput() const {
        return wall_s > 0.0 ? static_cast<double>(good) / wall_s : 0.0;
    }
};

serve::InferenceRequest make_request(const bench::Harness& harness, int i) {
    const auto& test = harness.dataset->test();
    const auto& captions = harness.substrate.keypoint_test;
    const std::size_t slot = static_cast<std::size_t>(i) % test.size();
    serve::InferenceRequest request;
    request.reference = test[slot];
    request.source_caption = captions[slot % captions.size()].text;
    request.target_caption = request.source_caption;
    request.seed = 0x0f7e40 + static_cast<std::uint64_t>(i);
    // A third of the offered load is bulk traffic: the ladder takes
    // quality from it first.
    if (i % 3 == 0) request.options.priority = serve::Priority::kBatch;
    return request;
}

/// Submits `requests` jobs paced at `rate_per_s` (0 = all at once) and
/// waits for every terminal outcome.
RunReport run_at(const bench::Harness& harness,
                 const core::AeroDiffusionPipeline& pipeline,
                 const serve::ServiceConfig& config, int requests,
                 double rate_per_s) {
    serve::InferenceService service(pipeline, config);
    obs::Stopwatch watch;
    std::vector<std::future<serve::RequestResult>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < requests; ++i) {
        if (rate_per_s > 0.0 && i > 0) {
            const auto due =
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / rate_per_s));
            std::this_thread::sleep_until(due);
        }
        futures.push_back(service.submit(make_request(harness, i)));
    }
    RunReport report;
    for (auto& future : futures) {
        const serve::RequestResult result = future.get();
        report.latencies.push_back(result.latency_ms);
        if (result.outcome == serve::Outcome::kOk ||
            result.outcome == serve::Outcome::kDegraded) {
            ++report.good;
        }
    }
    report.wall_s = watch.seconds();
    service.stop();
    report.stats = service.stats();
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
    std::printf("=== Overload control: offered-load sweep (scale %d) ===\n",
                util::bench_scale());
    bench::Harness harness = bench::build_harness(2025);
    util::Rng rng(7);
    const core::AeroDiffusionPipeline pipeline(
        core::PipelineConfig::aero_diffusion(), harness.substrate, rng);

    const int requests = 24 * std::max(1, util::bench_scale());

    // Capacity run: controller off, queue big enough for the full
    // burst, everything submitted at once — the goodput ceiling.
    serve::ServiceConfig base;
    base.workers = 2;
    base.limits.image_size = harness.budget.image_size;
    base.rate_limit = util::RateLimitConfig{};  // bench pins its own knobs
    serve::ServiceConfig capacity_config = base;
    capacity_config.queue_capacity = static_cast<std::size_t>(requests);
    const RunReport capacity =
        run_at(harness, pipeline, capacity_config, requests, 0.0);
    const double capacity_goodput = capacity.goodput();
    const double clean_p99 = bench::percentile(capacity.latencies, 0.99);
    std::printf("capacity: %.1f good/s (p99 %.1f ms under full burst)\n",
                capacity_goodput, clean_p99);

    // Sweep config: controller on, bounded queue. The latency and
    // sojourn targets track the measured service time so the bench
    // scales with the machine instead of hard-coding milliseconds; the
    // sojourn target is tighter so a standing queue raises the load
    // index even while completed-request latency still looks passable.
    serve::ServiceConfig sweep = base;
    sweep.queue_capacity = 8;
    sweep.overload.enabled = true;
    sweep.overload.latency_target_ms =
        std::max(5.0, 1.5 * bench::percentile(capacity.latencies, 0.50));
    sweep.overload.codel_target_ms = 0.5 * sweep.overload.latency_target_ms;
    sweep.overload.max_limit = base.workers;
    const int sweep_requests = 2 * requests;

    util::JsonValue results = util::JsonValue::object();
    results.set("capacity_goodput", util::JsonValue(capacity_goodput));
    std::vector<std::vector<std::string>> rows;
    double goodput_4x = 0.0;
    for (const double mult : {1.0, 2.0, 4.0}) {
        const double offered = mult * capacity_goodput;
        const RunReport report =
            run_at(harness, pipeline, sweep, sweep_requests, offered);
        const serve::ServiceStats& stats = report.stats;
        const long long total = stats.terminal();
        if (mult == 4.0) goodput_4x = report.goodput();

        long long degraded_rungs = 0;
        for (int r = 1; r + 1 < serve::kNumDegradeRungs; ++r) {
            degraded_rungs += stats.by_rung[r];
        }
        rows.push_back(
            {bench::fmt(mult, 0) + "x", bench::fmt(offered, 1),
             bench::fmt(report.goodput(), 1),
             bench::fmt(bench::percentile(report.latencies, 0.50), 1),
             bench::fmt(bench::percentile(report.latencies, 0.99), 1),
             rate(stats.outcome(serve::Outcome::kShed), total),
             rate(degraded_rungs, total),
             std::to_string(stats.codel_dropped)});

        util::JsonValue entry = util::JsonValue::object();
        entry.set("offered_per_s", util::JsonValue(offered));
        entry.set("goodput_per_s", util::JsonValue(report.goodput()));
        entry.set("p50_ms",
                  util::JsonValue(bench::percentile(report.latencies, 0.50)));
        entry.set("p99_ms",
                  util::JsonValue(bench::percentile(report.latencies, 0.99)));
        entry.set("shed", util::JsonValue(static_cast<double>(
                              stats.outcome(serve::Outcome::kShed))));
        entry.set("codel_dropped", util::JsonValue(static_cast<double>(
                                       stats.codel_dropped)));
        for (int r = 0; r < serve::kNumDegradeRungs; ++r) {
            entry.set(std::string("rung_") +
                          serve::degrade_rung_name(
                              static_cast<serve::DegradeRung>(r)),
                      util::JsonValue(static_cast<double>(stats.by_rung[r])));
        }
        entry.set("balanced", util::JsonValue(stats.balanced()));
        results.set(bench::fmt(mult, 0) + "x", entry);

        if (!stats.balanced()) {
            std::printf("ACCOUNTING VIOLATION at %sx: submitted=%lld "
                        "terminal=%lld\n",
                        bench::fmt(mult, 0).c_str(), stats.submitted,
                        stats.terminal());
            return 1;
        }
    }

    bench::print_table({"offered", "req/s", "goodput/s", "p50 ms", "p99 ms",
                        "shed", "degraded", "codel"},
                       rows);
    bench::record_results("bench_overload", results);

    // The gate: graceful degradation, not congestion collapse.
    const double floor = 0.8 * capacity_goodput;
    std::printf("gate: goodput@4x %.1f/s vs floor %.1f/s (80%% of "
                "capacity %.1f/s)\n",
                goodput_4x, floor, capacity_goodput);
    if (goodput_4x < floor) {
        std::printf("GATE FAILED: overload collapsed goodput\n");
        return 1;
    }
    std::printf("gate passed: goodput under 4x overload held above 80%% "
                "of capacity\n");
    return 0;
}
