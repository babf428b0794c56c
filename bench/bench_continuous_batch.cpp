// Continuous-batching bench: closed-burst throughput and p99 latency
// at 1 / 4 / 16 / 64 concurrent streams, batched (workers hand their
// sampling loops to the step batcher) versus sequential (batching
// disabled, inline sampling per worker). Every run's images are
// compared bitwise across the two modes — the batcher's core contract
// — and that identity is a hard gate at every stream count. The
// throughput gate (>= 1.5x at 16 streams) only arms on hosts with at
// least 4 cores: a single-core host serializes the denoiser's inner
// kernels either way, so the batch can only amortise bookkeeping and
// the speedup there is reported, not enforced.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/service.hpp"

namespace {

using namespace aero;

struct RunReport {
    std::vector<image::Image> images;  ///< by request index
    std::vector<double> latencies;
    double wall_s = 0.0;
    long long ok = 0;
    double throughput() const {
        return wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0;
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
    request.seed = 0xba7c4 + static_cast<std::uint64_t>(i);
    return request;
}

/// Submits `requests` jobs in one closed burst and waits for all of
/// them. `streams` sets both the worker count and (batched mode) the
/// batch capacity.
RunReport run_burst(const bench::Harness& harness,
                    const core::AeroDiffusionPipeline& pipeline, int streams,
                    int requests, bool batched) {
    serve::ServiceConfig config;
    config.workers = streams;
    config.queue_capacity = static_cast<std::size_t>(requests);
    config.limits.image_size = harness.budget.image_size;
    config.batch.batch_max = batched ? streams : 1;
    serve::InferenceService service(pipeline, config);

    obs::Stopwatch watch;
    std::vector<std::future<serve::RequestResult>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        futures.push_back(service.submit(make_request(harness, i)));
    }
    RunReport report;
    for (auto& future : futures) {
        serve::RequestResult result = future.get();
        report.latencies.push_back(result.latency_ms);
        if (result.outcome == serve::Outcome::kOk) ++report.ok;
        report.images.push_back(std::move(result.image));
    }
    report.wall_s = watch.seconds();
    service.stop();
    return report;
}

bool bitwise_equal(const image::Image& a, const image::Image& b) {
    return a.width() == b.width() && a.height() == b.height() &&
           a.data() == b.data();
}

}  // namespace

int main() {
    using namespace aero;
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf(
        "=== Continuous step batching: stream sweep (scale %d, %u cores) "
        "===\n",
        util::bench_scale(), cores);
    serve::set_batching_enabled(true);  // the bench is about the batcher
    bench::Harness harness = bench::build_harness(2025);
    util::Rng rng(7);
    const core::AeroDiffusionPipeline pipeline(
        core::PipelineConfig::aero_diffusion(), harness.substrate, rng);

    util::JsonValue results = util::JsonValue::object();
    std::vector<std::vector<std::string>> rows;
    double speedup_at_16 = 0.0;
    for (const int streams : {1, 4, 16, 64}) {
        const int requests =
            std::max(8, 2 * streams) * std::max(1, util::bench_scale());
        const RunReport sequential =
            run_burst(harness, pipeline, streams, requests, false);
        const RunReport batched =
            run_burst(harness, pipeline, streams, requests, true);

        // The hard gate at every scale: identical requests, identical
        // bits, whatever the interleaving of joins and retirements was.
        if (sequential.ok != requests || batched.ok != requests) {
            std::printf("UNEXPECTED NON-OK OUTCOMES at %d streams: "
                        "sequential %lld/%d, batched %lld/%d\n",
                        streams, sequential.ok, requests, batched.ok,
                        requests);
            return 1;
        }
        for (int i = 0; i < requests; ++i) {
            if (!bitwise_equal(sequential.images[static_cast<std::size_t>(i)],
                               batched.images[static_cast<std::size_t>(i)])) {
                std::printf("BITWISE IDENTITY VIOLATION at %d streams, "
                            "request %d\n",
                            streams, i);
                return 1;
            }
        }

        const double speedup =
            sequential.throughput() > 0.0
                ? batched.throughput() / sequential.throughput()
                : 0.0;
        if (streams == 16) speedup_at_16 = speedup;
        const double sequential_p99 =
            bench::percentile(sequential.latencies, 0.99);
        const double batched_p99 = bench::percentile(batched.latencies, 0.99);
        rows.push_back({std::to_string(streams),
                        bench::fmt(sequential.throughput(), 2),
                        bench::fmt(sequential_p99, 1),
                        bench::fmt(batched.throughput(), 2),
                        bench::fmt(batched_p99, 1),
                        bench::fmt(speedup, 2) + "x"});

        util::JsonValue entry = util::JsonValue::object();
        entry.set("requests", util::JsonValue(static_cast<double>(requests)));
        entry.set("sequential_per_s",
                  util::JsonValue(sequential.throughput()));
        entry.set("sequential_p99_ms", util::JsonValue(sequential_p99));
        entry.set("batched_per_s", util::JsonValue(batched.throughput()));
        entry.set("batched_p99_ms", util::JsonValue(batched_p99));
        entry.set("speedup", util::JsonValue(speedup));
        results.set(std::to_string(streams) + "_streams", entry);
    }

    bench::print_table({"streams", "seq req/s", "seq p99 ms", "batch req/s",
                        "batch p99 ms", "speedup"},
                       rows);
    results.set("cores", util::JsonValue(static_cast<double>(cores)));
    results.set("speedup_at_16", util::JsonValue(speedup_at_16));
    bench::record_results("bench_continuous_batch", results);

    // Throughput gate: only meaningful with real parallel headroom.
    if (cores >= 4) {
        std::printf("gate: speedup@16 streams %.2fx vs floor 1.50x\n",
                    speedup_at_16);
        if (speedup_at_16 < 1.5) {
            std::printf("GATE FAILED: continuous batching did not reach "
                        "1.5x at 16 streams\n");
            return 1;
        }
    } else {
        std::printf("gate skipped: %u core(s) < 4 — speedup@16 %.2fx "
                    "reported, not enforced\n",
                    cores, speedup_at_16);
    }
    std::printf("bitwise identity held at every stream count\n");
    return 0;
}
