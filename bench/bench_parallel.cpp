// Intra-op parallelism bench (DESIGN.md §11): serial vs multi-threaded
// timings for the pool-backed kernels, from a single matmul up through a
// full DDIM sample and a small serving run. For every compute workload
// the multi-threaded output is asserted BITWISE identical to the serial
// one — the speedup table is only meaningful if the determinism contract
// holds. Thread counts beyond the machine's core count are still
// measured (and reported honestly); on a 1-core host every speedup
// column is expected to hover at or below 1.0x.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "diffusion/sampler.hpp"
#include "diffusion/schedule.hpp"
#include "diffusion/unet.hpp"
#include "serve/service.hpp"
#include "tensor/ops.hpp"
#include "obs/clock.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace aero;
using tensor::Tensor;

/// Thread counts swept by every workload: serial baseline, then powers
/// of two up to the pool default (always including the default itself,
/// so AERO_THREADS shows up as a row even when it is not a power of 2).
std::vector<int> thread_counts() {
    std::vector<int> counts{1, 2, 4};
    const int dflt = util::ThreadPool::default_threads();
    if (std::find(counts.begin(), counts.end(), dflt) == counts.end()) {
        counts.push_back(dflt);
    }
    std::sort(counts.begin(), counts.end());
    return counts;
}

/// Best-of-`iters` wall time in milliseconds. Best-of (not mean) because
/// the quantity of interest is the kernel cost, not scheduler noise.
template <typename Fn>
double time_best_ms(int iters, Fn&& fn) {
    double best = 0.0;
    for (int i = 0; i < iters; ++i) {
        obs::Stopwatch watch;
        fn();
        const double ms = watch.seconds() * 1000.0;
        if (i == 0 || ms < best) best = ms;
    }
    return best;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<std::size_t>(a.size())) ==
               0;
}

struct WorkloadRow {
    std::string name;
    std::vector<double> ms;        ///< per thread count
    std::vector<double> speedup;   ///< serial_ms / ms
    bool deterministic = true;
};

/// Times `compute` at every thread count and checks each result against
/// the serial one.
template <typename Fn>
WorkloadRow run_workload(const std::string& name, int iters, Fn compute) {
    WorkloadRow row;
    row.name = name;
    util::ThreadPool& pool = util::ThreadPool::instance();
    Tensor reference;
    for (const int threads : thread_counts()) {
        pool.resize(threads);
        Tensor result;
        row.ms.push_back(time_best_ms(iters, [&] { result = compute(); }));
        if (threads == 1) {
            reference = result;
        } else if (!bitwise_equal(reference, result)) {
            row.deterministic = false;
        }
        row.speedup.push_back(row.ms.front() / std::max(row.ms.back(), 1e-9));
    }
    pool.resize(util::ThreadPool::default_threads());
    return row;
}

/// p50/p99 of a tiny clean serve run at the current pool size. The
/// service's own workers stay fixed; only the shared intra-op pool
/// changes, which is exactly the no-oversubscription story §11 tells.
struct ServePoint {
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

ServePoint run_serve(const bench::Harness& harness,
                     const core::AeroDiffusionPipeline& pipeline,
                     int requests) {
    serve::ServiceConfig config;
    config.workers = 2;
    config.queue_capacity = static_cast<std::size_t>(requests);
    serve::InferenceService service(pipeline, config);
    const auto& test = harness.dataset->test();
    const auto& captions = harness.substrate.keypoint_test;

    std::vector<std::future<serve::RequestResult>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        const std::size_t slot = static_cast<std::size_t>(i) % test.size();
        serve::InferenceRequest request;
        request.reference = test[slot];
        request.source_caption = captions[slot].text;
        request.target_caption = captions[slot].text;
        request.seed = 0xaeb0 + static_cast<std::uint64_t>(i);
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
    std::printf("=== Intra-op parallelism: serial vs pooled (scale %d) ===\n",
                util::bench_scale());
    const std::vector<int> counts = thread_counts();
    const int iters = util::scaled(2, 5, 9);

    // --- compute workloads --------------------------------------------------
    util::Rng rng(41);
    const int mm = util::scaled(96, 256, 512);
    const Tensor a = Tensor::randn({mm, mm}, rng);
    const Tensor b = Tensor::randn({mm, mm}, rng);

    diffusion::UNetConfig unet_config;
    unet_config.in_channels = 4;
    unet_config.base_channels = util::scaled(8, 16, 24);
    unet_config.cond_dim = 16;
    unet_config.heads = 2;
    unet_config.time_dim = 16;
    unet_config.groups = 2;
    const diffusion::UNet unet(unet_config, rng);
    const int side = util::scaled(8, 16, 24);
    const Tensor latent = Tensor::randn({4, side, side}, rng);
    const Tensor cond = Tensor::randn({3, 16}, rng);

    const diffusion::NoiseSchedule schedule({32, 0.0008f, 0.02f, 32});
    diffusion::DdimConfig ddim;
    ddim.inference_steps = util::scaled(4, 8, 12);
    ddim.guidance_scale = 1.0f;
    const diffusion::DdimSampler sampler(unet, schedule, ddim);

    std::vector<WorkloadRow> rows;
    rows.push_back(run_workload("matmul " + std::to_string(mm) + "^3", iters,
                                [&] { return tensor::matmul(a, b); }));
    rows.push_back(run_workload("unet denoise step", iters, [&] {
        return unet.denoise(latent, 16, 32, cond);
    }));
    rows.push_back(run_workload("ddim sample e2e", std::max(1, iters / 2),
                                [&] {
                                    util::Rng noise(97);
                                    return sampler.sample({4, side, side},
                                                          cond, noise);
                                }));

    // --- serve p50/p99 at serial vs default pool ---------------------------
    bench::Harness harness = bench::build_harness(2025);
    util::Rng pipeline_rng(7);
    const core::AeroDiffusionPipeline pipeline(
        core::PipelineConfig::aero_diffusion(), harness.substrate,
        pipeline_rng);
    const int requests = 8 * std::max(1, util::bench_scale());
    util::ThreadPool& pool = util::ThreadPool::instance();
    pool.resize(1);
    const ServePoint serve_serial = run_serve(harness, pipeline, requests);
    pool.resize(util::ThreadPool::default_threads());
    const ServePoint serve_pooled = run_serve(harness, pipeline, requests);

    // --- report -------------------------------------------------------------
    std::vector<std::string> header{"workload"};
    for (const int threads : counts) {
        header.push_back(std::to_string(threads) + "T ms");
        if (threads > 1) header.push_back(std::to_string(threads) + "T x");
    }
    header.push_back("bitwise");
    std::vector<std::vector<std::string>> table;
    bool all_deterministic = true;
    for (const WorkloadRow& row : rows) {
        std::vector<std::string> cells{row.name};
        for (std::size_t i = 0; i < row.ms.size(); ++i) {
            cells.push_back(bench::fmt(row.ms[i], 3));
            if (counts[i] > 1) cells.push_back(bench::fmt(row.speedup[i], 2));
        }
        cells.push_back(row.deterministic ? "ok" : "DIFFERS");
        all_deterministic = all_deterministic && row.deterministic;
        table.push_back(std::move(cells));
    }
    bench::print_table(header, table);
    std::printf("serve p50/p99 ms: serial %s/%s -> pooled(%d) %s/%s\n",
                bench::fmt(serve_serial.p50_ms, 1).c_str(),
                bench::fmt(serve_serial.p99_ms, 1).c_str(),
                util::ThreadPool::default_threads(),
                bench::fmt(serve_pooled.p50_ms, 1).c_str(),
                bench::fmt(serve_pooled.p99_ms, 1).c_str());

    util::JsonValue results = util::JsonValue::object();
    util::JsonValue threads_json = util::JsonValue::array();
    for (const int threads : counts) {
        threads_json.push(
            util::JsonValue(static_cast<double>(threads)));
    }
    results.set("thread_counts", threads_json);
    results.set("hardware_threads",
                util::JsonValue(static_cast<double>(
                    util::ThreadPool::default_threads())));
    for (const WorkloadRow& row : rows) {
        util::JsonValue entry = util::JsonValue::object();
        util::JsonValue ms = util::JsonValue::array();
        util::JsonValue speedup = util::JsonValue::array();
        for (std::size_t i = 0; i < row.ms.size(); ++i) {
            ms.push(util::JsonValue(row.ms[i]));
            speedup.push(util::JsonValue(row.speedup[i]));
        }
        entry.set("ms", ms);
        entry.set("speedup", speedup);
        entry.set("bitwise_identical", util::JsonValue(row.deterministic));
        results.set(row.name, entry);
    }
    util::JsonValue serve_json = util::JsonValue::object();
    serve_json.set("serial_p50_ms", util::JsonValue(serve_serial.p50_ms));
    serve_json.set("serial_p99_ms", util::JsonValue(serve_serial.p99_ms));
    serve_json.set("pooled_p50_ms", util::JsonValue(serve_pooled.p50_ms));
    serve_json.set("pooled_p99_ms", util::JsonValue(serve_pooled.p99_ms));
    results.set("serve", serve_json);
    bench::record_results("bench_parallel", results);

    if (!all_deterministic) {
        std::printf("DETERMINISM VIOLATION: pooled output differs from "
                    "serial\n");
        return 1;
    }
    std::printf("all pooled outputs bitwise-identical to serial\n");
    return 0;
}
