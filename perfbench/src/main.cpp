// perfbench: the repository benchmark. Usage (from the checkout
// root, normally through perfbench/run.py, which builds this binary):
//
//   perfbench --workload bulk_repeat|train_fit --seed N --seconds S
//             --trace 0|1
//
// Settings are read from perfbench/workloads.json.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics; either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. A failed correctness
// check exits 1 without that line.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <thread>

#include "mem/arena.hpp"
#include "mem/cache.hpp"
#include "obs/clock.hpp"
#include "serve/batcher.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

bool parse_options(int argc, char** argv, Options* options) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        double real = 0.0;
        std::uint64_t seed = 0;
        const char* end = value.data() + value.size();
        if (key == "--workload") {
            options->workload = value;
        } else if (key == "--seed" &&
                   std::from_chars(value.data(), end, seed).ptr == end &&
                   !value.empty()) {
            options->seed = seed;
        } else if (key == "--seconds" && util::parse_double(value, &real) &&
                   real > 0.0) {
            options->seconds = real;
        } else if (key == "--trace" && (value == "0" || value == "1")) {
            options->trace = value == "1";
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && (options->workload == "bulk_repeat" ||
                             options->workload == "train_fit");
}

/// The program reads its tuning knobs from AERO_* variables; a run with
/// any of them set would measure a different configuration.
std::vector<std::string> aero_environment() {
    std::vector<std::string> set;
    for (char** env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "AERO_", 5) == 0) set.emplace_back(*env);
    }
    return set;
}

void print_header(const Options& options) {
    std::string load = "?";
    std::ifstream loadavg("/proc/loadavg");
    std::getline(loadavg, load);
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("# host: nproc=%u loadavg=%s\n",
                std::thread::hardware_concurrency(), load.c_str());
    std::printf("# program: pool_threads=%d batching=%s arena=%s "
                "cond_cache=%s obs=%s\n",
                util::ThreadPool::instance().size(),
                serve::batching_enabled() ? "on" : "off",
                mem::Arena::enabled() ? "on" : "off",
                mem::cond_cache_enabled() ? "on" : "off",
                obs::enabled() ? "on" : "off");
}

PhaseResult run_phase(const Options& options, const Harness& harness,
                      const Settings& settings, std::uint64_t seed,
                      double seconds, bool traced, Report* report) {
    if (options.workload == "bulk_repeat") {
        return run_bulk_repeat(harness, settings, seed, seconds, traced,
                               report);
    }
    return run_train_fit(harness, settings, seed, seconds, traced, report);
}

void print_result(const Report& report) {
    std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                report.attempted, report.failed);
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto& [name, metric] = report.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", name.c_str(), metric.first,
                    metric.second.c_str());
    }
    std::printf("}}\n");
}

int run(const Options& options) {
    const std::vector<std::string> knobs = aero_environment();
    if (!knobs.empty()) {
        for (const std::string& knob : knobs) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         knob.c_str());
        }
        return 2;
    }
    Settings settings;
    std::string error;
    if (!load_settings(&settings, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }
    print_header(options);

    SetupTiming setup;
    const std::unique_ptr<Harness> harness = build_harness(settings, &setup);
    // Like the workloads' figures, set-up time is the median over the
    // quieter half of the builds by CPU steal.
    const double setup_s = quiet_median(setup.total_s, setup.steal);
    std::printf("# setup: %zu builds, quiet-half median %.3f s (dataset "
                "%.3f s, substrate %.3f s), all builds:",
                setup.total_s.size(), setup_s,
                quiet_median(setup.dataset_s, setup.steal),
                quiet_median(setup.substrate_s, setup.steal));
    for (std::size_t i = 0; i < setup.total_s.size(); ++i) {
        std::printf(" %.3f s (steal %.1f%%)", setup.total_s[i],
                    100.0 * setup.steal[i]);
    }
    std::printf("\n");

    Report report;
    PhaseResult phase;
    const CpuSample cpu_before = cpu_sample();
    if (!options.trace) {
        phase = run_phase(options, *harness, settings, options.seed,
                          options.seconds, false, &report);
        report.add("setup_s", setup_s, "s");
        report.add("p50_ms", phase.p50_ms, "ms");
        report.add("tail_ms", phase.tail_ms, "ms");
        report.add("throughput_per_s", phase.throughput_per_s, "1/s");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        // Half the window untraced, half traced. The traced pass only
        // keeps what the program records on every request anyway, and the
        // span replay runs after both, so trace.overhead_ratio checks that
        // the two halves agree: near 1 means the per-layer figures come
        // from a run as fast as the untraced one.
        Report untraced_report;
        const PhaseResult untraced =
            run_phase(options, *harness, settings, options.seed,
                      options.seconds / 2.0, false, &untraced_report);
        phase = run_phase(options, *harness, settings, options.seed + 1000003,
                          options.seconds / 2.0, true, &report);
        for (const std::string& v : untraced_report.violations) {
            report.violation(v);
        }
        report.add("trace.overhead_ratio",
                   untraced.overhead_basis_ms > 0.0
                       ? phase.overhead_basis_ms / untraced.overhead_basis_ms
                       : 0.0,
                   "ratio");
        report.add("setup.dataset_s",
                   quiet_median(setup.dataset_s, setup.steal), "s");
        report.add("setup.substrate_s",
                   quiet_median(setup.substrate_s, setup.steal), "s");
        replay_layers(*harness, phase.replay_inputs, options.seed, &report);
        phase.attempted += untraced.attempted;
        phase.failed += untraced.failed;
    }
    std::printf("# host: cpu steal %.1f%% of the run\n",
                100.0 * steal_share(cpu_before, cpu_sample()));
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    std::printf("# attempted=%lld failed=%lld failed_ratio=%.4f\n",
                report.attempted, report.failed,
                report.attempted > 0 ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0.0);
    if (!report.violations.empty()) {
        for (const std::string& v : report.violations) {
            std::fprintf(stderr, "perfbench: CORRECTNESS VIOLATION: %s\n",
                         v.c_str());
        }
        return 1;
    }
    std::fflush(stdout);
    print_result(report);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Options options;
    if (!perfbench::parse_options(argc, argv, &options)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload bulk_repeat|train_fit "
                     "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    try {
        return perfbench::run(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
