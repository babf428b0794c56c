#pragma once
// Shared vocabulary of the perfbench binary: command-line options, the
// workload settings read from perfbench/workloads.json, the timed
// harness set-up, latency summaries, the bench-side span recorder of the
// traced run, and the metric report printed as the final JSON line.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "scene/dataset.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace aero;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
};

/// Settings of one run, read from perfbench/workloads.json (relative to
/// the checkout root the benchmark runs from).
struct Settings {
    util::JsonValue root;

    const util::JsonValue& section(const std::string& name) const;
    double number(const std::string& section, const std::string& key) const;
};

bool load_settings(Settings* settings, std::string* error);

// ---- statistics -------------------------------------------------------------

/// Median plus the tail: the highest percentile that still has at least
/// ten samples beyond it (nearest rank). With ten samples or fewer the
/// tail is the maximum and `tail_pct` reads 100.
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    double tail = 0.0;
    double tail_pct = 0.0;
};
Summary summarize(std::vector<double> values);
double median(std::vector<double> values);

// ---- set-up -----------------------------------------------------------------

/// Dataset, substrate and the untrained serving pipeline. Heap-held so
/// the substrate's dataset pointer and the pipeline's substrate pointer
/// stay valid.
struct Harness {
    core::Budget budget;
    std::unique_ptr<scene::AerialDataset> dataset;
    std::unique_ptr<core::Substrate> substrate;
    std::unique_ptr<core::AeroDiffusionPipeline> pipeline;
};

struct SetupTiming {
    std::vector<double> total_s;
    std::vector<double> dataset_s;
    std::vector<double> substrate_s;
    std::vector<double> steal;  ///< CPU steal share of each build
};

/// Builds the harness `reps` times, timing each build; returns the last.
std::unique_ptr<Harness> build_harness(const Settings& settings,
                                       SetupTiming* timing);

// ---- inputs -----------------------------------------------------------------

/// A fresh procedural scene, rendered at `image_size`, with its
/// keypoint-aware caption.
struct SceneInput {
    scene::AerialSample sample;
    std::string caption;
};
SceneInput fresh_scene(util::Rng& rng, int id, int image_size);

// ---- traced run -------------------------------------------------------------

/// Bench-side spans around calls into the program, kept in memory and
/// written out as a table when the run ends. Single-threaded.
class SpanLog {
public:
    int open(const char* name);
    void close(int id);
    /// Median duration (ms) of the closed spans named `name`.
    double median_ms(const std::string& name) const;
    /// name, calls, total ms, self ms (total minus child spans).
    void print_table() const;

private:
    struct Record {
        const char* name;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
        bool closed = false;
    };
    std::vector<Record> records_;
    int open_ = -1;
};

class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, const char* name)
        : log_(log), id_(log.open(name)) {}
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog& log_;
    int id_;
};

// ---- output -----------------------------------------------------------------

struct Report {
    long long attempted = 0;
    long long failed = 0;
    /// Non-empty when the correctness gate failed: no metrics are printed.
    std::vector<std::string> violations;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, {value, unit}});
    }
    void violation(const std::string& what) { violations.push_back(what); }
};

/// The untrained pipeline's inference settings, as the serve path uses.
diffusion::DdimConfig ddim_config(const Harness& harness);

/// Peak resident set size of this process, MB (VmHWM).
double peak_rss_mb();

/// Host CPU counters (/proc/stat): all jiffies and those stolen by other
/// tenants of a virtual host.
struct CpuSample {
    double total = 0.0;
    double steal = 0.0;
};
CpuSample cpu_sample();
double steal_share(const CpuSample& from, const CpuSample& to);

/// Indices of the segments whose CPU steal share is at most the median
/// share: the quieter half of a run (ties kept). A stolen virtual CPU
/// stalls every barrier of the kernel pool, so a few percent of steal
/// slows a segment by tens of percent; figures are taken over the
/// quieter half so they describe the program rather than its neighbours.
std::vector<std::size_t> quiet_half(const std::vector<double>& steal);

/// Median of `values` over the quieter half of their segments by steal.
double quiet_median(const std::vector<double>& values,
                    const std::vector<double>& steal);

/// Snapshot of the program's own counters (obs registry series and the
/// mem/util stats readers) for per-phase deltas in the traced run.
struct Counters {
    double batch_count = 0.0;   ///< aero_batch_size observations
    double batch_sum = 0.0;     ///< sum of those batch sizes
    double batch_steps = 0.0;   ///< aero_batch_steps_total
    double cache_hits = 0.0;
    double cache_misses = 0.0;
    double cache_evictions = 0.0;
    double alloc_requests = 0.0;
    double alloc_hits = 0.0;
    double alloc_resident_bytes = 0.0;
    double pool_tasks = 0.0;
    double pool_chunks = 0.0;
    double pool_caller_chunks = 0.0;
    double pool_queue_wait_ms = 0.0;
};
Counters read_counters();

/// Per-layer metrics derived from the counter delta of a traced phase
/// that produced `images` images (training samples on train_fit).
void add_counter_metrics(const Counters& before, const Counters& after,
                         double images, Report* report);

}  // namespace perfbench
