#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "scene/renderer.hpp"
#include "text/llm.hpp"

namespace perfbench {

// ---- settings ---------------------------------------------------------------

const util::JsonValue& Settings::section(const std::string& name) const {
    const util::JsonValue* value = root.find(name);
    if (value == nullptr || !value->is_object()) {
        throw std::runtime_error("workloads.json: missing section " + name);
    }
    return *value;
}

double Settings::number(const std::string& name,
                        const std::string& key) const {
    const util::JsonValue* value = section(name).find(key);
    if (value == nullptr || !value->is_number()) {
        throw std::runtime_error("workloads.json: missing number " + name +
                                 "." + key);
    }
    return value->as_number();
}

bool load_settings(Settings* settings, std::string* error) {
    return util::json_parse_file("perfbench/workloads.json", &settings->root,
                                 error);
}

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Summary summarize(std::vector<double> values) {
    Summary summary;
    summary.n = values.size();
    if (values.empty()) return summary;
    summary.p50 = median(values);
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n <= 10) {
        summary.tail = values.back();
        summary.tail_pct = 100.0;
    } else {
        // Rank n - 10 (1-based) leaves exactly ten samples beyond it.
        summary.tail = values[n - 11];
        summary.tail_pct =
            100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    }
    return summary;
}

// ---- set-up -----------------------------------------------------------------

std::unique_ptr<Harness> build_harness(const Settings& settings,
                                       SetupTiming* timing) {
    core::Budget budget;  // default-scale shapes, sizes and DDIM settings
    budget.ae_steps = static_cast<int>(settings.number("setup", "ae_steps"));
    budget.clip_steps =
        static_cast<int>(settings.number("setup", "clip_steps"));
    budget.detector_steps =
        static_cast<int>(settings.number("setup", "detector_steps"));
    budget.diffusion_steps =
        static_cast<int>(settings.number("train_fit", "diffusion_steps"));
    const auto seed =
        static_cast<std::uint64_t>(settings.number("setup", "harness_seed"));
    const int reps = static_cast<int>(settings.number("setup", "reps"));

    std::unique_ptr<Harness> harness;
    for (int rep = 0; rep < std::max(1, reps); ++rep) {
        harness.reset();  // free the previous build before timing the next
        const CpuSample cpu_start = cpu_sample();
        const Clock::time_point start = Clock::now();
        auto next = std::make_unique<Harness>();
        next->budget = budget;
        scene::DatasetConfig config;
        config.train_size = budget.train_images;
        config.test_size = budget.test_images;
        config.image_size = budget.image_size;
        config.seed = seed;
        next->dataset = std::make_unique<scene::AerialDataset>(config);
        const Clock::time_point dataset_done = Clock::now();
        util::Rng rng(seed);
        next->substrate = std::make_unique<core::Substrate>(
            core::build_substrate(*next->dataset, budget, rng));
        const Clock::time_point substrate_done = Clock::now();
        util::Rng pipeline_rng(seed ^ 0x7);
        next->pipeline = std::make_unique<core::AeroDiffusionPipeline>(
            core::PipelineConfig::aero_diffusion(), *next->substrate,
            pipeline_rng);
        const Clock::time_point done = Clock::now();
        timing->total_s.push_back(ms_between(start, done) / 1000.0);
        timing->dataset_s.push_back(ms_between(start, dataset_done) / 1000.0);
        timing->substrate_s.push_back(
            ms_between(dataset_done, substrate_done) / 1000.0);
        timing->steal.push_back(steal_share(cpu_start, cpu_sample()));
        harness = std::move(next);
    }
    return harness;
}

diffusion::DdimConfig ddim_config(const Harness& harness) {
    diffusion::DdimConfig config;
    config.inference_steps = harness.budget.ddim_steps;
    config.guidance_scale = harness.budget.guidance_scale;
    config.parameterization = harness.pipeline->config().parameterization;
    return config;
}

// ---- inputs -----------------------------------------------------------------

SceneInput fresh_scene(util::Rng& rng, int id, int image_size) {
    scene::Scene scene = scene::generate_random_scene(rng, id);
    scene::RenderOptions options;
    options.image_size = image_size;
    options.texture_seed = 1234 + static_cast<std::uint64_t>(id) * 7919;
    SceneInput input;
    input.sample.image = scene::render(scene, options);
    input.sample.gt_boxes = scene::ground_truth_boxes(scene, image_size);
    static const text::SimulatedLlm llm = text::SimulatedLlm::keypoint_aware();
    static const text::PromptTemplate prompt =
        text::PromptTemplate::keypoint_aware();
    input.caption = llm.describe(scene, prompt, rng).text;
    input.sample.scene = std::move(scene);
    return input;
}

// ---- spans ------------------------------------------------------------------

int SpanLog::open(const char* name) {
    records_.push_back({name, open_, Clock::now(), Clock::now()});
    open_ = static_cast<int>(records_.size()) - 1;
    return open_;
}

void SpanLog::close(int id) {
    Record& record = records_[static_cast<std::size_t>(id)];
    record.end = Clock::now();
    record.closed = true;
    open_ = record.parent;
}

double SpanLog::median_ms(const std::string& name) const {
    std::vector<double> durations;
    for (const Record& record : records_) {
        if (record.closed && name == record.name) {
            durations.push_back(ms_between(record.start, record.end));
        }
    }
    return median(durations);
}

void SpanLog::print_table() const {
    struct Row {
        int calls = 0;
        double total_ms = 0.0;
        double child_ms = 0.0;
    };
    std::map<std::string, Row> rows;
    for (const Record& record : records_) {
        const double ms = ms_between(record.start, record.end);
        Row& row = rows[record.name];
        ++row.calls;
        row.total_ms += ms;
        if (record.parent >= 0) {
            rows[records_[static_cast<std::size_t>(record.parent)].name]
                .child_ms += ms;
        }
    }
    std::printf("# trace spans (bench-side): name calls total_ms self_ms\n");
    for (const auto& [name, row] : rows) {
        std::printf("#   %-32s %5d %10.3f %10.3f\n", name.c_str(), row.calls,
                    row.total_ms, row.total_ms - row.child_ms);
    }
}

// ---- process and program counters ------------------------------------------

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            long long kb = 0;
            std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb);
            return static_cast<double>(kb) / 1024.0;
        }
    }
    return 0.0;
}

CpuSample cpu_sample() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    CpuSample sample;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        double value = 0.0;
        if (!(stat >> value)) break;
        sample.total += value;
        if (field == 7) sample.steal = value;
    }
    return sample;
}

double steal_share(const CpuSample& from, const CpuSample& to) {
    const double total = to.total - from.total;
    return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

std::vector<std::size_t> quiet_half(const std::vector<double>& steal) {
    const double cut = median(steal);
    std::vector<std::size_t> quiet;
    for (std::size_t i = 0; i < steal.size(); ++i) {
        if (steal[i] <= cut) quiet.push_back(i);
    }
    return quiet;
}

double quiet_median(const std::vector<double>& values,
                    const std::vector<double>& steal) {
    std::vector<double> quiet;
    for (const std::size_t i : quiet_half(steal)) quiet.push_back(values[i]);
    return median(quiet);
}

Counters read_counters() {
    Counters c;
    for (const obs::MetricSample& sample :
         obs::MetricsRegistry::instance().collect()) {
        const std::string& n = sample.name;
        const double g = sample.gauge;
        if (n == "aero_batch_size") {
            c.batch_count = static_cast<double>(sample.histogram.count);
            c.batch_sum = sample.histogram.sum;
        } else if (n == "aero_batch_steps_total") {
            c.batch_steps = static_cast<double>(sample.counter);
        } else if (n == "aero_cache_hits") {
            c.cache_hits = g;
        } else if (n == "aero_cache_misses") {
            c.cache_misses = g;
        } else if (n == "aero_cache_evictions") {
            c.cache_evictions = g;
        } else if (n == "aero_alloc_requests") {
            c.alloc_requests = g;
        } else if (n == "aero_alloc_hits") {
            c.alloc_hits = g;
        } else if (n == "aero_alloc_resident_bytes") {
            c.alloc_resident_bytes = g;
        } else if (n == "aero_pool_tasks") {
            c.pool_tasks = g;
        } else if (n == "aero_pool_chunks") {
            c.pool_chunks = g;
        } else if (n == "aero_pool_caller_chunks") {
            c.pool_caller_chunks = g;
        } else if (n == "aero_pool_queue_wait_ms") {
            c.pool_queue_wait_ms = g;
        }
    }
    return c;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_counter_metrics(const Counters& b, const Counters& a, double images,
                         Report* report) {
    const double batches = a.batch_count - b.batch_count;
    report->add("batch.size.mean", ratio(a.batch_sum - b.batch_sum, batches),
                "jobs");
    report->add("batch.steps", a.batch_steps - b.batch_steps, "count");

    const double hits = a.cache_hits - b.cache_hits;
    const double lookups = hits + (a.cache_misses - b.cache_misses);
    report->add("mem.cache.hit_ratio", ratio(hits, lookups), "ratio");
    report->add("mem.cache.lookups", lookups, "count");
    report->add("mem.cache.evictions", a.cache_evictions - b.cache_evictions,
                "count");

    const double requests = a.alloc_requests - b.alloc_requests;
    report->add("mem.alloc.requests", requests, "count");
    report->add("mem.alloc.requests_per_image", ratio(requests, images),
                "count");
    report->add("mem.alloc.hit_ratio",
                ratio(a.alloc_hits - b.alloc_hits, requests), "ratio");
    report->add("mem.alloc.resident_mb",
                a.alloc_resident_bytes / (1024.0 * 1024.0), "MB");

    const double tasks = a.pool_tasks - b.pool_tasks;
    const double chunks = a.pool_chunks - b.pool_chunks;
    report->add("util.pool.tasks_per_image", ratio(tasks, images), "count");
    report->add("util.pool.chunks", chunks, "count");
    report->add("util.pool.caller_share",
                ratio(a.pool_caller_chunks - b.pool_caller_chunks, chunks),
                "ratio");
    report->add("util.pool.queue_wait_ms",
                ratio(a.pool_queue_wait_ms - b.pool_queue_wait_ms, tasks),
                "ms");
    report->add("trace.images", images, "count");
}

}  // namespace perfbench
