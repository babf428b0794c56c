// bulk_repeat: closed-loop repeat-prompt augmentation through the
// service with 16 workers and the step batcher.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>

#include "serve/service.hpp"
#include "text/llm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The request seed stream of the service's first attempt
/// (InferenceService::process derives it from the request seed).
constexpr std::uint64_t kFirstAttemptStride = 0xd1b54a32d192ed03ull;

bool same_bytes(const image::Image& a, const image::Image& b) {
    return a.width() == b.width() && a.height() == b.height() &&
           a.data().size() == b.data().size() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/// Served images of a fixed subset, checked against the inline call
/// once the measuring window has closed.
struct GateCase {
    serve::InferenceRequest request;
    serve::RequestResult result;
};

void check_gate(const core::AeroDiffusionPipeline& pipeline,
                const std::vector<GateCase>& cases, Report* report) {
    for (const GateCase& c : cases) {
        if (c.result.attempts != 1) {
            report->violation("bulk_repeat: gate request took more than one "
                              "attempt");
            continue;
        }
        util::Rng rng(c.request.seed + kFirstAttemptStride);
        const image::Image inline_image =
            pipeline.generate(c.request.reference, c.request.source_caption,
                              c.request.target_caption, rng, -1);
        if (!same_bytes(c.result.image, inline_image)) {
            report->violation("bulk_repeat: served image differs from the "
                              "inline generate call");
        }
    }
}

/// Logs the outcome counts and checks the accounting invariant.
void check_accounting(const serve::ServiceStats& stats, Report* report) {
    std::printf("# bulk_repeat outcomes:");
    for (int o = 0; o < serve::kNumOutcomes; ++o) {
        std::printf(" %s=%lld",
                    serve::outcome_name(static_cast<serve::Outcome>(o)),
                    stats.by_outcome[o]);
    }
    std::printf("\n");
    if (!stats.balanced()) {
        report->violation("bulk_repeat: ServiceStats not balanced (submitted " +
                          std::to_string(stats.submitted) + ", terminal " +
                          std::to_string(stats.terminal()) + ")");
    }
}

/// Per-request figures the traced pass reads off RequestResult.
struct RequestTrace {
    std::vector<double> queue_ms;
    std::vector<double> service_ms;
    std::vector<double> condition_ms;
    std::vector<double> sample_ms;
    std::vector<double> decode_ms;

    void add(const serve::RequestResult& r) {
        queue_ms.push_back(r.queue_ms);
        service_ms.push_back(r.latency_ms - r.queue_ms);
        for (const obs::SpanSummaryEntry& e : r.spans.entries) {
            if (e.depth != 0) continue;
            const std::string name = e.name;
            if (name == "condition") condition_ms.push_back(e.total_ms);
            if (name == "sample") sample_ms.push_back(e.total_ms);
            if (name == "decode") decode_ms.push_back(e.total_ms);
        }
    }
};

void add_serve_metrics(const RequestTrace& t, double shed, double timeout,
                       Report* report) {
    const Summary queue = summarize(t.queue_ms);
    report->add("serve.queue_ms.p50", queue.p50, "ms");
    report->add("serve.queue_ms.tail", queue.tail, "ms");
    report->add("serve.queue_ms.tail_pct", queue.tail_pct, "%");
    report->add("serve.queue_ms.samples", static_cast<double>(queue.n),
                "count");
    report->add("serve.service_ms.p50", median(t.service_ms), "ms");
    report->add("serve.shed", shed, "count");
    report->add("serve.timeout", timeout, "count");
    report->add("core.condition_ms.p50", median(t.condition_ms), "ms");
    report->add("core.sample_ms.p50", median(t.sample_ms), "ms");
    report->add("core.decode_ms.p50", median(t.decode_ms), "ms");
    report->add("core.stage.samples", static_cast<double>(t.sample_ms.size()),
                "count");
}

/// Case and whitespace rewording that canonicalises to the same prompt,
/// kept within the service's caption length limit.
std::string reword(const std::string& caption, util::Rng& rng) {
    const std::size_t max_chars = serve::ValidationLimits{}.max_caption_chars;
    std::size_t spare =
        caption.size() < max_chars ? max_chars - caption.size() : 0;
    std::string out;
    const auto pad = [&](std::size_t n) {
        n = std::min(n, spare);
        out.append(n, ' ');
        spare -= n;
    };
    if (rng.bernoulli(0.3)) pad(2);
    bool upper_word = rng.bernoulli(0.3);
    for (const char ch : caption) {
        if (ch == ' ') {
            out += ' ';
            if (rng.bernoulli(0.2)) pad(2);
            upper_word = rng.bernoulli(0.3);
            continue;
        }
        out += upper_word ? static_cast<char>(std::toupper(
                                static_cast<unsigned char>(ch)))
                          : ch;
    }
    if (rng.bernoulli(0.3)) pad(2);
    return out;
}

}  // namespace

PhaseResult run_bulk_repeat(const Harness& harness, const Settings& settings,
                            std::uint64_t seed, double seconds, bool traced,
                            Report* report) {
    const std::string w = "bulk_repeat";
    const int window = static_cast<int>(settings.number(w, "window"));
    const int workers = static_cast<int>(settings.number(w, "workers"));
    const int scenes = static_cast<int>(settings.number(w, "scenes"));
    const double new_scene = settings.number(w, "new_scene_share");
    const double new_caption = settings.number(w, "new_caption_share");
    const int pool_size = static_cast<int>(settings.number(w, "pool_requests"));
    const int size = harness.budget.image_size;
    const auto& test = harness.dataset->test();
    const auto& captions = harness.substrate->keypoint_test;

    util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 29);
    std::vector<int> pick;
    for (int i = 0; i < static_cast<int>(test.size()); ++i) pick.push_back(i);
    rng.shuffle(pick);
    pick.resize(static_cast<std::size_t>(scenes));

    const auto request_for = [&](const scene::AerialSample& sample,
                                 const std::string& caption) {
        serve::InferenceRequest request;
        request.reference = sample;
        request.source_caption = caption;
        request.target_caption = caption;
        request.seed = rng.next_u64();
        request.options.priority = serve::Priority::kBatch;
        return request;
    };
    // The submitter cycles through this pool, so the window never runs
    // out of requests however fast the program is. The pool brings more
    // new prompts per cycle than the condition cache holds, so a reused
    // new prompt has been evicted again and the cache mix stays the same.
    const text::SimulatedLlm llm = text::SimulatedLlm::keypoint_aware();
    const text::PromptTemplate prompt = text::PromptTemplate::keypoint_aware();
    std::vector<serve::InferenceRequest> pool;
    for (int i = 0; i < pool_size; ++i) {
        const double u = rng.uniform();
        const auto& canon = test[static_cast<std::size_t>(
            pick[static_cast<std::size_t>(rng.uniform_int(0, scenes - 1))])];
        const std::size_t slot =
            static_cast<std::size_t>(&canon - test.data());
        if (u < new_scene) {
            const SceneInput fresh = fresh_scene(rng, 200000 + i, size);
            pool.push_back(request_for(fresh.sample, fresh.caption));
        } else if (u < new_scene + new_caption) {
            pool.push_back(request_for(
                canon, llm.describe(canon.scene, prompt, rng).text));
        } else {
            pool.push_back(
                request_for(canon, reword(captions[slot].text, rng)));
        }
    }
    PhaseResult phase;
    for (int i = 0; i < scenes && i < 6; ++i) {
        const std::size_t slot = static_cast<std::size_t>(pick[i]);
        phase.replay_inputs.push_back({test[slot], captions[slot].text});
    }

    serve::ServiceConfig config;
    config.workers = workers;
    config.batch.batch_max = workers;
    config.queue_capacity = static_cast<std::size_t>(window);
    config.rate_limit = util::RateLimitConfig{};  // limiter pinned off
    serve::InferenceService service(*harness.pipeline, config);
    {
        // Fill the condition cache with the canonical prompts first.
        std::vector<std::future<serve::RequestResult>> warm;
        for (const int index : pick) {
            const std::size_t slot = static_cast<std::size_t>(index);
            warm.push_back(
                service.submit(request_for(test[slot], captions[slot].text)));
        }
        for (auto& f : warm) f.get();
    }

    // The window is cut into equal sub-windows; each figure is the
    // median over the quieter half of them by CPU steal.
    const int parts = std::max(
        1, static_cast<int>(std::lround(
               seconds / settings.number(w, "sub_window_seconds"))));
    const double part_ms = seconds * 1000.0 / parts;
    std::vector<std::vector<double>> part_latency(
        static_cast<std::size_t>(parts));
    // CPU counters at each sub-window edge, taken at the first
    // completion past it.
    std::vector<CpuSample> edge(static_cast<std::size_t>(parts) + 1);
    std::size_t next_edge = 1;
    const Counters before = read_counters();
    RequestTrace trace;
    std::vector<GateCase> gate;
    std::deque<std::pair<std::future<serve::RequestResult>, std::size_t>>
        inflight;
    std::size_t submitted = 0;
    const auto submit_next = [&] {
        const std::size_t index = submitted++ % pool.size();
        inflight.emplace_back(service.submit(pool[index]), index);
    };
    edge[0] = cpu_sample();
    const Clock::time_point start = Clock::now();
    while (inflight.size() < static_cast<std::size_t>(window)) submit_next();
    long long completed = 0;
    bool closed = false;
    while (!inflight.empty()) {
        auto [future, index] = std::move(inflight.front());
        inflight.pop_front();
        serve::RequestResult r = future.get();
        const double at_ms = ms_between(start, Clock::now());
        ++phase.attempted;
        const bool ok = r.outcome == serve::Outcome::kOk;
        if (!ok) ++phase.failed;
        closed = closed || at_ms >= seconds * 1000.0;
        while (next_edge < edge.size() &&
               at_ms >= static_cast<double>(next_edge) * part_ms) {
            edge[next_edge++] = cpu_sample();
        }
        if (!closed) {
            ++completed;
            part_latency[static_cast<std::size_t>(at_ms / part_ms)].push_back(
                r.latency_ms);
            if (traced) trace.add(r);
            submit_next();
        }
        if (ok && gate.size() < 8 && index % 7 == 0) {
            gate.push_back({pool[index], std::move(r)});
        }
    }
    const Counters after = read_counters();
    service.stop();
    const serve::ServiceStats stats = service.stats();
    check_accounting(stats, report);
    check_gate(*harness.pipeline, gate, report);

    while (next_edge < edge.size()) edge[next_edge++] = cpu_sample();
    std::vector<double> steal;
    for (std::size_t p = 0; p + 1 < edge.size(); ++p) {
        steal.push_back(steal_share(edge[p], edge[p + 1]));
    }
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> tails;
    const std::vector<std::size_t> quiet = quiet_half(steal);
    for (const std::size_t p : quiet) {
        const Summary summary = summarize(part_latency[p]);
        rates.push_back(static_cast<double>(part_latency[p].size()) * 1000.0 /
                        part_ms);
        p50s.push_back(summary.p50);
        tails.push_back(summary.tail);
    }
    phase.throughput_per_s = median(rates);
    phase.p50_ms = median(p50s);
    phase.tail_ms = median(tails);
    phase.overhead_basis_ms =
        phase.throughput_per_s > 0.0 ? 1000.0 / phase.throughput_per_s : 0.0;
    std::printf("# bulk_repeat: %lld images in %.1f s from a pool of %zu; "
                "median over the %zu of %d sub-windows with the least CPU "
                "steal: %.2f img/s, latency p50 %.1f ms, tail %.1f ms; gate "
                "checked %zu images\n",
                completed, seconds, pool.size(), quiet.size(), parts,
                phase.throughput_per_s, phase.p50_ms, phase.tail_ms,
                gate.size());
    if (traced) {
        add_serve_metrics(
            trace, static_cast<double>(stats.outcome(serve::Outcome::kShed)),
            static_cast<double>(stats.outcome(serve::Outcome::kTimeout)),
            report);
        add_counter_metrics(before, after, static_cast<double>(completed),
                            report);
    }
    return phase;
}

void add_empty_serve_metrics(Report* report) {
    add_serve_metrics(RequestTrace{}, 0.0, 0.0, report);
}

}  // namespace perfbench
