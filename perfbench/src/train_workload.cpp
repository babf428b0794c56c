// train_fit: AeroDiffusionPipeline::fit() with a fixed step count and
// seed, repeated on fresh pipelines for the measuring window.

#include <cmath>

#include "workloads.hpp"

namespace perfbench {

PhaseResult run_train_fit(const Harness& harness, const Settings& settings,
                          std::uint64_t seed, double seconds, bool traced,
                          Report* report) {
    const int steps = harness.budget.diffusion_steps;
    const int batch = harness.budget.batch_size;
    PhaseResult phase;
    const auto& train = harness.dataset->train();
    const auto& captions = harness.substrate->keypoint_train;
    for (std::size_t i = 0; i < 6 && i < train.size(); ++i) {
        phase.replay_inputs.push_back({train[i], captions[i].text});
    }

    const Counters before = read_counters();
    std::vector<double> fit_s;
    std::vector<double> steal;
    std::vector<diffusion::DiffusionTrainStats> runs;
    const Clock::time_point start = Clock::now();
    const int max_reps =
        static_cast<int>(settings.number("train_fit", "max_reps"));
    while (static_cast<int>(fit_s.size()) < max_reps) {
        const double elapsed = ms_between(start, Clock::now()) / 1000.0;
        // Start another fit only if it is expected to end in the window.
        if (!fit_s.empty() && elapsed + fit_s.back() > seconds) break;
        util::Rng init_rng(seed * 0x9e3779b97f4a7c15ull + 41);
        core::AeroDiffusionPipeline pipeline(
            core::PipelineConfig::aero_diffusion(), *harness.substrate,
            init_rng);
        util::Rng fit_rng(seed * 0x9e3779b97f4a7c15ull + 43);
        const CpuSample cpu_start = cpu_sample();
        const Clock::time_point fit_start = Clock::now();
        runs.push_back(pipeline.fit(fit_rng));
        fit_s.push_back(ms_between(fit_start, Clock::now()) / 1000.0);
        steal.push_back(steal_share(cpu_start, cpu_sample()));
    }
    const Counters after = read_counters();

    for (const diffusion::DiffusionTrainStats& run : runs) {
        phase.attempted += steps;
        phase.failed += run.rollbacks + run.nan_events;
        if (!std::isfinite(run.first_loss) || !std::isfinite(run.tail_loss) ||
            !std::isfinite(run.final_loss)) {
            report->violation("train_fit: non-finite loss");
        } else if (!(run.tail_loss < run.first_loss)) {
            report->violation("train_fit: tail loss did not fall below the "
                              "first loss");
        }
        // Same seed, same work: fit() is deterministic for any pool size.
        if (run.first_loss != runs.front().first_loss ||
            run.tail_loss != runs.front().tail_loss) {
            report->violation("train_fit: repeated fit() with one seed gave "
                              "different losses");
        }
    }
    std::vector<double> quiet_s;
    for (const std::size_t i : quiet_half(steal)) quiet_s.push_back(fit_s[i]);
    const double median_fit = quiet_median(fit_s, steal);
    phase.throughput_per_s = steps / median_fit;
    phase.p50_ms = 1000.0 * median_fit / steps;
    phase.tail_ms = 1000.0 * summarize(quiet_s).tail / steps;
    phase.overhead_basis_ms = phase.p50_ms;
    std::printf("# train_fit: %zu fit() calls of %d steps at batch %d, "
                "%zu with the least CPU steal: median %.3f s, slowest "
                "%.3f s; loss %.4f -> %.4f\n",
                fit_s.size(), steps, batch, quiet_s.size(), median_fit,
                summarize(quiet_s).tail, runs.front().first_loss,
                runs.front().tail_loss);
    if (traced) {
        add_empty_serve_metrics(report);
        add_counter_metrics(
            before, after,
            static_cast<double>(fit_s.size()) * steps * batch, report);
    }
    return phase;
}

}  // namespace perfbench
