#pragma once
// The two workloads. Each generates its inputs from the seed before
// timing starts, drives the program's public API for its measuring
// window, checks outputs outside that window, and returns its
// end-to-end figures plus, when traced, its per-layer figures.

#include "bench.hpp"

namespace perfbench {

struct PhaseResult {
    double p50_ms = 0.0;
    double tail_ms = 0.0;
    double throughput_per_s = 0.0;
    /// The figure trace.overhead_ratio compares between the untraced
    /// and the traced half of a traced run (ms per unit of work).
    double overhead_basis_ms = 0.0;
    long long attempted = 0;
    long long failed = 0;
    /// A fixed sample of the workload's own inputs, replayed through the
    /// layer functions by the traced run.
    std::vector<SceneInput> replay_inputs;
};

/// `traced` adds the per-layer figures of this pass to `report`;
/// correctness violations always go to `report`.
PhaseResult run_bulk_repeat(const Harness& harness, const Settings& settings,
                            std::uint64_t seed, double seconds, bool traced,
                            Report* report);
PhaseResult run_train_fit(const Harness& harness, const Settings& settings,
                          std::uint64_t seed, double seconds, bool traced,
                          Report* report);

/// train_fit has no serve layer: its traced run reports the serve
/// figures as zero so every traced run prints the same per-layer set.
void add_empty_serve_metrics(Report* report);

/// Times the public layer functions on `inputs` with bench-side spans
/// and adds the replay figures to `report`.
void replay_layers(const Harness& harness,
                   const std::vector<SceneInput>& inputs, std::uint64_t seed,
                   Report* report);

}  // namespace perfbench
