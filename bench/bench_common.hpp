#pragma once
// Shared harness for the experiment benches: builds the dataset and
// substrate at the current AERO_BENCH_SCALE, runs the standard
// generate-and-score protocol, and prints paper-style tables.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/models.hpp"
#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "metrics/metrics.hpp"
#include "obs/clock.hpp"
#include "util/env.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace aero::bench {

/// Dataset + substrate bundle for one bench run.
struct Harness {
    core::Budget budget;
    std::unique_ptr<scene::AerialDataset> dataset;
    core::Substrate substrate;
    std::vector<image::Image> real_pool;   ///< test images (FID/KID target)
    std::vector<image::Image> references;  ///< paired originals for PSNR
};

inline Harness build_harness(std::uint64_t seed = 2025,
                             double night_fraction = 0.2) {
    Harness harness;
    harness.budget = core::Budget::from_scale();
    scene::DatasetConfig config;
    config.train_size = harness.budget.train_images;
    config.test_size = harness.budget.test_images;
    config.image_size = harness.budget.image_size;
    config.generator.night_fraction = night_fraction;
    config.seed = seed;
    harness.dataset = std::make_unique<scene::AerialDataset>(config);
    util::Rng rng(seed);
    harness.substrate =
        core::build_substrate(*harness.dataset, harness.budget, rng);

    // Real pool: both splits, for a stabler FID reference distribution
    // (generated sets stay small, but the noise is shared across models).
    for (const scene::AerialSample& s : harness.dataset->train()) {
        harness.real_pool.push_back(s.image);
    }
    for (const scene::AerialSample& s : harness.dataset->test()) {
        harness.real_pool.push_back(s.image);
    }
    const int eval =
        std::min<int>(harness.budget.eval_samples,
                      static_cast<int>(harness.dataset->test().size()));
    for (int i = 0; i < eval; ++i) {
        harness.references.push_back(
            harness.dataset->test()[static_cast<std::size_t>(i)].image);
    }
    return harness;
}

/// Generates `repeats` images per reference test sample with `model`
/// (distinct sampling noise per repeat). NOTE: FID prefers many DISTINCT
/// scenes over repeats of the same scene -- repeating references shrinks
/// the generated covariance and biases the metric against
/// well-conditioned (reconstruction-faithful) models -- so the default
/// is one generation per distinct test scene.
inline std::vector<image::Image> generate_eval_set(
    const baselines::SynthesisModel& model, const Harness& harness,
    util::Rng& rng, int repeats = 1) {
    std::vector<image::Image> generated;
    const int eval = static_cast<int>(harness.references.size());
    generated.reserve(static_cast<std::size_t>(eval * repeats));
    for (int r = 0; r < repeats; ++r) {
        for (int i = 0; i < eval; ++i) {
            generated.push_back(model.generate(
                harness.dataset->test()[static_cast<std::size_t>(i)], i,
                rng));
        }
    }
    return generated;
}

/// Table-I metric triple for a generated set. The generated set may hold
/// several repeats per reference; PSNR pairs each image with its
/// reference cyclically, FID/KID use the whole set.
inline metrics::SynthesisScores score_eval_set(
    const Harness& harness, const std::vector<image::Image>& generated) {
    std::vector<image::Image> paired_references;
    paired_references.reserve(generated.size());
    for (std::size_t i = 0; i < generated.size(); ++i) {
        paired_references.push_back(
            harness.references[i % harness.references.size()]);
    }
    return metrics::evaluate_synthesis(*harness.substrate.feature_net,
                                       harness.real_pool, paired_references,
                                       generated);
}

// ---- table printing ---------------------------------------------------------

inline void print_rule(const std::vector<std::size_t>& widths) {
    std::string line = "+";
    for (std::size_t w : widths) {
        line += std::string(w + 2, '-');
        line += '+';
    }
    std::printf("%s\n", line.c_str());
}

inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<std::size_t>& widths) {
    std::string line = "|";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        line += ' ';
        line += util::pad_right(cells[i], widths[i]);
        line += " |";
    }
    std::printf("%s\n", line.c_str());
}

/// Prints a complete bordered table: header plus rows.
inline void print_table(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
    std::vector<std::size_t> widths(header.size());
    for (std::size_t i = 0; i < header.size(); ++i) {
        widths[i] = header[i].size();
    }
    for (const auto& row : rows) {
        for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
            widths[i] = std::max(widths[i], row[i].size());
        }
    }
    print_rule(widths);
    print_row(header, widths);
    print_rule(widths);
    for (const auto& row : rows) print_row(row, widths);
    print_rule(widths);
}

/// Output directory for generated images (created on demand).
inline std::string output_dir(const std::string& name) {
    const std::string dir = "out/" + name;
    std::filesystem::create_directories(dir);
    return dir;
}

inline std::string fmt(double v, int decimals = 2) {
    return util::format_fixed(v, decimals);
}

/// The p-th quantile (p in [0, 1]) of `values`, linearly interpolated
/// between the two nearest ranks; 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Directory bench result JSON lands in: AERO_RESULTS_DIR when set,
/// otherwise out/results (relative to the CWD).
inline std::string results_dir() {
    return util::env_string("AERO_RESULTS_DIR", "out/results");
}

/// Writes a machine-readable copy of a bench's results to
/// <results_dir()>/<name>.json. A bench whose numbers never hit disk is
/// worse than one that fails loudly (read-only CWD, ENOSPC), so a
/// failed write aborts the bench with a non-zero exit.
inline void record_results(const std::string& name,
                           const util::JsonValue& payload) {
    const std::string dir = results_dir();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + name + ".json";
    if (ec || !payload.write_file(path)) {
        std::fprintf(stderr, "FATAL: failed to write bench results to %s\n",
                     path.c_str());
        std::exit(1);
    }
}

}  // namespace aero::bench
