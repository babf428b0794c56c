#include "serve/overload.hpp"

#include <algorithm>
#include <cmath>

namespace aero::serve {

AdmissionController::Metrics AdmissionController::resolve_metrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    Metrics m;
    m.limit = &reg.gauge("aero_overload_limit",
                         "adaptive AIMD concurrency limit");
    m.load_index = &reg.gauge("aero_overload_load_index",
                              "smoothed load index (1.0 = at target)");
    m.rung = &reg.gauge("aero_overload_rung",
                        "current base degradation rung (0 full .. 4 shed)");
    m.rung_transition[static_cast<int>(DegradeRung::kFull)] = &reg.counter(
        "aero_overload_rung_full_total", "ladder transitions into full");
    m.rung_transition[static_cast<int>(DegradeRung::kReducedSteps)] =
        &reg.counter("aero_overload_rung_reduced_steps_total",
                     "ladder transitions into reduced DDIM steps");
    m.rung_transition[static_cast<int>(DegradeRung::kReducedResolution)] =
        &reg.counter("aero_overload_rung_reduced_resolution_total",
                     "ladder transitions into half-resolution sampling");
    m.rung_transition[static_cast<int>(DegradeRung::kUnconditional)] =
        &reg.counter("aero_overload_rung_unconditional_total",
                     "ladder transitions into unconditional fallback");
    m.rung_transition[static_cast<int>(DegradeRung::kShed)] = &reg.counter(
        "aero_overload_rung_shed_total", "ladder transitions into shed");
    m.codel_dropped = &reg.counter(
        "aero_overload_codel_dropped_total",
        "queued requests dropped by the CoDel sojourn discipline");
    m.decreases = &reg.counter("aero_overload_decreases_total",
                               "AIMD multiplicative limit decreases");
    return m;
}

AdmissionController::AdmissionController(const OverloadConfig& config,
                                         const obs::Clock* clock)
    : config_(config),
      clock_(clock != nullptr ? clock : &obs::default_clock()),
      metrics_(resolve_metrics()),
      limit_(std::max(1, config.max_limit)),
      limit_exact_(static_cast<double>(std::max(1, config.max_limit))) {
    config_.min_limit = std::max(1, config_.min_limit);
    config_.max_limit = std::max(config_.min_limit, config_.max_limit);
    config_.window = std::max(1, config_.window);
    config_.decrease_factor =
        std::clamp(config_.decrease_factor, 0.05, 0.99);
    config_.load_smoothing = std::clamp(config_.load_smoothing, 0.01, 1.0);
    window_.assign(static_cast<std::size_t>(config_.window), 0.0);
    if (config_.enabled && config_.step_target_ms > 0.0) {
        step_histogram_ = &obs::MetricsRegistry::instance().histogram(
            "aero_diffusion_step_ms", "single DDIM denoising step, ms",
            obs::default_ms_buckets());
        // Baseline the cumulative histogram: only steps observed after
        // this controller exists count toward its p99 deltas.
        const obs::Histogram::Snapshot snap = step_histogram_->snapshot();
        step_seen_count_ = snap.count;
        step_seen_cumulative_ = snap.cumulative;
    }
    metrics_.limit->set(static_cast<double>(limit_.load()));
    metrics_.rung->set(0.0);
}

void AdmissionController::set_rung_locked(DegradeRung rung) {
    // Transition accounting contract (overload-accounting lint rule):
    // every write of rung_ increments the matching aero_overload_
    // rung-transition counter on the adjacent line.
    rung_.store(static_cast<int>(rung), std::memory_order_relaxed);
    metrics_.rung_transition[static_cast<int>(rung)]->inc();
    metrics_.rung->set(static_cast<double>(static_cast<int>(rung)));
}

double AdmissionController::ingest_step_p99_locked() {
    if (step_histogram_ == nullptr || !obs::enabled()) return -1.0;
    const obs::Histogram::Snapshot snap = step_histogram_->snapshot();
    if (step_seen_cumulative_.size() != snap.cumulative.size()) {
        step_seen_cumulative_.assign(snap.cumulative.size(), 0);
    }
    const long long fresh = snap.count - step_seen_count_;
    if (fresh <= 0) return -1.0;
    // p99 of the per-bucket deltas since the previous evaluation: the
    // smallest bucket edge covering 99% of the new observations. New
    // observations landing past every finite edge report the last edge
    // (a floor — good enough to detect overshoot, which is all AIMD
    // needs).
    const long long want = (fresh * 99 + 99) / 100;  // ceil(0.99 * fresh)
    double p99 = snap.bounds.empty() ? 0.0 : snap.bounds.back();
    for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
        const long long delta = snap.cumulative[i] - step_seen_cumulative_[i];
        if (delta >= want) {
            p99 = snap.bounds[i];
            break;
        }
    }
    step_seen_count_ = snap.count;
    step_seen_cumulative_ = snap.cumulative;
    step_p99_ms_.store(p99, std::memory_order_relaxed);
    return p99;
}

void AdmissionController::evaluate_locked(std::int64_t now_ns) {
    last_eval_ns_ = now_ns;

    // Latency overshoot: the worse of the request-window p99 and the
    // step-histogram p99, each against its own target.
    double ratio = 0.0;
    bool have_signal = false;
    const std::size_t n =
        std::min(window_count_, window_.size());
    // A poll()-driven evaluation with no completions since the last one
    // has no fresh latency evidence: skip the stale window so the load
    // index decays toward the live queue signal instead of latching.
    if (finishes_since_eval_ > 0 && n > 0 &&
        config_.latency_target_ms > 0.0) {
        std::vector<double> sorted(window_.begin(),
                                   window_.begin() + static_cast<long>(n));
        const std::size_t idx = static_cast<std::size_t>(
            std::ceil(0.99 * static_cast<double>(n - 1)));
        std::nth_element(sorted.begin(),
                         sorted.begin() + static_cast<long>(idx),
                         sorted.end());
        ratio = sorted[idx] / config_.latency_target_ms;
        have_signal = true;
    }
    const double step_p99 = ingest_step_p99_locked();
    if (step_p99 >= 0.0 && config_.step_target_ms > 0.0) {
        ratio = std::max(ratio, step_p99 / config_.step_target_ms);
        have_signal = true;
    }

    // Queue pressure joins the load index (the ladder reacts to a
    // standing queue even while per-request latency looks fine), but
    // not the AIMD term — shrinking concurrency cannot shrink a queue.
    double sojourn_ratio = 0.0;
    if (config_.codel_target_ms > 0.0) {
        sojourn_ratio = max_sojourn_ms_ / config_.codel_target_ms;
    }
    max_sojourn_ms_ = 0.0;

    const double load = std::max(ratio, sojourn_ratio);
    const double alpha = config_.load_smoothing;
    const double index =
        (1.0 - alpha) * load_index_.load(std::memory_order_relaxed) +
        alpha * load;
    load_index_.store(index, std::memory_order_relaxed);
    metrics_.load_index->set(index);

    if (have_signal) {
        const std::int64_t interval_ns =
            static_cast<std::int64_t>(config_.interval_ms * 1e6);
        if (ratio > 1.0) {
            if (now_ns - last_decrease_ns_ >= interval_ns) {
                last_decrease_ns_ = now_ns;
                limit_exact_ = std::max(
                    static_cast<double>(config_.min_limit),
                    limit_exact_ * config_.decrease_factor);
                decreases_.fetch_add(1, std::memory_order_relaxed);
                metrics_.decreases->inc();
            }
        } else {
            limit_exact_ =
                std::min(static_cast<double>(config_.max_limit),
                         limit_exact_ + config_.additive_increase);
        }
        limit_.store(static_cast<int>(limit_exact_),
                     std::memory_order_relaxed);
        metrics_.limit->set(std::floor(limit_exact_));
    }

    // Ladder: map the smoothed index through the ascending thresholds.
    DegradeRung rung = DegradeRung::kFull;
    for (int i = 0; i < kNumDegradeRungs - 1; ++i) {
        if (index >= config_.rung_thresholds[i]) {
            rung = static_cast<DegradeRung>(i + 1);
        }
    }
    if (rung != static_cast<DegradeRung>(
                    rung_.load(std::memory_order_relaxed))) {
        set_rung_locked(rung);
    }
    finishes_since_eval_ = 0;
}

void AdmissionController::on_finish(double latency_ms) {
    if (!config_.enabled) return;
    const util::MutexLock lock(mutex_);
    window_[window_next_] = latency_ms;
    window_next_ = (window_next_ + 1) % window_.size();
    ++window_count_;
    ++finishes_since_eval_;
    evaluate_locked(clock_->now_ns());
}

void AdmissionController::poll() {
    if (!config_.enabled) return;
    const util::MutexLock lock(mutex_);
    const std::int64_t now_ns = clock_->now_ns();
    // Queue state changes on the CoDel timescale, not the AIMD one:
    // decaying faster than codel_interval_ms would collapse the index
    // between two completions and flap the ladder full <-> shed.
    const std::int64_t interval_ns =
        static_cast<std::int64_t>(config_.codel_interval_ms * 1e6);
    if (now_ns - last_eval_ns_ >= interval_ns) evaluate_locked(now_ns);
}

void AdmissionController::inject_spike() {
    if (!config_.enabled) return;
    const util::MutexLock lock(mutex_);
    window_[window_next_] = config_.spike_factor * config_.latency_target_ms;
    window_next_ = (window_next_ + 1) % window_.size();
    ++window_count_;
    ++finishes_since_eval_;
    evaluate_locked(clock_->now_ns());
}

bool AdmissionController::codel_drop(double sojourn_ms) {
    if (!config_.enabled) return false;
    const util::MutexLock lock(mutex_);
    max_sojourn_ms_ = std::max(max_sojourn_ms_, sojourn_ms);
    if (sojourn_ms < config_.codel_target_ms ||
        config_.codel_target_ms <= 0.0) {
        codel_first_over_ns_ = 0;
        codel_drop_count_ = 0;
        return false;
    }
    const std::int64_t now_ns = clock_->now_ns();
    const std::int64_t interval_ns =
        static_cast<std::int64_t>(config_.codel_interval_ms * 1e6);
    if (codel_first_over_ns_ == 0) {
        // First overage: start the grace interval, don't drop yet.
        codel_first_over_ns_ = now_ns;
        codel_drop_next_ns_ = now_ns + interval_ns;
        return false;
    }
    if (now_ns < codel_drop_next_ns_) return false;
    // Sustained overage: drop, and accelerate the next drop by the
    // CoDel control law (interval / sqrt(drop count)).
    ++codel_drop_count_;
    codel_drop_next_ns_ =
        now_ns + static_cast<std::int64_t>(
                     static_cast<double>(interval_ns) /
                     std::sqrt(static_cast<double>(codel_drop_count_ + 1)));
    codel_drops_.fetch_add(1, std::memory_order_relaxed);
    metrics_.codel_dropped->inc();
    return true;
}

DegradeRung AdmissionController::rung_for(Priority priority) const {
    if (!config_.enabled) return DegradeRung::kFull;
    if (priority == Priority::kInteractive) {
        return static_cast<DegradeRung>(
            rung_.load(std::memory_order_relaxed));
    }
    // Batch reads the ladder biased toward more degradation, so bulk
    // traffic gives up quality (and eventually admission) first.
    const double index =
        load_index_.load(std::memory_order_relaxed) + config_.batch_bias;
    DegradeRung rung = DegradeRung::kFull;
    for (int i = 0; i < kNumDegradeRungs - 1; ++i) {
        if (index >= config_.rung_thresholds[i]) {
            rung = static_cast<DegradeRung>(i + 1);
        }
    }
    // Never milder than the interactive base rung.
    return std::max(rung, static_cast<DegradeRung>(
                              rung_.load(std::memory_order_relaxed)));
}

}  // namespace aero::serve
