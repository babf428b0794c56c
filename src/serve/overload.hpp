#pragma once
// Adaptive overload control for the serve stack (DESIGN.md §14): an
// AdmissionController that turns hard failure under saturation into
// measured quality degradation. Three cooperating mechanisms, all
// driven from one injectable obs::Clock so tests pin them with a
// ManualClock:
//
//   * AIMD concurrency limit. The controller watches the p99 of
//     completed-request latencies (window quantile) and, when obs is
//     on, the p99 of the `aero_diffusion_step_ms` histogram the sampler
//     already exports — whichever signal overshoots its target more.
//     Overshoot applies one multiplicative decrease per interval
//     (limit *= decrease_factor); on-target windows earn an additive
//     increase (+additive_increase), clamped to [min_limit, max_limit].
//     Workers gate on the limit, so effective concurrency follows
//     measured latency instead of a static thread count.
//
//   * CoDel queue discipline. Each dequeue reports the head-of-queue
//     sojourn time; once sojourn stays above codel_target_ms for a full
//     codel_interval_ms, the head is dropped (resolved kShed), and
//     successive drops accelerate by the CoDel sqrt law until sojourn
//     dips back under target. Standing queues convert to fast failures
//     instead of serving every request late.
//
//   * Degradation ladder. An EWMA load index over max(latency ratio,
//     sojourn ratio) selects the base rung: full -> reduced DDIM steps
//     -> reduced resolution -> unconditional fallback -> shed. Batch
//     requests read the ladder one bias step worse than interactive, so
//     quality is taken from bulk traffic first. Every base-rung
//     transition increments its `aero_overload_rung_*_total` counter
//     (the overload-accounting lint rule pins call sites to that
//     contract).
//
// Gating: a controller is live only when OverloadConfig::enabled is set
// (off by default). Disabled, every query degenerates to the identity
// (limit = max, rung = kFull, no drops) and serving output is bitwise
// identical to a build without this subsystem.

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace aero::serve {

struct OverloadConfig {
    /// Master switch for this controller. Off by default so existing
    /// services are untouched.
    bool enabled = false;

    // -- AIMD concurrency limit --
    /// End-to-end latency target; window p99 above it is overload.
    double latency_target_ms = 50.0;
    /// Per-denoising-step latency target fed by the
    /// aero_diffusion_step_ms histogram; <= 0 disables the step signal
    /// (the request-latency window still drives the controller).
    double step_target_ms = 0.0;
    int min_limit = 1;
    int max_limit = 64;
    double additive_increase = 1.0;
    double decrease_factor = 0.7;  ///< multiplicative, once per interval
    /// Minimum spacing between multiplicative decreases; also the
    /// arrival-path (poll) re-evaluation cadence.
    double interval_ms = 10.0;
    int window = 32;  ///< completed-request latencies per evaluation

    // -- CoDel queue discipline --
    double codel_target_ms = 20.0;    ///< acceptable head sojourn
    double codel_interval_ms = 100.0; ///< sustained-overage window

    // -- degradation ladder --
    /// EWMA weight of the newest load sample in the load index.
    double load_smoothing = 0.3;
    /// Ascending load-index thresholds for entering rung 1..4; index i
    /// is the boundary into DegradeRung(i + 1).
    double rung_thresholds[kNumDegradeRungs - 1] = {1.0, 1.5, 2.0, 3.0};
    /// DDIM step cap applied at kReducedSteps and every rung below.
    int reduced_steps = 4;
    /// Batch requests read the ladder at load_index + batch_bias.
    double batch_bias = 0.5;

    // -- priority queueing --
    /// A batch head-of-queue older than this wins the dequeue even with
    /// interactive work pending (anti-starvation bound).
    double batch_max_wait_ms = 200.0;

    // -- fault injection --
    /// Synthetic latency (in units of latency_target_ms) the
    /// "overload_spike" fault point feeds the controller.
    double spike_factor = 8.0;
};

class AdmissionController {
public:
    /// `clock` defaults to obs::default_clock(); tests pass a
    /// ManualClock for deterministic AIMD/CoDel behaviour. The caller
    /// keeps ownership and must outlive the controller.
    explicit AdmissionController(const OverloadConfig& config,
                                 const obs::Clock* clock = nullptr);

    /// Live = config.enabled.
    bool enabled() const { return config_.enabled; }

    /// Current AIMD concurrency limit (max_limit when not live).
    /// Lock-free: safe to read inside a queue-mutex predicate.
    int limit() const { return limit_.load(std::memory_order_relaxed); }

    /// Feed one completed-request latency into the AIMD window and run
    /// an evaluation (decreases stay spaced by interval_ms).
    void on_finish(double latency_ms) AERO_EXCLUDES(mutex_);

    /// Arrival-path hook (submit() calls it before reading the rung):
    /// re-evaluates once per codel_interval_ms even when nothing
    /// completed in it. Without this a full-shed rung would latch
    /// forever — shed admissions produce no completions to re-evaluate
    /// on. An evaluation with no fresh completions carries no latency
    /// evidence, so the load index decays toward the live queue signal
    /// and the ladder steps back down.
    void poll() AERO_EXCLUDES(mutex_);

    /// "overload_spike" fault point: a synthetic latency observation of
    /// spike_factor * latency_target_ms plus an immediate evaluation,
    /// deterministically driving a decrease and ladder escalation.
    void inject_spike() AERO_EXCLUDES(mutex_);

    /// CoDel verdict for a dequeued head with the given queue sojourn:
    /// true = drop it (resolve kShed). Also feeds the sojourn ratio
    /// into the load index.
    bool codel_drop(double sojourn_ms) AERO_EXCLUDES(mutex_);

    /// Smoothed load index (1.0 = exactly at target).
    double load_index() const {
        return load_index_.load(std::memory_order_relaxed);
    }

    /// Ladder rung for a request of `priority` right now: the base rung
    /// from the load index, read one bias step worse for batch.
    DegradeRung rung_for(Priority priority) const;

    /// Latest p99 estimate of the aero_diffusion_step_ms histogram
    /// delta (-1 before any step signal was ingested or when disabled).
    double step_p99_ms() const {
        return step_p99_ms_.load(std::memory_order_relaxed);
    }

    long long codel_drops() const {
        return codel_drops_.load(std::memory_order_relaxed);
    }
    long long decreases() const {
        return decreases_.load(std::memory_order_relaxed);
    }

    const OverloadConfig& config() const { return config_; }

private:
    /// Cached handles into the global registry (obs/metric_names.hpp):
    /// limit/load/rung gauges, a counter per ladder rung transition,
    /// plus the CoDel-drop and AIMD-decrease counters.
    struct Metrics {
        obs::Gauge* limit = nullptr;
        obs::Gauge* load_index = nullptr;
        obs::Gauge* rung = nullptr;
        obs::Counter* rung_transition[kNumDegradeRungs] = {};
        obs::Counter* codel_dropped = nullptr;
        obs::Counter* decreases = nullptr;
    };
    static Metrics resolve_metrics();

    void evaluate_locked(std::int64_t now_ns) AERO_REQUIRES(mutex_);
    /// Sole writer of rung_; counts the transition (overload-accounting
    /// lint contract) and refreshes the rung gauge.
    void set_rung_locked(DegradeRung rung) AERO_REQUIRES(mutex_);
    /// p99 delta of the step-latency histogram since the last call
    /// (-1 when obs is off, the signal is disabled, or nothing new).
    double ingest_step_p99_locked() AERO_REQUIRES(mutex_);

    OverloadConfig config_;
    const obs::Clock* clock_;
    Metrics metrics_;
    obs::Histogram* step_histogram_ = nullptr;

    // Lock-free mirrors for hot-path readers.
    std::atomic<int> limit_;
    std::atomic<double> load_index_{0.0};
    std::atomic<int> rung_{static_cast<int>(DegradeRung::kFull)};
    std::atomic<double> step_p99_ms_{-1.0};
    std::atomic<long long> codel_drops_{0};
    std::atomic<long long> decreases_{0};

    mutable util::Mutex mutex_;
    double limit_exact_ AERO_GUARDED_BY(mutex_);  ///< fractional limit
    std::vector<double> window_ AERO_GUARDED_BY(mutex_);
    std::size_t window_next_ AERO_GUARDED_BY(mutex_) = 0;
    std::size_t window_count_ AERO_GUARDED_BY(mutex_) = 0;
    /// Completions since the last evaluation; a poll()-driven
    /// evaluation with none treats the stale window as no evidence.
    std::size_t finishes_since_eval_ AERO_GUARDED_BY(mutex_) = 0;
    std::int64_t last_eval_ns_ AERO_GUARDED_BY(mutex_) = 0;
    std::int64_t last_decrease_ns_ AERO_GUARDED_BY(mutex_) = 0;
    double max_sojourn_ms_ AERO_GUARDED_BY(mutex_) = 0.0;
    /// Step-histogram snapshot consumed so far (delta-p99 estimation).
    long long step_seen_count_ AERO_GUARDED_BY(mutex_) = 0;
    std::vector<long long> step_seen_cumulative_ AERO_GUARDED_BY(mutex_);
    // CoDel state.
    std::int64_t codel_first_over_ns_ AERO_GUARDED_BY(mutex_) = 0;
    std::int64_t codel_drop_next_ns_ AERO_GUARDED_BY(mutex_) = 0;
    int codel_drop_count_ AERO_GUARDED_BY(mutex_) = 0;
};

}  // namespace aero::serve
