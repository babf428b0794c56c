#pragma once
// Multi-threaded batch inference service in front of a trained
// AeroDiffusionPipeline — the serving entry point the detector-training
// consumers (AeroGen-style bulk augmentation) hit. The failure policy,
// end to end:
//
//   submit() --validate--> kInvalid        (typed reason, no tensor math)
//            --rate limited--> kShed       (per-client token bucket)
//            --deadline already expired--> kTimeout (never enqueued)
//            --ladder rung kShed--> kShed  (overload degradation ladder)
//            --queue full--> kShed         (bounded admission queue)
//   worker   --CoDel sojourn overage--> kShed (standing-queue defence)
//            --deadline already passed--> kTimeout
//            --transient fault--> retry with exponential backoff + jitter
//            --condition-encoder failure--> retry; repeated failures trip
//              the circuit breaker, which serves degraded unconditional
//              samples until a probe succeeds
//            --deadline mid-run--> cancelled between denoising steps
//              (kTimeout; never a half-rendered image)
//            --all attempts exhausted--> kFailed
//
// Every submit() resolves its future with exactly one Outcome, and the
// stats() snapshot balances: submitted == sum over outcomes once all
// futures are ready.
//
// Locking discipline (statically checked by the AERO_GUARDED_BY /
// AERO_EXCLUDES annotations below under `clang++ -Wthread-safety`, and
// TSan-covered by test_serve via scripts/check.sh):
//   * queue_mutex_ guards queues_, active_ and stopping_; sleeps and
//     wake-ups go through queue_cv_.
//   * stats_mutex_ guards the ServiceStats counters.
//   * stop_mutex_ serialises concurrent stop() callers (explicit stop
//     racing the destructor) across the join/clear phase and guards
//     workers_.
//   * the breaker carries its own internal mutex.
//   * the pipeline and substrate are shared strictly read-only —
//     inference builds its autograd graph on fresh nodes and the
//     service never calls fit()/backward() — and every worker owns a
//     private Rng, so model state needs no lock at all.
//   The only nesting is stop_mutex_ -> queue_mutex_ inside stop()
//   (declared via AERO_ACQUIRED_BEFORE); everywhere else at most one of
//   these mutexes is held, and the breaker is only called with all of
//   them released.

#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/breaker.hpp"
#include "serve/overload.hpp"
#include "serve/validation.hpp"
#include "util/annotations.hpp"
#include "util/fault.hpp"
#include "util/rate_limit.hpp"
#include "util/sync.hpp"

namespace aero::serve {

struct ServiceConfig {
    int workers = 2;
    std::size_t queue_capacity = 8;  ///< pending requests before shedding
    /// Generation attempts per request (first try + retries) for
    /// transient and condition-encoder faults.
    int max_attempts = 3;
    double backoff_base_ms = 0.5;  ///< doubled per retry, jittered
    double backoff_max_ms = 8.0;
    ValidationLimits limits;
    BreakerConfig breaker;
    /// Optional injector shared with tests/benches; the service draws
    /// the "serve_transient" and "serve_slow" points itself and
    /// forwards the injector to the pipeline for "condition_encoder".
    util::FaultInjector* fault_injector = nullptr;
    /// Stall injected when the "serve_slow" point fires: slept inside
    /// the attempt, after breaker admission and before generation.
    double slow_fault_ms = 50.0;
    /// Adaptive overload control (serve/overload.hpp): AIMD concurrency
    /// limit, CoDel queue discipline, degradation ladder. Off by
    /// default; also gated process-wide by AERO_OVERLOAD.
    OverloadConfig overload;
    /// Per-client token-bucket admission (util/rate_limit.hpp), read
    /// from AERO_RATE_QPS / AERO_RATE_BURST by default (unset = off).
    /// Requests with an empty client_id are exempt.
    util::RateLimitConfig rate_limit = util::RateLimitConfig::from_env();
    /// Continuous cross-request step batching (serve/batcher.hpp): on
    /// by default (also gated process-wide by AERO_BATCH), workers hand
    /// sampling jobs to a shared step batcher. Output is bitwise
    /// identical to the sequential path; batch_max = 1 (or enabled =
    /// false) is a true no-op — no driver thread, inline sampling.
    StepBatcherConfig batch;
    std::uint64_t seed = 0x5e21e;  ///< forked into per-worker Rngs
};

/// Monotonic counters; snapshot via InferenceService::stats().
struct ServiceStats {
    long long submitted = 0;
    long long by_outcome[kNumOutcomes] = {};
    long long retries = 0;  ///< extra attempts across requests
    /// Requests cancelled after dequeue by their deadline: between
    /// denoising steps or in the dequeue -> first-step window.
    long long cancelled_mid_run = 0;
    /// Rejections by the per-client token-bucket limiter. These resolve
    /// kShed, so they are a subset of by_outcome[kShed] and the books
    /// below stay balanced.
    long long rate_limited = 0;
    /// Queued requests dropped by the CoDel sojourn discipline (also a
    /// subset of by_outcome[kShed]).
    long long codel_dropped = 0;
    /// Terminal results per degradation-ladder rung; sums to terminal().
    long long by_rung[kNumDegradeRungs] = {};
    int breaker_trips = 0;
    int breaker_recoveries = 0;

    long long outcome(Outcome o) const {
        return by_outcome[static_cast<int>(o)];
    }
    long long terminal() const {
        long long sum = 0;
        for (const long long n : by_outcome) sum += n;
        return sum;
    }
    /// The accounting invariant: once every future is resolved, each
    /// submitted request has exactly one terminal outcome.
    bool balanced() const { return submitted == terminal(); }
};

class InferenceService {
public:
    /// The pipeline (and the substrate it references) must outlive the
    /// service and must not be trained while serving.
    InferenceService(const core::AeroDiffusionPipeline& pipeline,
                     const ServiceConfig& config);
    ~InferenceService();
    InferenceService(const InferenceService&) = delete;
    InferenceService& operator=(const InferenceService&) = delete;

    /// Admission control: validates, then either enqueues or resolves
    /// immediately (kInvalid / kShed). The returned future is always
    /// eventually satisfied with a terminal outcome.
    std::future<RequestResult> submit(InferenceRequest request)
        AERO_EXCLUDES(queue_mutex_, stats_mutex_);

    /// Stops admission, drains the queued work, joins the workers.
    /// Idempotent and safe against concurrent callers; the destructor
    /// calls it. A submit() after stop() resolves kShed.
    void stop() AERO_EXCLUDES(stop_mutex_, queue_mutex_);

    ServiceStats stats() const AERO_EXCLUDES(stats_mutex_);
    CircuitBreaker::State breaker_state() const { return breaker_.state(); }

private:
    using Clock = std::chrono::steady_clock;

    struct Job {
        InferenceRequest request;
        std::promise<RequestResult> promise;
        Clock::time_point submitted_at;
        Clock::time_point deadline;
        bool has_deadline = false;
        /// Ladder rung stamped at admission (kFull when overload
        /// control is off); process() applies it to GenerateControl.
        DegradeRung rung = DegradeRung::kFull;
    };

    /// Dequeue loop. Opted out of the static analysis: the
    /// condition-variable wait releases and re-acquires queue_mutex_
    /// through std::unique_lock, which the analysis cannot follow.
    void worker_loop(std::uint64_t worker_seed)
        AERO_NO_THREAD_SAFETY_ANALYSIS;
    RequestResult process(Job& job, util::Rng& backoff_rng);
    /// True once the job's own deadline has passed — the cancellation
    /// predicate polled between denoising steps and checked in the
    /// dequeue -> first-step window.
    bool cancel_due(const Job& job) const;
    void record(const RequestResult& result) AERO_EXCLUDES(stats_mutex_);
    /// Sleeps for the attempt's jittered backoff; false when the sleep
    /// would cross the job's deadline (caller times the request out).
    bool backoff(int attempt, const Job& job, util::Rng& rng) const;
    /// Refreshes the breaker state/trips/recoveries gauges.
    void publish_breaker_metrics();
    /// Total queued jobs across both priority classes.
    std::size_t queued_locked() const AERO_REQUIRES(queue_mutex_) {
        std::size_t n = 0;
        for (const std::deque<Job>& q : queues_) n += q.size();
        return n;
    }
    /// Dequeue policy: interactive first, except a batch head that has
    /// waited past the anti-starvation bound. Returns the queue index
    /// to pop from; callers guarantee at least one queue is non-empty.
    int pick_queue_locked(Clock::time_point now) const
        AERO_REQUIRES(queue_mutex_);

    /// Handles into the global obs registry (obs/metric_names.hpp),
    /// resolved once in the constructor so the hot path is pure relaxed
    /// atomics. These are process-wide cumulative metrics; the exact
    /// per-service accounting stays in ServiceStats.
    struct Metrics {
        obs::Counter* submitted = nullptr;
        obs::Counter* outcome[kNumOutcomes] = {};
        obs::Counter* retries = nullptr;
        obs::Counter* cancelled = nullptr;
        obs::Counter* rate_limited = nullptr;
        obs::Gauge* queue_depth = nullptr;
        obs::Gauge* breaker_state = nullptr;
        obs::Gauge* breaker_trips = nullptr;
        obs::Gauge* breaker_recoveries = nullptr;
        obs::Histogram* queue_ms = nullptr;
        obs::Histogram* latency_ms = nullptr;
    };
    static Metrics resolve_metrics();

    const core::AeroDiffusionPipeline* pipeline_;
    ServiceConfig config_;
    CircuitBreaker breaker_;
    Metrics metrics_;
    /// Adaptive overload control: AIMD limit the workers gate on, CoDel
    /// verdicts at dequeue, ladder rungs at admission. Inert (identity
    /// limit, kFull rung) unless config_.overload.enabled and the
    /// AERO_OVERLOAD switch agree.
    AdmissionController controller_;
    /// Per-client token buckets consulted in submit(); the service
    /// feeds it obs::default_clock() timestamps.
    util::RateLimiter limiter_;
    /// Continuous step batcher the workers hand sampling jobs to via
    /// GenerateControl::executor. Null when batching is not live
    /// (config, AERO_BATCH=0, or batch_max <= 1) — the inline path.
    /// stop() shuts it down after the workers are joined.
    std::unique_ptr<StepBatcher> batcher_;

    mutable util::Mutex queue_mutex_;
    util::CondVar queue_cv_;
    /// One FIFO per Priority class. Dequeue prefers interactive; a
    /// batch head older than overload.batch_max_wait_ms wins anyway
    /// (anti-starvation bound).
    std::deque<Job> queues_[kNumPriorities] AERO_GUARDED_BY(queue_mutex_);
    /// Jobs dequeued by a worker whose terminal outcome has not been
    /// recorded yet — what the AIMD concurrency limit gates pickup on.
    long long active_ AERO_GUARDED_BY(queue_mutex_) = 0;
    /// Set once by stop(): admission closes (late submits shed) and
    /// the workers exit after draining the queue.
    bool stopping_ AERO_GUARDED_BY(queue_mutex_) = false;

    mutable util::Mutex stats_mutex_;
    ServiceStats stats_ AERO_GUARDED_BY(stats_mutex_);

    /// Serialises stop()'s join/clear phase; the only lock nesting in
    /// the service is stop_mutex_ -> queue_mutex_ inside stop().
    util::Mutex stop_mutex_ AERO_ACQUIRED_BEFORE(queue_mutex_);
    std::vector<std::thread> workers_ AERO_GUARDED_BY(stop_mutex_);
};

}  // namespace aero::serve
