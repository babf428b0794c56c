#include "serve/service.hpp"

#include <algorithm>
#include <cmath>

#include "obs/clock.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace aero::serve {

/// Global-registry counter per terminal Outcome, same order as the
/// Outcome enum. Names live in obs/metric_names.hpp.
InferenceService::Metrics InferenceService::resolve_metrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    Metrics m;
    m.submitted = &reg.counter("aero_serve_submitted_total",
                               "requests accepted by submit()");
    m.outcome[static_cast<int>(Outcome::kOk)] =
        &reg.counter("aero_serve_ok_total", "conditional samples delivered");
    m.outcome[static_cast<int>(Outcome::kDegraded)] = &reg.counter(
        "aero_serve_degraded_total", "unconditional fallbacks delivered");
    m.outcome[static_cast<int>(Outcome::kShed)] =
        &reg.counter("aero_serve_shed_total", "requests shed at admission");
    m.outcome[static_cast<int>(Outcome::kInvalid)] = &reg.counter(
        "aero_serve_invalid_total", "requests rejected by validation");
    m.outcome[static_cast<int>(Outcome::kTimeout)] = &reg.counter(
        "aero_serve_timeout_total", "requests past their deadline");
    m.outcome[static_cast<int>(Outcome::kFailed)] = &reg.counter(
        "aero_serve_failed_total", "requests that exhausted every attempt");
    m.retries = &reg.counter("aero_serve_retries_total",
                             "generation attempts beyond the first");
    m.cancelled =
        &reg.counter("aero_serve_cancelled_midrun_total",
                     "requests cancelled between denoising steps");
    m.rate_limited =
        &reg.counter("aero_overload_rate_limited_total",
                     "requests rejected by the per-client rate limiter");
    m.queue_depth = &reg.gauge("aero_serve_queue_depth",
                               "requests waiting in the admission queue");
    m.breaker_state =
        &reg.gauge("aero_serve_breaker_state",
                   "circuit breaker state (0 closed, 1 open, 2 half-open)");
    m.breaker_trips =
        &reg.gauge("aero_serve_breaker_trips", "transitions into Open");
    m.breaker_recoveries = &reg.gauge("aero_serve_breaker_recoveries",
                                      "HalfOpen -> Closed transitions");
    m.queue_ms = &reg.histogram("aero_serve_queue_ms",
                                "admission -> worker pickup, ms",
                                obs::default_ms_buckets());
    m.latency_ms = &reg.histogram("aero_serve_latency_ms",
                                  "admission -> terminal outcome, ms",
                                  obs::default_ms_buckets());
    return m;
}

InferenceService::InferenceService(
    const core::AeroDiffusionPipeline& pipeline, const ServiceConfig& config)
    : pipeline_(&pipeline),
      config_(config),
      breaker_(config.breaker),
      metrics_(resolve_metrics()),
      limiter_(config.rate_limit) {
    // First service in the process arms the env-gated periodic metrics
    // dump (AERO_OBS_DUMP_MS); a no-op when the knob is unset.
    obs::maybe_start_periodic_dump();
    // Continuous step batching: one driver thread batches the sampling
    // loops of concurrent requests (serve/batcher.hpp). Only built when
    // live — otherwise workers keep the inline path untouched.
    if (step_batching_live(config_.batch)) {
        batcher_ = std::make_unique<StepBatcher>(
            pipeline.unet(), pipeline.noise_schedule(), config_.batch);
    }
    // Warm the process-wide kernel pool before any request arrives.
    // Every service worker dispatches its tensor kernels onto this one
    // shared pool (sized by AERO_THREADS, not by config_.workers), so
    // concurrent requests divide a fixed set of cores instead of each
    // spawning its own — the no-oversubscription policy of DESIGN.md §11.
    util::ThreadPool::instance();
    // workers_ is guarded by stop_mutex_; nothing can race the
    // constructor, but taking the lock keeps the contract uniform (and
    // the static analysis satisfied) at the cost of one uncontended
    // acquisition.
    const util::MutexLock lock(stop_mutex_);
    const int workers = std::max(1, config_.workers);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        // Large odd stride keeps per-worker seeds distinct; each worker
        // owns its Rng outright (the shared util::Rng is not
        // thread-safe, so it is never shared).
        const std::uint64_t worker_seed =
            config_.seed + 0x9e3779b97f4a7c15ull * (i + 1);
        workers_.emplace_back(&InferenceService::worker_loop, this,
                              worker_seed);
    }
}

InferenceService::~InferenceService() { stop(); }

std::future<RequestResult> InferenceService::submit(InferenceRequest request) {
    const Clock::time_point now = Clock::now();
    std::promise<RequestResult> promise;
    std::future<RequestResult> future = promise.get_future();

    {
        const util::MutexLock lock(stats_mutex_);
        ++stats_.submitted;
    }
    metrics_.submitted->inc();

    // Validation rejects before any queueing or tensor math.
    RequestResult early;
    std::string message;
    const InvalidReason reason =
        validate_request(request, config_.limits, &message);
    if (reason != InvalidReason::kNone) {
        early.outcome = Outcome::kInvalid;
        early.invalid_reason = reason;
        early.message = message;
        record(early);
        promise.set_value(std::move(early));
        return future;
    }

    // Per-client token bucket: an over-quota client is answered
    // immediately (kShed) so its backlog cannot crowd out others.
    if (limiter_.enabled() && !request.options.client_id.empty() &&
        !limiter_.admit(request.options.client_id,
                        obs::default_clock().now_ns())) {
        {
            const util::MutexLock lock(stats_mutex_);
            ++stats_.rate_limited;
        }
        metrics_.rate_limited->inc();
        early.outcome = Outcome::kShed;
        early.message = "rate limited: client over per-client quota";
        record(early);
        promise.set_value(std::move(early));
        return future;
    }

    Job job;
    job.request = std::move(request);
    job.promise = std::move(promise);
    job.submitted_at = now;
    job.has_deadline = job.request.deadline_ms > 0.0;
    if (job.has_deadline) {
        job.deadline =
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          job.request.deadline_ms));
    }

    // A deadline that has already expired is a timeout, not a shed: the
    // caller's budget ran out before admission, and classifying it here
    // keeps the queue-wait accounting window honest (queue_ms stays 0
    // for a request that never sat in the queue).
    if (job.has_deadline && Clock::now() >= job.deadline) {
        early.outcome = Outcome::kTimeout;
        early.message = "deadline expired at admission";
        record(early);
        job.promise.set_value(std::move(early));
        return future;
    }

    bool enqueued = false;
    {
        const util::MutexLock lock(queue_mutex_);
        if (!stopping_ && queued_locked() < config_.queue_capacity) {
            queues_[static_cast<int>(job.request.options.priority)]
                .push_back(std::move(job));
            enqueued = true;
            metrics_.queue_depth->set(
                static_cast<double>(queued_locked()));
        }
    }
    if (enqueued) {
        queue_cv_.notify_one();
        return future;
    }

    // Load shedding: a full queue answers immediately instead of letting
    // latency grow without bound.
    early.outcome = Outcome::kShed;
    early.message = "admission queue full or service stopped";
    record(early);
    job.promise.set_value(std::move(early));
    return future;
}

void InferenceService::stop() {
    // stop_mutex_ serialises concurrent stoppers (an explicit stop()
    // racing the destructor): exactly one caller runs the join/clear
    // phase, the other blocks until the workers are gone.
    const util::MutexLock stop_lock(stop_mutex_);
    {
        const util::MutexLock lock(queue_mutex_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    const bool drained = !workers_.empty();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) worker.join();
    }
    workers_.clear();
    // After the workers: no execute() caller can be blocked on the
    // batcher any more, so its driver drains immediately.
    if (batcher_) batcher_->shutdown();
    // Shutdown dump (AERO_OBS_DUMP=1): one Prometheus-text snapshot to
    // AERO_OBS_DUMP_PATH (stderr when unset) from whichever caller
    // actually drained the service; repeated stop() calls stay silent.
    if (drained && util::env_int("AERO_OBS_DUMP", 0) != 0) {
        obs::dump_text(util::env_string("AERO_OBS_DUMP_PATH", ""));
    }
}

ServiceStats InferenceService::stats() const {
    ServiceStats snapshot;
    {
        const util::MutexLock lock(stats_mutex_);
        snapshot = stats_;
    }
    snapshot.breaker_trips = breaker_.trips();
    snapshot.breaker_recoveries = breaker_.recoveries();
    return snapshot;
}

void InferenceService::record(const RequestResult& result) {
    {
        const util::MutexLock lock(stats_mutex_);
        ++stats_.by_outcome[static_cast<int>(result.outcome)];
        stats_.retries += result.retries;
        if (result.cancelled) ++stats_.cancelled_mid_run;
    }
    metrics_.outcome[static_cast<int>(result.outcome)]->inc();
    if (result.retries > 0) metrics_.retries->inc(result.retries);
    if (result.cancelled) metrics_.cancelled->inc();
}

void InferenceService::publish_breaker_metrics() {
    metrics_.breaker_state->set(static_cast<double>(
        static_cast<int>(breaker_.state())));
    metrics_.breaker_trips->set(static_cast<double>(breaker_.trips()));
    metrics_.breaker_recoveries->set(
        static_cast<double>(breaker_.recoveries()));
}

int InferenceService::pick_queue_locked(Clock::time_point now) const {
    const int interactive = static_cast<int>(Priority::kInteractive);
    const int batch = static_cast<int>(Priority::kBatch);
    if (queues_[batch].empty()) return interactive;
    if (queues_[interactive].empty()) return batch;
    // Both classes pending: interactive wins unless the batch head has
    // waited past the anti-starvation bound (bounded-wait contract).
    const double batch_wait_ms =
        std::chrono::duration<double, std::milli>(
            now - queues_[batch].front().submitted_at)
            .count();
    return batch_wait_ms >= config_.batch_max_wait_ms ? batch : interactive;
}

void InferenceService::worker_loop(std::uint64_t worker_seed) {
    util::Rng backoff_rng(worker_seed);
    for (;;) {
        Job job;
        {
            std::unique_lock<util::Mutex> lock(queue_mutex_);
            queue_cv_.wait(lock,
                           [this] { return stopping_ || queued_locked() > 0; });
            if (queued_locked() == 0) return;  // stopping_ and drained
            std::deque<Job>& queue = queues_[pick_queue_locked(Clock::now())];
            job = std::move(queue.front());
            queue.pop_front();
            metrics_.queue_depth->set(static_cast<double>(queued_locked()));
        }

        // One Trace per request: spans opened anywhere below (pipeline
        // stages, sampler steps) attach to it, log lines carry its rid,
        // and the folded summary rides back on the result.
        const std::uint64_t rid = obs::next_request_id();
        RequestResult result;
        {
            obs::Trace trace(rid);
            // Exactly-once accounting even on an unexpected throw: a
            // request that dies mid-process must still resolve with a
            // typed outcome instead of leaking its promise (the books
            // would never balance again).
            try {
                result = process(job, backoff_rng);
            } catch (const std::exception& e) {
                result.outcome = Outcome::kFailed;
                result.message = std::string("internal error: ") + e.what();
            } catch (...) {
                result.outcome = Outcome::kFailed;
                result.message = "internal error: unknown exception";
            }
            if (result.latency_ms <= 0.0) {
                result.latency_ms =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - job.submitted_at)
                        .count();
            }
            result.spans = trace.summary();
        }
        result.request_id = rid;
        metrics_.queue_ms->observe(result.queue_ms);
        metrics_.latency_ms->observe(result.latency_ms);
        publish_breaker_metrics();
        record(result);
        job.promise.set_value(std::move(result));
    }
}

bool InferenceService::backoff(int attempt, const Job& job,
                               util::Rng& rng) const {
    double delay = config_.backoff_base_ms *
                   static_cast<double>(1u << std::min(attempt - 1, 16));
    delay = std::min(delay, config_.backoff_max_ms);
    delay *= 0.5 + rng.uniform();  // jitter in [0.5, 1.5)
    const Clock::time_point wake =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(delay));
    if (job.has_deadline && wake >= job.deadline) return false;
    std::this_thread::sleep_until(wake);
    return true;
}

bool InferenceService::cancel_due(const Job& job) const {
    return job.has_deadline && Clock::now() >= job.deadline;
}

RequestResult InferenceService::process(Job& job, util::Rng& backoff_rng) {
    RequestResult result;
    const Clock::time_point picked_up = Clock::now();
    result.queue_ms =
        std::chrono::duration<double, std::milli>(picked_up -
                                                  job.submitted_at)
            .count();
    const auto finish = [&](Outcome outcome, const std::string& message) {
        result.outcome = outcome;
        result.message = message;
        result.latency_ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - job.submitted_at)
                                .count();
        result.retries = std::max(0, result.attempts - 1);
        return result;
    };

    if (job.has_deadline && picked_up >= job.deadline) {
        // The deadline expired while the job sat queued, but the job
        // has been dequeued by now: account it through the same
        // cancellation bucket as a between-steps cancel, so the
        // dequeue -> cancel window never goes missing from
        // cancelled_mid_run.
        result.cancelled = true;
        return finish(Outcome::kTimeout, "deadline expired while queued");
    }

    const InferenceRequest& request = job.request;
    util::FaultInjector* injector = config_.fault_injector;

    for (int attempt = 1; attempt <= std::max(1, config_.max_attempts);
         ++attempt) {
        // Dequeue -> first-step window: the job deadline can expire
        // after the pickup check above but before the sampler's first
        // cancellation poll. Resolve it here, once, through the same
        // cancelled-mid-run accounting as a between-steps cancellation
        // — never as a lost or double-counted request.
        if (cancel_due(job)) {
            result.cancelled = true;
            return finish(Outcome::kTimeout,
                          "cancelled before the first denoising step");
        }
        result.attempts = attempt;
        const bool last_attempt = attempt >= std::max(1, config_.max_attempts);

        // Transient serve-side fault (scheduler hiccup, flaky I/O...):
        // nothing ran yet, so plain retry-with-backoff is the answer.
        if (injector && injector->should_fail("serve_transient")) {
            if (last_attempt) {
                return finish(Outcome::kFailed,
                              "transient fault persisted through retries");
            }
            if (!backoff(attempt, job, backoff_rng)) {
                return finish(Outcome::kTimeout,
                              "deadline expired during retry backoff");
            }
            continue;
        }

        // Only the first attempt counts toward the Open-state cooldown:
        // open_cooldown is specified in distinct requests, not retries.
        bool holds_probe = false;
        const bool conditional = breaker_.allow_conditional(
            &holds_probe, /*count_cooldown=*/attempt == 1);
        // A probe holder owes the breaker exactly one verdict. Exits
        // that learn nothing about the encoder (cancellation, pipeline
        // rejection, non-finite sample) must free the slot or the
        // breaker wedges HalfOpen forever; RAII covers every
        // continue/return below. Disarmed before on_success/on_failure.
        struct ProbeRelease {
            CircuitBreaker* breaker;
            bool armed;
            ~ProbeRelease() {
                if (armed) breaker->on_probe_abandoned();
            }
        } probe{&breaker_, holds_probe};

        // Injected stall (GC pause, cold cache, noisy neighbour) inside
        // the attempt, after breaker admission: makes mid-run deadline
        // cancellation reachable deterministically in tests.
        if (injector && injector->should_fail("serve_slow")) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    config_.slow_fault_ms));
        }

        core::GenerateControl control;
        control.force_unconditional = !conditional;
        control.fault_injector = injector;
        // A half-open probe exists to test the real encoder path; a
        // condition-cache hit would skip exactly the thing being probed
        // and could report a broken encoder healthy.
        control.bypass_condition_cache = holds_probe;
        // Polled between denoising steps against the job's own
        // deadline. With the batcher live the poll runs on the
        // batcher's thread; the job outlives the call (the worker
        // blocks inside the pipeline) and the predicate only reads
        // immutable job fields, so that is safe.
        control.should_cancel = [this, job_ptr = &job] {
            return cancel_due(*job_ptr);
        };
        // Hand the sampling loop to the continuous step batcher, which
        // packs concurrent requests into one UNet forward per denoising
        // step. Bitwise identical to the inline path (the batcher draws
        // from request_rng below in sequential order).
        if (batcher_) control.executor = batcher_.get();

        // Per-request determinism: the image depends on the request
        // seed and the attempt, not on which worker drew the job.
        util::Rng request_rng(request.seed +
                              0xd1b54a32d192ed03ull *
                                  static_cast<std::uint64_t>(attempt));
        image::Image image = pipeline_->generate(
            request.reference, request.source_caption,
            request.target_caption, request_rng, -1, &control, request.task);

        if (control.cancelled) {
            result.cancelled = true;
            return finish(Outcome::kTimeout,
                          "deadline hit; cancelled between denoising steps");
        }
        if (!control.error.empty()) {
            // Pipeline-level rejection: validation should have caught
            // this, so surface it as invalid rather than crash or loop.
            result.invalid_reason = InvalidReason::kBadReferenceImage;
            return finish(Outcome::kInvalid, control.error);
        }

        bool finite = !image.empty();
        for (const float v : image.data()) {
            if (!std::isfinite(v)) {
                finite = false;
                break;
            }
        }
        if (!finite) {
            // A non-finite or missing sample must never leave the
            // service; treat like a transient and retry on fresh noise.
            if (last_attempt) {
                return finish(Outcome::kFailed,
                              "sampler produced no finite image");
            }
            if (!backoff(attempt, job, backoff_rng)) {
                return finish(Outcome::kTimeout,
                              "deadline expired during retry backoff");
            }
            continue;
        }

        if (!conditional) {
            // Unconditional by design: the breaker is open.
            result.image = std::move(image);
            return finish(Outcome::kDegraded,
                          "circuit breaker open; served unconditional");
        }
        if (control.degraded) {
            // Conditional path failed (injected fault or non-finite
            // encoding); the image in hand is the unconditional
            // fallback. Tell the breaker, then retry for a conditional
            // sample while attempts remain.
            probe.armed = false;
            breaker_.on_failure(holds_probe);
            if (last_attempt || !backoff(attempt, job, backoff_rng)) {
                result.image = std::move(image);
                return finish(Outcome::kDegraded,
                              "condition encoder failed; served "
                              "unconditional fallback");
            }
            continue;
        }
        probe.armed = false;
        breaker_.on_success(holds_probe);
        result.condition_cached = control.condition_cached;
        result.image = std::move(image);
        return finish(Outcome::kOk, "");
    }
    return finish(Outcome::kFailed, "attempts exhausted");
}

}  // namespace aero::serve
