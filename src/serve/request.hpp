#pragma once
// Request / response vocabulary of the batch inference service. Every
// submitted request terminates in exactly one typed Outcome — the
// accounting invariant test_serve asserts — and carries enough
// telemetry (latency split, attempt count) for the service stats and
// bench_serve to aggregate.

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"
#include "image/image.hpp"
#include "obs/trace.hpp"
#include "scene/dataset.hpp"

namespace aero::serve {

/// Scheduling class of a request. Interactive traffic is dequeued
/// first; batch traffic (bulk augmentation) yields, but never starves —
/// a batch job whose head-of-queue wait exceeds the configured bound
/// wins the next dequeue (ServiceConfig::batch_max_wait_ms).
enum class Priority { kInteractive = 0, kBatch };
inline constexpr int kNumPriorities = 2;
const char* priority_name(Priority priority);

/// Caller-supplied scheduling envelope, carried inside the request.
struct SubmitOptions {
    Priority priority = Priority::kInteractive;
    /// Optional stable client identity for the per-client token-bucket
    /// rate limiter (util/rate_limit.hpp); empty = exempt.
    std::string client_id;
};

/// Terminal state of a request. Exactly one per submit().
enum class Outcome {
    kOk = 0,    ///< conditional sample delivered
    kDegraded,  ///< unconditional fallback delivered (encoder failure or
                ///< open circuit breaker)
    kShed,      ///< rejected at admission: queue full / service stopped
    kInvalid,   ///< rejected by validation (typed InvalidReason)
    kTimeout,   ///< deadline expired queued or cancelled between steps
    kFailed,    ///< attempts exhausted on transient faults / bad output
};
inline constexpr int kNumOutcomes = 6;
const char* outcome_name(Outcome outcome);

/// Detail behind Outcome::kInvalid: which boundary check rejected the
/// request. Malformed input never reaches tensor math.
enum class InvalidReason {
    kNone = 0,
    kEmptyCaption,
    kCaptionTooLong,
    kCaptionNotText,       ///< control bytes / non-ASCII garbage
    kCaptionUnknownWords,  ///< mostly outside the aerial vocabulary
    kBadReferenceImage,    ///< empty / wrong size / non-finite pixels
    kBadRegion,            ///< inpaint ROI rejected (see clamp_region)
    kBadStrength,          ///< edit strength outside (0, 1]
    kBadDeadline,          ///< non-finite, negative or absurd deadline
};
const char* invalid_reason_name(InvalidReason reason);

struct InferenceRequest {
    /// Sample, edit or inpaint (core::GenerateTask). Validation requires
    /// an edit strength in (0, 1] and clamps an inpaint region in place.
    core::GenerateTask task;
    /// Copied in at submit(): the service never borrows caller memory,
    /// so a caller may free its inputs the moment submit() returns.
    scene::AerialSample reference;
    std::string source_caption;
    std::string target_caption;
    /// Relative deadline measured from submit(); <= 0 means none. A
    /// request past its deadline is rejected while queued or cancelled
    /// between denoising steps — never returned half-rendered.
    double deadline_ms = 0.0;
    std::uint64_t seed = 0;  ///< per-request determinism across workers
    SubmitOptions options;   ///< priority class + rate-limit identity
};

struct RequestResult {
    Outcome outcome = Outcome::kFailed;
    InvalidReason invalid_reason = InvalidReason::kNone;
    std::string message;      ///< human-readable failure detail
    image::Image image;       ///< non-empty only for kOk / kDegraded
    double queue_ms = 0.0;    ///< admission -> worker pickup
    double latency_ms = 0.0;  ///< admission -> terminal outcome
    int attempts = 0;         ///< generation attempts actually made
    int retries = 0;          ///< attempts beyond the first
    bool cancelled = false;   ///< deadline hit between denoising steps
    /// The condition span of the final (kOk) attempt was served from the
    /// pipeline's condition cache (DESIGN.md §17) instead of re-encoded.
    bool condition_cached = false;
    std::uint64_t request_id = 0;  ///< rid correlating logs and spans
    /// Per-request span tree summary (stage -> count x total time),
    /// folded from the obs::Trace the worker wrapped this request in.
    /// Empty when AERO_OBS=0.
    obs::SpanSummary spans;
};

}  // namespace aero::serve
