#pragma once
// Central registry of metric names (DESIGN.md §12).
//
// Every name registered on the process-wide MetricsRegistry::instance()
// must appear here and follow the `aero_<area>_<name>` pattern; the
// registry rejects unregistered names at runtime and the aero_lint
// `metric-naming` rule rejects them statically at every
// counter("...") / gauge("...") / histogram("...") call site. Local
// registries (tests) skip the table so golden files can use synthetic
// names, but still get the pattern check.
//
// To add a metric: append {name, help} below, register it at exactly
// one area of the code, and mention the name in DESIGN.md §12.

#include <cstring>

namespace aero::obs {

struct MetricName {
    const char* name;
    const char* help;  ///< one-line exposition HELP text
};

inline constexpr MetricName kMetricNames[] = {
    // serve::InferenceService
    {"aero_serve_submitted_total", "requests accepted by submit()"},
    {"aero_serve_ok_total", "requests resolved kOk (conditional sample)"},
    {"aero_serve_degraded_total",
     "requests resolved kDegraded (unconditional fallback)"},
    {"aero_serve_shed_total", "requests shed at admission (queue full)"},
    {"aero_serve_invalid_total", "requests rejected by boundary validation"},
    {"aero_serve_timeout_total",
     "requests past deadline (queued or cancelled mid-run)"},
    {"aero_serve_failed_total", "requests that exhausted every attempt"},
    {"aero_serve_retries_total", "generation attempts beyond the first"},
    {"aero_serve_cancelled_midrun_total",
     "deadline cancellations between denoising steps"},
    {"aero_serve_queue_depth", "requests waiting in the admission queue"},
    {"aero_serve_queue_ms", "admission -> worker pickup wait"},
    {"aero_serve_latency_ms", "admission -> terminal outcome latency"},
    {"aero_serve_breaker_state",
     "circuit breaker state (0 closed, 1 open, 2 half-open)"},
    {"aero_serve_breaker_trips", "cumulative breaker trips"},
    {"aero_serve_breaker_recoveries", "cumulative breaker recoveries"},
    // serve::AdmissionController (adaptive overload control)
    {"aero_overload_limit", "adaptive AIMD concurrency limit"},
    {"aero_overload_load_index",
     "smoothed load index (1.0 = exactly at the latency target)"},
    {"aero_overload_rung",
     "current base degradation-ladder rung (0 full .. 4 shed)"},
    {"aero_overload_rung_full_total",
     "degradation-ladder transitions into full quality"},
    {"aero_overload_rung_reduced_steps_total",
     "degradation-ladder transitions into reduced DDIM steps"},
    {"aero_overload_rung_reduced_resolution_total",
     "degradation-ladder transitions into half-resolution sampling"},
    {"aero_overload_rung_unconditional_total",
     "degradation-ladder transitions into unconditional fallback"},
    {"aero_overload_rung_shed_total",
     "degradation-ladder transitions into shedding"},
    {"aero_overload_codel_dropped_total",
     "queued requests dropped by the CoDel sojourn-time discipline"},
    {"aero_overload_decreases_total",
     "AIMD multiplicative concurrency-limit decreases"},
    {"aero_overload_rate_limited_total",
     "requests rejected by the per-client token-bucket rate limiter"},
    // core::AeroDiffusionPipeline stages
    {"aero_pipeline_condition_ms",
     "condition-feature + encoder stage time per request"},
    {"aero_pipeline_roi_fusion_ms",
     "object detection + ROI feature extraction time per request"},
    {"aero_pipeline_sample_ms", "full DDIM sampling loop time per request"},
    {"aero_pipeline_decode_ms", "latent -> image decode time per request"},
    // diffusion sampler / trainer sentinel
    {"aero_diffusion_step_ms", "single DDIM denoising step time"},
    {"aero_train_nan_events_total",
     "non-finite loss/gradient events seen by the sentinel"},
    {"aero_train_spike_events_total",
     "loss-spike events seen by the sentinel"},
    {"aero_train_rollbacks_total", "sentinel snapshot rollbacks applied"},
    // diffusion::BatchedDdimScheduler / serve::StepBatcher (continuous
    // cross-request step batching)
    {"aero_batch_size", "requests amortised by one batched denoising step"},
    {"aero_batch_steps_total", "batched denoising steps executed"},
    {"aero_batch_joins_total", "sampling jobs admitted into the step batch"},
    {"aero_batch_retired_total",
     "sampling jobs retired from the step batch (finished or cancelled)"},
    {"aero_batch_occupancy",
     "jobs currently sharing the batched denoising step"},
    // mem::Arena tensor-storage allocator (published by a collector;
    // mem sits below obs in the layering and only exports plain atomics)
    {"aero_alloc_requests", "arena acquire() calls since process start"},
    {"aero_alloc_hits", "arena acquisitions served from a free list"},
    {"aero_alloc_misses", "arena acquisitions that hit the system heap"},
    {"aero_alloc_trims", "cached blocks freed by the arena's LRU trim"},
    {"aero_alloc_resident_bytes", "bytes idle in the arena's free lists"},
    {"aero_alloc_outstanding_bytes", "arena bytes currently lent out"},
    // mem::ConditionCache condition/embedding LRU (same collector)
    {"aero_cache_hits", "condition-cache lookups served from the LRU"},
    {"aero_cache_misses", "condition-cache lookups that re-encoded"},
    {"aero_cache_insertions", "condition-cache entries inserted"},
    {"aero_cache_evictions", "condition-cache entries evicted by bounds"},
    {"aero_cache_invalidations",
     "condition-cache invalidate_all() calls (param load / training)"},
    {"aero_cache_entries", "live condition-cache entries"},
    {"aero_cache_bytes", "live condition-cache value bytes"},
    // util::ThreadPool (published by a collector; the pool itself sits
    // below obs in the layering and only exports plain atomics)
    {"aero_pool_tasks", "parallel_for invocations since process start"},
    {"aero_pool_chunks", "chunks executed since process start"},
    {"aero_pool_caller_chunks", "chunks executed by the calling thread"},
    {"aero_pool_caller_share", "caller-executed fraction of all chunks"},
    {"aero_pool_queue_wait_ms",
     "cumulative publish -> first-claim wait across tasks"},
    // trace ring buffer (rendered directly by the exposition; listed
    // here so the whole metric namespace lives in one table)
    {"aero_trace_spans_recorded_total", "spans recorded into the ring"},
    {"aero_trace_spans_dropped_total",
     "spans overwritten before being read (ring overflow)"},
    {"aero_trace_span_ms", "per-span-name cumulative time and count"},
};

inline constexpr int kNumMetricNames =
    static_cast<int>(sizeof(kMetricNames) / sizeof(kMetricNames[0]));

/// True when `name` is in the table. Used by the global registry's
/// runtime guard; cheap (the table is a few dozen entries).
inline bool is_registered_metric(const char* name) {
    for (const MetricName& metric : kMetricNames) {
        if (std::strcmp(metric.name, name) == 0) return true;
    }
    return false;
}

/// Registered help text for `name` (nullptr when absent).
inline const char* registered_metric_help(const char* name) {
    for (const MetricName& metric : kMetricNames) {
        if (std::strcmp(metric.name, name) == 0) return metric.help;
    }
    return nullptr;
}

}  // namespace aero::obs
