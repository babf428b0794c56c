#pragma once
// Central registry of fault-injection point names.
//
// Every name passed to FaultInjector::should_fail / fires / arm_nan /
// set_fail_rate must appear here, and every entry must be documented in
// DESIGN.md (the aero_lint tool enforces both directions, and the
// injector rejects unregistered names at runtime). Keeping the table in
// one header means a grep for a point name always lands on its
// definition, and a scaling PR that adds a point cannot forget to
// document where in the request lifecycle it fires.
//
// To add a point: append {name, where-it-fires} below, mention the name
// in DESIGN.md §8/§9, then use it at exactly that place in the code.

#include <cstring>

namespace aero::util {

struct FaultPoint {
    const char* name;
    const char* fires_at;  ///< one-line description of the injection site
};

inline constexpr FaultPoint kFaultPoints[] = {
    {"loss", "trainer: loss value corrupted to NaN before the backward pass"},
    {"grad", "trainer: first available gradient poisoned after backward"},
    {"param", "trainer: first weight poisoned before the forward pass"},
    {"condition_encoder",
     "pipeline: condition-encoder failure on the conditional sampling path"},
    {"serve_transient",
     "service worker: transient fault before an attempt starts (retryable)"},
    {"serve_slow",
     "service worker: stall inside an attempt, after breaker admission"},
    {"pool_slow",
     "thread pool: worker stalls ~1ms before executing a claimed chunk"},
    {"overload_spike",
     "service worker: feeds the admission controller a synthetic latency "
     "spike at dequeue (spike_factor x latency target), deterministically "
     "driving an AIMD decrease and degradation-ladder escalation in soaks"},
    {"lock_order_invert",
     "test_sync: flips a two-mutex acquisition to the inverted order so "
     "the runtime lock-order validator (AERO_LOCK_ORDER, DESIGN.md "
     "section 15) must report the cycle; off, both threads acquire in "
     "the declared order and the test runs TSan-clean"},
};

inline constexpr int kNumFaultPoints =
    static_cast<int>(sizeof(kFaultPoints) / sizeof(kFaultPoints[0]));

/// True when `name` is a registered injection point. Cheap enough for
/// the injector's runtime guard (the table is a handful of entries).
inline bool is_registered_fault_point(const char* name) {
    for (const FaultPoint& point : kFaultPoints) {
        if (std::strcmp(point.name, name) == 0) return true;
    }
    return false;
}

}  // namespace aero::util
