#pragma once
// Per-client token-bucket rate limiter for the serving admission path
// (DESIGN.md §9). Each client identity owns a bucket that refills at
// `qps` tokens per second up to `burst`; a request spends one token or
// is rejected. Sitting in util (below obs), the limiter never reads a
// clock itself — callers pass `now_ns` from whatever time source they
// use (the serve layer passes obs::default_clock()).
//
// Memory is bounded: identities hash onto a fixed array of kSlots
// buckets, so a million distinct client ids cost the same as a handful.
// Colliding clients share a bucket — under attack that errs toward
// rejecting, the safe direction for an admission defence.

#include <cstdint>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace aero::util {

struct RateLimitConfig {
    /// Sustained admissions per second per client; <= 0 disables the
    /// limiter entirely (every admit() returns true).
    double qps = 0.0;
    /// Bucket capacity (burst headroom); <= 0 derives max(qps, 1).
    double burst = 0.0;
};

class RateLimiter {
public:
    /// Buckets the client identities hash onto.
    static constexpr std::size_t kSlots = 256;

    explicit RateLimiter(const RateLimitConfig& config);

    bool enabled() const { return qps_ > 0.0; }

    /// One admission decision for `client_id` at `now_ns`. Spends a
    /// token (true) or rejects (false). An empty client_id carries no
    /// identity to meter and is always admitted — rate limiting is
    /// opt-in per request, like the priority class.
    bool admit(const std::string& client_id, std::int64_t now_ns)
        AERO_EXCLUDES(mutex_);

    /// Cumulative rejections (all clients).
    long long rejected() const AERO_EXCLUDES(mutex_);

private:
    struct Bucket {
        double tokens = 0.0;
        std::int64_t last_ns = 0;
        bool used = false;  ///< first touch fills to burst
    };

    double qps_ = 0.0;
    double burst_ = 0.0;
    mutable Mutex mutex_;
    std::vector<Bucket> buckets_ AERO_GUARDED_BY(mutex_);
    long long rejected_ AERO_GUARDED_BY(mutex_) = 0;
};

}  // namespace aero::util
