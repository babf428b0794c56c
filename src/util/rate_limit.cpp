#include "util/rate_limit.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace aero::util {

RateLimiter::RateLimiter(const RateLimitConfig& config) : qps_(config.qps) {
    if (qps_ > 0.0) {
        burst_ = config.burst > 0.0 ? config.burst : std::max(qps_, 1.0);
        buckets_.resize(kSlots);
    }
}

bool RateLimiter::admit(const std::string& client_id, std::int64_t now_ns) {
    if (!enabled() || client_id.empty()) return true;
    const std::size_t slot = fnv1a64(client_id) % buckets_.size();
    const MutexLock lock(mutex_);
    Bucket& bucket = buckets_[slot];
    if (!bucket.used) {
        bucket.used = true;
        bucket.tokens = burst_;
        bucket.last_ns = now_ns;
    } else {
        // Refill for the elapsed time; a non-monotonic or replayed
        // timestamp simply refills nothing.
        const std::int64_t elapsed = now_ns - bucket.last_ns;
        if (elapsed > 0) {
            bucket.tokens = std::min(
                burst_,
                bucket.tokens + static_cast<double>(elapsed) * 1e-9 * qps_);
            bucket.last_ns = now_ns;
        }
    }
    if (bucket.tokens >= 1.0) {
        bucket.tokens -= 1.0;
        return true;
    }
    ++rejected_;
    return false;
}

long long RateLimiter::rejected() const {
    const MutexLock lock(mutex_);
    return rejected_;
}

}  // namespace aero::util
