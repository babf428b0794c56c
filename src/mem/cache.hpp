#pragma once
// mem::ConditionCache — bounded LRU over encoded condition values
// (DESIGN.md §17). Detector-augmentation and repeated-view workloads
// replay a small set of canonical prompts; the condition stage (CLIP /
// BLIP fusion / ROI features / encoder forward) is identical for
// identical inputs, so the pipeline caches the final encoded condition
// tensor keyed by the canonical captions + scene parameters.
//
// Contracts:
//  - Bitwise neutrality. Only deterministic, finite, non-degraded
//    encodings are inserted (the pipeline owns that guard), so a hit
//    returns exactly the tensor a recompute would produce, and
//    AERO_COND_CACHE=0 is a true no-op.
//  - Invalidation. Anything that changes encoder parameters (checkpoint
//    load, training) must call invalidate_all(); the pipeline wires
//    this into load() and fit().
//  - Layering. The cache is a template over the cached value type, so
//    mem never depends on tensor; stats are process-wide relaxed
//    atomics published as aero_cache_* gauges by an obs collector.

#include <atomic>
#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace aero::mem {

/// Cumulative cache activity across every ConditionCache instance;
/// snapshot via cache_stats(). entries/bytes are current values.
struct CacheStats {
    long long hits = 0;
    long long misses = 0;
    long long insertions = 0;
    long long evictions = 0;
    long long invalidations = 0;  ///< invalidate_all() calls
    long long entries = 0;        ///< live entries across instances
    long long bytes = 0;          ///< live value bytes across instances
};

CacheStats cache_stats();

/// Gate: AERO_COND_CACHE != 0 (default on). Callers consult this BEFORE
/// lookup/insert so the off-path never touches the cache at all.
bool cond_cache_enabled();
void set_cond_cache_enabled(bool on);  ///< test hook

namespace detail {

/// Process-wide counters behind cache_stats(); bumped by every
/// instance, so all pipelines in a process aggregate into one view.
struct CacheCounters {
    std::atomic<long long> hits{0};
    std::atomic<long long> misses{0};
    std::atomic<long long> insertions{0};
    std::atomic<long long> evictions{0};
    std::atomic<long long> invalidations{0};
    std::atomic<long long> entries{0};
    std::atomic<long long> bytes{0};
};

CacheCounters& cache_counters();

}  // namespace detail

/// Bounds for one ConditionCache instance.
struct ConditionCacheConfig {
    int max_entries = 128;
    long long max_bytes = 64LL * 1024 * 1024;

    /// AERO_COND_CACHE_CAP / AERO_COND_CACHE_MB overrides.
    static ConditionCacheConfig from_env();
};

/// Thread-safe bounded LRU. Values are copied in and out (a hit must
/// not alias mutable cache internals); per-entry byte cost is supplied
/// by the caller at insert so the template stays value-type agnostic.
template <typename Value>
class ConditionCache {
public:
    explicit ConditionCache(
        ConditionCacheConfig config = ConditionCacheConfig::from_env())
        : config_(config) {}

    ~ConditionCache() { invalidate_all(); }

    ConditionCache(const ConditionCache&) = delete;
    ConditionCache& operator=(const ConditionCache&) = delete;

    /// Copies the cached value into *out and refreshes recency.
    /// Counts a hit or a miss.
    bool lookup(const std::string& key, Value* out) AERO_EXCLUDES(mutex_) {
        detail::CacheCounters& counters = detail::cache_counters();
        const util::MutexLock lock(mutex_);
        auto it = index_.find(key);
        if (it == index_.end()) {
            counters.misses.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        entries_.splice(entries_.begin(), entries_, it->second);
        *out = entries_.front().value;
        counters.hits.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    /// Inserts (or refreshes) `key`, then evicts from the cold end
    /// until both bounds hold. An entry larger than max_bytes is
    /// accepted and immediately becomes the only eviction candidate.
    void insert(const std::string& key, Value value, long long value_bytes)
        AERO_EXCLUDES(mutex_) {
        detail::CacheCounters& counters = detail::cache_counters();
        const util::MutexLock lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            bytes_ += value_bytes - it->second->bytes;
            counters.bytes.fetch_add(value_bytes - it->second->bytes,
                                     std::memory_order_relaxed);
            it->second->value = std::move(value);
            it->second->bytes = value_bytes;
            entries_.splice(entries_.begin(), entries_, it->second);
            return;
        }
        entries_.push_front(Entry{key, std::move(value), value_bytes});
        index_[key] = entries_.begin();
        bytes_ += value_bytes;
        counters.insertions.fetch_add(1, std::memory_order_relaxed);
        counters.entries.fetch_add(1, std::memory_order_relaxed);
        counters.bytes.fetch_add(value_bytes, std::memory_order_relaxed);
        while (static_cast<int>(entries_.size()) > config_.max_entries ||
               (bytes_ > config_.max_bytes && entries_.size() > 1)) {
            const Entry& victim = entries_.back();
            bytes_ -= victim.bytes;
            counters.bytes.fetch_sub(victim.bytes, std::memory_order_relaxed);
            counters.entries.fetch_sub(1, std::memory_order_relaxed);
            counters.evictions.fetch_add(1, std::memory_order_relaxed);
            index_.erase(victim.key);
            entries_.pop_back();
        }
    }

    /// Drops every entry. Called on parameter load / training updates.
    void invalidate_all() AERO_EXCLUDES(mutex_) {
        detail::CacheCounters& counters = detail::cache_counters();
        const util::MutexLock lock(mutex_);
        counters.entries.fetch_sub(static_cast<long long>(entries_.size()),
                                   std::memory_order_relaxed);
        counters.bytes.fetch_sub(bytes_, std::memory_order_relaxed);
        counters.invalidations.fetch_add(1, std::memory_order_relaxed);
        entries_.clear();
        index_.clear();
        bytes_ = 0;
    }

    int entries() const AERO_EXCLUDES(mutex_) {
        const util::MutexLock lock(mutex_);
        return static_cast<int>(entries_.size());
    }

    long long bytes() const AERO_EXCLUDES(mutex_) {
        const util::MutexLock lock(mutex_);
        return bytes_;
    }

private:
    struct Entry {
        std::string key;
        Value value;
        long long bytes = 0;
    };

    const ConditionCacheConfig config_;
    mutable util::Mutex mutex_;
    std::list<Entry> entries_ AERO_GUARDED_BY(mutex_);  ///< front = hottest
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index_ AERO_GUARDED_BY(mutex_);
    long long bytes_ AERO_GUARDED_BY(mutex_) = 0;
};

}  // namespace aero::mem
