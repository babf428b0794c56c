// Memory-subsystem tests (DESIGN.md §17): the size-bucketed caching
// arena (bucket rounding, LIFO reuse, LRU trim, bounded residency,
// cross-thread stress), mem::Buffer value semantics and the zero-fill
// neutrality that makes recycled blocks indistinguishable from fresh
// ones, the bounded condition LRU (hit / miss / eviction / overwrite /
// invalidation), bitwise identity of the on- and off-paths through full
// generation, and the serve-level integration (repeat prompts are
// served from the pipeline's condition cache).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "mem/arena.hpp"
#include "mem/cache.hpp"
#include "serve/service.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace aero;
using aero::core::AeroDiffusionPipeline;
using aero::core::Budget;
using aero::core::GenerateControl;
using aero::core::PipelineConfig;
using aero::core::Substrate;
using aero::scene::AerialDataset;
using aero::scene::DatasetConfig;
using aero::tensor::Tensor;

/// Restores the arena / condition-cache gates on scope exit so each
/// test can toggle them freely without leaking state into the next.
struct GateGuard {
    bool arena = mem::Arena::enabled();
    bool cache = mem::cond_cache_enabled();
    ~GateGuard() {
        mem::Arena::set_enabled(arena);
        mem::set_cond_cache_enabled(cache);
    }
};

const Substrate& shared_substrate() {
    static const Substrate substrate = [] {
        Budget budget = Budget::smoke();
        DatasetConfig config;
        config.train_size = budget.train_images;
        config.test_size = budget.test_images;
        config.image_size = budget.image_size;
        static const AerialDataset dataset(config);
        util::Rng rng(2025);
        return core::build_substrate(dataset, budget, rng);
    }();
    return substrate;
}

/// Untrained pipeline: finite weights are all the cache-identity tests
/// need, and it keeps the fixture fast.
const AeroDiffusionPipeline& shared_pipeline() {
    static const AeroDiffusionPipeline pipeline = [] {
        util::Rng rng(7);
        return AeroDiffusionPipeline(PipelineConfig::aero_diffusion(),
                                     shared_substrate(), rng);
    }();
    return pipeline;
}

// ---- arena ------------------------------------------------------------------

TEST(ArenaTest, RoundsUpToBucketAndReusesLifo) {
    GateGuard guard;
    mem::Arena::set_enabled(true);
    mem::Arena& arena = mem::Arena::instance();
    arena.trim_all();
    const mem::ArenaStats before = arena.stats();

    std::size_t cap = 0;
    bool owned = false;
    float* p = arena.acquire(100, &cap, &owned);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(owned);
    EXPECT_EQ(cap, 128u);  // 100 floats round up to the 128-float bucket
    arena.release(p, cap);

    // The next same-bucket request reuses the warmest block (LIFO).
    std::size_t cap2 = 0;
    bool owned2 = false;
    float* q = arena.acquire(65, &cap2, &owned2);
    EXPECT_EQ(q, p);
    EXPECT_EQ(cap2, cap);
    arena.release(q, cap2);

    const mem::ArenaStats after = arena.stats();
    EXPECT_EQ(after.requests, before.requests + 2);
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    arena.trim_all();
}

TEST(ArenaTest, OversizedRequestsBypassTheBuckets) {
    GateGuard guard;
    mem::Arena::set_enabled(true);
    mem::Arena& arena = mem::Arena::instance();
    const mem::ArenaStats before = arena.stats();
    // One float past the largest bucket: straight to the heap, exact
    // capacity, no arena bookkeeping.
    const std::size_t huge = (std::size_t{64} << 16) + 1;
    {
        mem::Buffer buffer(huge);
        ASSERT_EQ(buffer.size(), huge);
        buffer[0] = 1.0f;
        buffer[huge - 1] = 2.0f;
        EXPECT_EQ(buffer[0], 1.0f);
        EXPECT_EQ(buffer[huge - 1], 2.0f);
    }
    const mem::ArenaStats after = arena.stats();
    EXPECT_EQ(after.requests, before.requests);
    EXPECT_EQ(after.outstanding_bytes, before.outstanding_bytes);
}

TEST(ArenaTest, ResidencyBoundTrimsOldestReleasedFirst) {
    GateGuard guard;
    mem::Arena::set_enabled(true);
    mem::Arena& arena = mem::Arena::instance();
    arena.trim_all();
    const long long original_cap = arena.max_resident_bytes();
    const mem::ArenaStats before = arena.stats();

    // Three distinct min-bucket blocks (64 floats = 256 bytes each).
    std::size_t caps[3];
    bool owned[3];
    float* blocks[3];
    for (int i = 0; i < 3; ++i) {
        blocks[i] = arena.acquire(64, &caps[i], &owned[i]);
    }
    // Cap at two blocks, then release all three in order: the first
    // release is the globally least-recently-released, so it is the
    // block the third release trims.
    arena.set_max_resident_bytes(2 * 256);
    for (int i = 0; i < 3; ++i) arena.release(blocks[i], caps[i]);

    const mem::ArenaStats after = arena.stats();
    EXPECT_EQ(after.trims, before.trims + 1);
    EXPECT_LE(after.resident_bytes, 2 * 256);
    // LIFO still serves the newest surviving block.
    std::size_t cap = 0;
    bool is_owned = false;
    float* reused = arena.acquire(64, &cap, &is_owned);
    EXPECT_EQ(reused, blocks[2]);
    arena.release(reused, cap);

    arena.set_max_resident_bytes(original_cap);
    arena.trim_all();
    EXPECT_EQ(arena.stats().resident_bytes, 0);
}

TEST(ArenaTest, DisabledGateBypassesAndDrains) {
    GateGuard guard;
    mem::Arena::set_enabled(true);
    mem::Arena& arena = mem::Arena::instance();
    arena.trim_all();

    // Acquire while enabled, then gate off: the release must free
    // directly instead of growing the (disabled) cache.
    std::size_t cap = 0;
    bool owned = false;
    float* p = arena.acquire(64, &cap, &owned);
    ASSERT_TRUE(owned);
    mem::Arena::set_enabled(false);
    const long long resident = arena.stats().resident_bytes;
    arena.release(p, cap);
    EXPECT_EQ(arena.stats().resident_bytes, resident);

    // Disabled acquires bypass entirely: requests stays put.
    const mem::ArenaStats before = arena.stats();
    {
        mem::Buffer buffer(256);
        EXPECT_EQ(buffer.size(), 256u);
    }
    EXPECT_EQ(arena.stats().requests, before.requests);
}

TEST(ArenaTest, CrossThreadAcquireReleaseStress) {
    GateGuard guard;
    mem::Arena::set_enabled(true);
    mem::Arena& arena = mem::Arena::instance();
    arena.trim_all();
    const long long outstanding_before = arena.stats().outstanding_bytes;

    // Hammer the free lists from several threads with mixed bucket
    // sizes; TSan (scripts/check.sh runs this suite under it) races the
    // bucket deques, the stats atomics and the trim path.
    constexpr int kThreads = 4;
    constexpr int kIters = 400;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kIters; ++i) {
                const std::size_t n =
                    64 + static_cast<std::size_t>((i * 37 + t * 101) % 4000);
                mem::Buffer buffer(n);
                buffer[0] = static_cast<float>(i);
                buffer[n - 1] = static_cast<float>(t);
                if (i % 97 == 0) mem::Arena::instance().trim_all();
                mem::Buffer copy = buffer;
                EXPECT_EQ(copy[0], buffer[0]);
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    // Every Buffer returned its block: lent-out bytes are back to the
    // pre-stress level and the cached remainder trims cleanly.
    EXPECT_EQ(arena.stats().outstanding_bytes, outstanding_before);
    arena.trim_all();
    EXPECT_EQ(arena.stats().resident_bytes, 0);
}

// ---- buffer -----------------------------------------------------------------

TEST(BufferTest, RecycledBlocksAreZeroFilled) {
    GateGuard guard;
    mem::Arena::set_enabled(true);
    mem::Arena::instance().trim_all();
    // Dirty a block, return it to the arena, take it back: the new
    // Buffer must be indistinguishable from a fresh allocation.
    {
        mem::Buffer dirty(100);
        for (float& v : dirty) v = 123.5f;
    }
    mem::Buffer clean(100);
    for (const float v : clean) EXPECT_EQ(v, 0.0f);
    mem::Arena::instance().trim_all();
}

TEST(BufferTest, ValueSemanticsMatchVector) {
    GateGuard guard;
    mem::Arena::set_enabled(true);
    const float values[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    mem::Buffer a = mem::Buffer::copy_of(values, 4);
    ASSERT_EQ(a.size(), 4u);

    // Deep copy: mutating the copy leaves the original alone.
    mem::Buffer b = a;
    b[0] = -1.0f;
    EXPECT_EQ(a[0], 1.0f);

    // Same-size assignment refills in place, keeping the storage.
    const float* storage = a.data();
    a = b;
    EXPECT_EQ(a.data(), storage);
    EXPECT_EQ(a[0], -1.0f);

    // Moves steal the block and leave the source empty.
    const float* block = b.data();
    mem::Buffer c = std::move(b);
    EXPECT_EQ(c.data(), block);
    EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c[3], 4.0f);
}

// ---- tensor accessors (the values() foot-gun replacement) -------------------

TEST(TensorAccessorTest, CopyFromRejectsCountMismatch) {
    Tensor t = Tensor::zeros({2, 3});
    const float six[6] = {1, 2, 3, 4, 5, 6};
    EXPECT_THROW(t.copy_from(six, 5), std::invalid_argument);
    t.copy_from(six, 6);
    EXPECT_EQ(t.at({1, 2}), 6.0f);
}

TEST(TensorAccessorTest, SpanAccessorsRoundTrip) {
    Tensor t = Tensor::from_values({1.0f, 2.0f, 3.0f});
    float sum = 0.0f;
    for (const float v : t) sum += v;  // begin()/end() over raw storage
    EXPECT_EQ(sum, 6.0f);
    const std::vector<float> out = t.to_vector();
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1], 2.0f);
    EXPECT_EQ(t.data()[2], 3.0f);
}

// ---- condition cache --------------------------------------------------------

TEST(ConditionCacheTest, HitMissAndLruEviction) {
    mem::ConditionCacheConfig config;
    config.max_entries = 2;
    config.max_bytes = 1 << 20;
    mem::ConditionCache<std::string> cache(config);

    cache.insert("a", "alpha", 5);
    cache.insert("b", "beta", 4);
    std::string out;
    ASSERT_TRUE(cache.lookup("a", &out));  // refreshes a's recency
    EXPECT_EQ(out, "alpha");
    cache.insert("c", "gamma", 5);  // evicts b, the cold end
    EXPECT_FALSE(cache.lookup("b", &out));
    EXPECT_TRUE(cache.lookup("a", &out));
    EXPECT_TRUE(cache.lookup("c", &out));
    EXPECT_EQ(cache.entries(), 2);
}

TEST(ConditionCacheTest, ByteBoundEvictsButKeepsLastEntry) {
    mem::ConditionCacheConfig config;
    config.max_entries = 100;
    config.max_bytes = 100;
    mem::ConditionCache<std::string> cache(config);

    cache.insert("a", "x", 60);
    cache.insert("b", "y", 60);  // 120 bytes > 100: a is evicted
    std::string out;
    EXPECT_FALSE(cache.lookup("a", &out));
    EXPECT_EQ(cache.entries(), 1);
    EXPECT_EQ(cache.bytes(), 60);

    // An entry larger than the whole budget is accepted and becomes the
    // sole (and next) eviction candidate rather than thrashing forever.
    cache.insert("huge", "z", 1000);
    EXPECT_EQ(cache.entries(), 1);
    EXPECT_EQ(cache.bytes(), 1000);
    EXPECT_TRUE(cache.lookup("huge", &out));
}

TEST(ConditionCacheTest, OverwriteRefreshesValueAndBytes) {
    mem::ConditionCache<std::string> cache(mem::ConditionCacheConfig{});
    cache.insert("k", "old", 10);
    cache.insert("k", "new", 30);
    EXPECT_EQ(cache.entries(), 1);
    EXPECT_EQ(cache.bytes(), 30);
    std::string out;
    ASSERT_TRUE(cache.lookup("k", &out));
    EXPECT_EQ(out, "new");
}

TEST(ConditionCacheTest, InvalidateAllDropsEntriesAndCounts) {
    const mem::CacheStats before = mem::cache_stats();
    mem::ConditionCache<std::string> cache(mem::ConditionCacheConfig{});
    cache.insert("a", "x", 8);
    cache.insert("b", "y", 8);
    cache.invalidate_all();
    EXPECT_EQ(cache.entries(), 0);
    EXPECT_EQ(cache.bytes(), 0);
    std::string out;
    EXPECT_FALSE(cache.lookup("a", &out));
    const mem::CacheStats after = mem::cache_stats();
    EXPECT_GE(after.invalidations, before.invalidations + 1);
    EXPECT_EQ(after.entries, before.entries);  // global gauges stay honest
    EXPECT_EQ(after.bytes, before.bytes);
}

// ---- pipeline integration ---------------------------------------------------

TEST(PipelineCacheTest, RepeatGenerateHitsAndStaysBitwiseIdentical) {
    GateGuard guard;
    const Substrate& s = shared_substrate();
    const AeroDiffusionPipeline& pipeline = shared_pipeline();
    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;

    // On-path: first call may miss, the repeat must hit.
    mem::Arena::set_enabled(true);
    mem::set_cond_cache_enabled(true);
    GenerateControl first;
    util::Rng rng_a(5);
    const image::Image warm =
        pipeline.generate(sample, caption, caption, rng_a, 0, &first);
    GenerateControl repeat;
    util::Rng rng_b(5);
    const image::Image hit =
        pipeline.generate(sample, caption, caption, rng_b, 0, &repeat);
    EXPECT_TRUE(repeat.condition_cached);
    ASSERT_EQ(warm.data().size(), hit.data().size());
    EXPECT_TRUE(warm.data() == hit.data());

    // The key canonicalises captions: a case- and whitespace-reworded
    // duplicate hits the same entry and decodes to the same bytes.
    std::string reworded = " \t";
    for (const char c : caption) {
        if (c == ' ') {
            reworded += "  \t";
        } else {
            reworded += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        }
    }
    reworded += '\n';
    GenerateControl reworded_control;
    util::Rng rng_r(5);
    const image::Image reworded_hit = pipeline.generate(
        sample, reworded, reworded, rng_r, 0, &reworded_control);
    EXPECT_TRUE(reworded_control.condition_cached);
    ASSERT_EQ(reworded_hit.data().size(), warm.data().size());
    EXPECT_EQ(std::memcmp(reworded_hit.data().data(), warm.data().data(),
                          warm.data().size() * sizeof(float)),
              0);

    // A caption whose content differs is a different prompt: it misses.
    const std::string other = s.keypoint_test[1].text;
    ASSERT_NE(other, caption);
    GenerateControl other_control;
    util::Rng rng_o(5);
    pipeline.generate(sample, other, other, rng_o, 0, &other_control);
    EXPECT_FALSE(other_control.condition_cached);

    // Off-path (both gates): bitwise identical to the on-path — the
    // subsystem's core contract.
    mem::Arena::set_enabled(false);
    mem::set_cond_cache_enabled(false);
    GenerateControl off;
    util::Rng rng_c(5);
    const image::Image plain =
        pipeline.generate(sample, caption, caption, rng_c, 0, &off);
    EXPECT_FALSE(off.condition_cached);
    ASSERT_EQ(plain.data().size(), warm.data().size());
    EXPECT_TRUE(plain.data() == warm.data());
}

TEST(PipelineCacheTest, BypassFlagSkipsLookupAndInsert) {
    GateGuard guard;
    mem::set_cond_cache_enabled(true);
    const Substrate& s = shared_substrate();
    const AeroDiffusionPipeline& pipeline = shared_pipeline();
    const auto& sample = s.dataset->test()[1];
    const std::string caption = s.keypoint_test[1].text;

    const int entries_before = pipeline.condition_cache_entries();
    GenerateControl control;
    control.bypass_condition_cache = true;  // breaker half-open probe
    util::Rng rng(11);
    pipeline.generate(sample, caption, caption, rng, 1, &control);
    EXPECT_FALSE(control.condition_cached);
    EXPECT_EQ(pipeline.condition_cache_entries(), entries_before);
}

TEST(PipelineCacheTest, ParameterLoadInvalidates) {
    GateGuard guard;
    mem::set_cond_cache_enabled(true);
    const Substrate& s = shared_substrate();
    util::Rng rng(31);
    AeroDiffusionPipeline pipeline(PipelineConfig::aero_diffusion(), s, rng);
    const auto& sample = s.dataset->test()[0];
    const std::string caption = s.keypoint_test[0].text;

    util::Rng gen(5);
    pipeline.generate(sample, caption, caption, gen, 0);
    EXPECT_GE(pipeline.condition_cache_entries(), 1);

    const std::string path = testing::TempDir() + "/aero_mem_invalidate";
    ASSERT_TRUE(pipeline.save(path));
    ASSERT_TRUE(pipeline.load(path));
    // New parameters would encode differently; stale entries are gone.
    EXPECT_EQ(pipeline.condition_cache_entries(), 0);
    std::remove((path + ".unet").c_str());
    std::remove((path + ".cond").c_str());
}

// ---- serve integration ------------------------------------------------------

TEST(ServeCacheTest, RepeatPromptsServeFromTheConditionCache) {
    GateGuard guard;
    mem::set_cond_cache_enabled(true);
    serve::ServiceConfig config;
    config.workers = 2;
    config.limits.image_size = Budget::smoke().image_size;
    serve::InferenceService service(shared_pipeline(), config);

    const Substrate& s = shared_substrate();
    serve::InferenceRequest request;
    request.reference = s.dataset->test()[2 % s.dataset->test().size()];
    request.source_caption =
        s.keypoint_test[2 % s.keypoint_test.size()].text;
    request.target_caption = request.source_caption;
    request.seed = 77;

    // Warm the cache with one request, then replay the prompt.
    const serve::RequestResult warm = service.submit(request).get();
    ASSERT_EQ(warm.outcome, serve::Outcome::kOk) << warm.message;

    std::vector<std::future<serve::RequestResult>> futures;
    for (int i = 0; i < 4; ++i) {
        serve::InferenceRequest repeat = request;
        repeat.seed = 100 + static_cast<std::uint64_t>(i);
        futures.push_back(service.submit(std::move(repeat)));
    }
    for (auto& future : futures) {
        const serve::RequestResult result = future.get();
        EXPECT_EQ(result.outcome, serve::Outcome::kOk) << result.message;
        EXPECT_TRUE(result.condition_cached);
    }
    service.stop();
    EXPECT_TRUE(service.stats().balanced());
}

}  // namespace
