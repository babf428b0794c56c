// Run-time lock-order check for util::Mutex: TSan's deadlock detector.
//
// Lock order is checked statically by the lock-order pass of aero_lint
// and at run time by TSan (DESIGN.md §15). This suite pins the run-time
// half. A death-test child takes a -> b on one thread and joins it, then
// takes b -> a on a second thread. The two threads never overlap, so
// nothing deadlocks, yet TSan must report the inverted pair and exit
// with its default report code, 66. Outside a TSan build the test skips.

#include <gtest/gtest.h>

#if defined(__SANITIZE_THREAD__)
#define SYNC_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SYNC_TEST_TSAN 1
#endif
#endif

#ifdef SYNC_TEST_TSAN
#include <cstdlib>
#include <thread>

#include "util/sync.hpp"
#endif

namespace {

#ifdef SYNC_TEST_TSAN
using aero::util::Mutex;
using aero::util::MutexLock;

void lock_pair(Mutex& first, Mutex& second) {
    const MutexLock outer(first);
    const MutexLock inner(second);
}

[[noreturn]] void lock_pair_both_ways() {
    Mutex a;
    Mutex b;
    std::thread forward([&] { lock_pair(a, b); });
    forward.join();
    std::thread inverted([&] { lock_pair(b, a); });
    inverted.join();
    std::exit(0);
}
#endif

TEST(LockOrder, TsanReportsInvertedMutexPair) {
#ifdef SYNC_TEST_TSAN
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(lock_pair_both_ways(), ::testing::ExitedWithCode(66),
                "lock-order-inversion");
#else
    GTEST_SKIP() << "needs a TSan build (-DAERO_SANITIZE=thread)";
#endif
}

}  // namespace
