#pragma once
// Annotated synchronisation primitives: a std::mutex whose type carries
// the AERO_CAPABILITY annotation so Clang's -Wthread-safety analysis can
// check AERO_GUARDED_BY contracts on any standard library (libstdc++'s
// std::mutex is not annotated). Off Clang the annotations compile away
// and the wrappers cost exactly a std::mutex.
//
// Usage (see src/serve/service.hpp for the full idiom):
//
//   util::Mutex mutex_;
//   int counter_ AERO_GUARDED_BY(mutex_) = 0;
//
//   void bump() AERO_EXCLUDES(mutex_) {
//       const util::MutexLock lock(mutex_);
//       ++counter_;
//   }
//
// Condition-variable waits use util::CondVar (condition_variable_any)
// with a std::unique_lock<util::Mutex>; the waiting function is marked
// AERO_NO_THREAD_SAFETY_ANALYSIS because the analysis cannot follow a
// lock that is released and re-acquired inside wait().
//
// Lock order is checked statically by the lock-order pass of
// tools/aero_lint and at run time by TSan's deadlock detector
// (DESIGN.md §15).

#include <condition_variable>
#include <mutex>

#include "util/annotations.hpp"

namespace aero::util {

/// std::mutex with a capability annotation. Satisfies BasicLockable, so
/// std::unique_lock<Mutex> and CondVar::wait work unchanged.
class AERO_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() AERO_ACQUIRE() { mutex_.lock(); }
    void unlock() AERO_RELEASE() { mutex_.unlock(); }

private:
    std::mutex mutex_;
};

/// Scoped lock over Mutex (std::lock_guard cannot carry the
/// scoped-capability annotation for a wrapped mutex type).
class AERO_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mutex) AERO_ACQUIRE(mutex) : mutex_(mutex) {
        mutex_.lock();
    }
    ~MutexLock() AERO_RELEASE() { mutex_.unlock(); }
    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    Mutex& mutex_;
};

/// Condition variable compatible with util::Mutex. _any costs one level
/// of indirection over std::condition_variable; the serving queue waits
/// are milliseconds-scale, so checkability wins.
using CondVar = std::condition_variable_any;

}  // namespace aero::util
