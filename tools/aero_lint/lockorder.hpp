#pragma once
// Static lock-order pass: builds an approximate inter-procedural lock
// graph from util::MutexLock / std::unique_lock<util::Mutex>
// acquisition sites and flags cycles as potential deadlocks.
//
// Approximations (documented in DESIGN.md §15):
//   * Acquisitions are found syntactically; a lock reached through a
//     function pointer or a macro is invisible (TSan's deadlock
//     detector covers those on the paths the TSan suites run).
//   * A mutex is identified by `<Class>::<member>` when acquired from a
//     method of that class, else `<file-stem>:<function>::<expr>` —
//     mutexes of the same class/member merge across instances (an
//     over-approximation: distinct instances can legally nest), while
//     identically named members of different classes stay distinct.
//   * Nesting is lexical: acquisition B inside acquisition A's brace
//     scope adds edge A -> B (exactly RAII hold semantics; a CondVar
//     wait that drops the lock mid-scope is treated as held). An
//     explicit `<var>.unlock()` on the guard ends the hold there — a
//     later re-lock() in the same scope is treated as not held (TSan
//     covers that shape on the paths the TSan suites run).
//   * A call under a held lock adds edges to everything the callee may
//     lock. Callees resolve by base name: bare calls and `this->f()`
//     prefer a method of the caller's own class, `obj.f()` / `p->f()`
//     resolve globally but exclude the caller's own class (the object
//     is some other instance; same-class members already merge by id,
//     so including them manufactures self-deadlocks), `Cls::f()`
//     prefers Cls. Member calls with ubiquitous container/atomic names
//     (clear, size, push_back, load, ...) are assumed to be STL and
//     skipped. May-lock sets are closed over the call graph to a
//     fixpoint, so a lock reached through a non-locking intermediate
//     still orders. Remaining name collisions over-approximate;
//     `// aero-lint: allow(lock-order)` on an edge's site line removes
//     that edge.
//
// Every cycle is reported once, with the full edge chain and each
// edge's file:line provenance.

#include <cstddef>
#include <string>
#include <vector>

#include "lint.hpp"

namespace aero::lint {

/// One directed ordering edge: `from` held while acquiring `to`.
struct LockEdge {
    std::string from;
    std::string to;
    std::string file;
    int line = 1;
    std::string via;  ///< "nested acquisition" or "call to <fn>"
};

/// A call site, with enough syntax to resolve the callee.
struct LockCall {
    enum Kind { kBare, kMember, kQualified };
    std::string base;      ///< callee base name
    Kind kind = kBare;
    std::string cls_hint;  ///< for kQualified: the written class
    std::string obj;       ///< for kMember: the object expression
};

/// A function (or method) that the pass extracted.
struct LockFunction {
    std::string key;   ///< unique: "<file>|<qualified name>"
    std::string base;  ///< unqualified name
    std::string cls;   ///< enclosing/qualifying class ("" for free)
    std::vector<std::string> locks;  ///< mutex ids acquired directly
    std::vector<LockCall> calls;     ///< every call in the body
};

/// A call made while a lock is held (candidate inter-procedural edge).
struct HeldCall {
    std::string holder;     ///< mutex id held at the call
    LockCall call;
    std::string caller_cls;
    std::string file;
    int line = 1;
};

/// Extracted per-file facts, exposed for unit tests.
struct LockFileFacts {
    std::vector<LockFunction> functions;
    std::vector<LockEdge> nesting_edges;
    std::vector<HeldCall> held_calls;
};

/// Parses one file's acquisition/call facts. `path` is root-relative.
LockFileFacts extract_lock_facts(const std::string& path,
                                 const std::string& content);

/// Builds the global graph from per-file facts (may-lock fixpoint +
/// call edges) and appends one lock-order finding per cycle.
void check_lock_cycles(const std::vector<LockFileFacts>& facts,
                       std::vector<Finding>* out);

/// Whole pass over options.lock_dirs.
void run_lockorder(const Options& options, std::vector<Finding>* out);

}  // namespace aero::lint
