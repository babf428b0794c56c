#pragma once
// aero_lint: multi-pass project analyzer for the AeroDiffusion tree.
//
// Pass 1 — per-line rules. Repo-specific contracts that generic tooling
// (clang-tidy, -Wthread-safety) cannot know about:
//
//   fault-registry   every fault-injection point name used at a
//                    should_fail / fires / arm_nan / set_fail_rate call
//                    site is registered in src/util/fault_points.hpp
//   fault-docs       every registered fault point is documented in
//                    DESIGN.md
//   pragma-once      every public header starts with #pragma once
//   naked-new        no naked new / delete expressions outside the
//                    module-ownership core (src/nn/module.cpp)
//   unchecked-parse  no std::stoi / atoi / atof / strtod & friends —
//                    string->number goes through the checked parsers in
//                    util/json (parse_int / parse_double)
//   unchecked-io     the bool returned by the persistence helpers
//                    (write_file / save_parameters / save_checkpoint)
//                    is consumed, not dropped
//   stats-accounting every *Stats struct that exposes a balanced()
//                    invariant keeps its accounting comment adjacent to
//                    the fields it constrains
//   metric-naming    every metric name used at a counter / gauge /
//                    histogram registration site follows the
//                    `aero_<area>_<name>` pattern and is declared in
//                    src/obs/metric_names.hpp
//   arena-bypass     hot tensor-storage directories do not build storage
//                    on std::vector<float> — float blocks go through
//                    mem::Buffer so the mem::Arena sees them
//                    (DESIGN.md §17)
//
// Pass 2 — layering (layering.hpp): the `#include` graph of src/ must
// respect the layer DAG declared in ARCH.layers (rules layer-violation,
// layer-cycle, layer-undeclared, layer-manifest).
//
// Pass 3 — lock-order (lockorder.hpp): an approximate inter-procedural
// lock graph over util::MutexLock acquisition sites; cycles are
// potential deadlocks (rule lock-order). At run time, TSan's deadlock
// detector checks the orders the TSan suites execute.
//
// Pass 4 — determinism (determinism.hpp): output-affecting directories
// must not read entropy or wall clocks or iterate unordered containers
// (rules det-random, det-wallclock, det-unordered-iter) — the bitwise
// reproducibility contract behind the paper's FID/PSNR tables.
//
// A deliberate exception is suppressed inline with
//   // aero-lint: allow(<rule>)
// on the offending line or the line directly above it; suppressions are
// visible in review and greppable, which is the point.
//
// `aero_lint --list-rules` prints the full table; `--json PATH` writes
// the machine-readable report consumed by scripts/check.sh.

#include <string>
#include <utility>
#include <vector>

namespace aero::lint {

struct Finding {
    std::string file;  ///< path relative to the scanned root
    int line = 1;
    std::string rule;
    std::string message;
};

struct Options {
    std::string root = ".";  ///< repo root
    /// Directories (relative to root) where every per-line rule applies.
    std::vector<std::string> strict_dirs = {"src"};
    /// Extra directories where only the fault-registry rule applies
    /// (tests/benches arm fault points too).
    std::vector<std::string> fault_dirs = {"tests", "bench", "examples"};
    /// Fault-point registry header, relative to root.
    std::string registry = "src/util/fault_points.hpp";
    /// Metric-name registry header, relative to root ("" skips the
    /// metric-naming rule).
    std::string metric_registry = "src/obs/metric_names.hpp";
    /// Design doc that must mention every registered point ("" skips
    /// the fault-docs rule).
    std::string design_doc = "DESIGN.md";
    /// Files (relative paths, exact match) where naked new/delete is
    /// the point of the file.
    std::vector<std::string> allow_new = {"src/nn/module.cpp"};
    /// Files allowed to use raw conversions (the checked-parser home).
    std::vector<std::string> allow_unchecked_parse = {"src/util/json.cpp"};
    /// Layer manifest, relative to root ("" skips the layering pass).
    std::string layers_manifest = "ARCH.layers";
    /// Directory whose module subdirectories the layering pass checks.
    std::string layers_root = "src";
    /// Directories the lock-order pass scans for acquisition sites.
    std::vector<std::string> lock_dirs = {"src"};
    /// Output-affecting directories under the determinism contract.
    std::vector<std::string> determinism_dirs = {
        "src/tensor", "src/linalg", "src/nn", "src/diffusion", "src/core"};
    /// Hot tensor-storage directories where float storage must go
    /// through mem::Buffer rather than std::vector<float>, so the
    /// mem::Arena can recycle it (rule arena-bypass, DESIGN.md §17).
    std::vector<std::string> arena_dirs = {"src/tensor", "src/autograd"};
    /// Pass filter: empty runs everything; otherwise a subset of
    /// {"rules", "layering", "lock-order", "determinism"}.
    std::vector<std::string> passes;
};

/// True when `pass` ("rules" / "layering" / ...) should run.
bool pass_enabled(const Options& options, const std::string& pass);

/// Returns `text` with comments — and, when `keep_strings` is false,
/// string/char literal contents — blanked to spaces. Length- and
/// line-preserving, so offsets and line numbers map 1:1 onto the input.
std::string sanitize(const std::string& text, bool keep_strings);

/// Extracts the registered names from a registry header text (both the
/// fault-point and the metric-name tables use the `{"name", ...}` row
/// shape).
std::vector<std::string> parse_registry(const std::string& registry_text);

/// True when `name` follows the `aero_<area>_<name>` metric pattern
/// (lowercase alnum + underscore, at least three non-empty segments).
bool valid_metric_name(const std::string& name);

/// 1-based line number of `offset` within `text`.
int line_of(const std::string& text, std::size_t offset);

/// (line, rule) pairs for every `aero-lint: allow(<rule>)` marker in
/// the ORIGINAL (un-sanitized) file content.
std::vector<std::pair<int, std::string>> allow_markers(
    const std::string& content);

/// True when a marker suppresses `rule` on `line` (the marker's own
/// line or the line directly above).
bool is_suppressed(const std::vector<std::pair<int, std::string>>& markers,
                   int line, const std::string& rule);

/// One row of the `--list-rules` table.
struct RuleDoc {
    const char* name;
    const char* summary;
};

/// Every rule any pass can emit, sorted by name.
const std::vector<RuleDoc>& rule_docs();

/// Lints one file's content with the per-line rules. `strict` enables
/// every rule; otherwise only fault-registry/unchecked-io run. Appends
/// to `out`.
void lint_file(const std::string& path, const std::string& content,
               const std::vector<std::string>& registered_points,
               const std::vector<std::string>& registered_metrics,
               const Options& options, bool strict,
               std::vector<Finding>* out);

/// Runs every enabled pass over the configured tree. Findings are
/// sorted by (file, line, rule).
std::vector<Finding> run_lint(const Options& options);

}  // namespace aero::lint
