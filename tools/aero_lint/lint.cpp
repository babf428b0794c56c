#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "determinism.hpp"
#include "layering.hpp"
#include "lockorder.hpp"
#include "walk.hpp"

namespace aero::lint {

namespace {

namespace fs = std::filesystem;

bool is_ident(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Last non-whitespace character strictly before `pos`, or '\0'.
char prev_nonspace(const std::string& text, std::size_t pos) {
    while (pos > 0) {
        const char c = text[--pos];
        if (!std::isspace(static_cast<unsigned char>(c))) return c;
    }
    return '\0';
}

/// Previous identifier token ending strictly before `pos` ("" if none).
std::string prev_token(const std::string& text, std::size_t pos) {
    while (pos > 0 &&
           std::isspace(static_cast<unsigned char>(text[pos - 1]))) {
        --pos;
    }
    std::size_t end = pos;
    while (pos > 0 && is_ident(text[pos - 1])) --pos;
    return text.substr(pos, end - pos);
}

/// 1-based line number of `offset` via a precomputed newline index.
class LineIndex {
public:
    explicit LineIndex(const std::string& text) {
        for (std::size_t i = 0; i < text.size(); ++i) {
            if (text[i] == '\n') newlines_.push_back(i);
        }
    }
    int line_at(std::size_t offset) const {
        const auto it =
            std::lower_bound(newlines_.begin(), newlines_.end(), offset);
        return static_cast<int>(it - newlines_.begin()) + 1;
    }

private:
    std::vector<std::size_t> newlines_;
};

class FileLinter {
public:
    FileLinter(const std::string& path, const std::string& content,
               const std::vector<std::string>& registered,
               const std::vector<std::string>& registered_metrics,
               const Options& options, std::vector<Finding>* out)
        : path_(path),
          content_(content),
          code_(sanitize(content, /*keep_strings=*/true)),
          bare_(sanitize(content, /*keep_strings=*/false)),
          lines_(content),
          allows_(allow_markers(content)),
          registered_(registered),
          registered_metrics_(registered_metrics),
          options_(options),
          out_(out) {}

    void report(std::size_t offset, const std::string& rule,
                const std::string& message) {
        const int line = lines_.line_at(offset);
        if (is_suppressed(allows_, line, rule)) return;
        out_->push_back({path_, line, rule, message});
    }

    void check_fault_registry() {
        static const std::regex kCall(
            R"(\b(should_fail|arm_nan|set_fail_rate|fires)\s*\()");
        for (auto it = std::sregex_iterator(code_.begin(), code_.end(),
                                            kCall);
             it != std::sregex_iterator(); ++it) {
            // First string literal inside the call's parentheses (the
            // sanitizer kept literals). A call that passes a variable
            // has no literal here; the injector's runtime guard covers
            // that case.
            std::size_t pos = static_cast<std::size_t>(it->position()) +
                              it->length() - 1;
            int depth = 0;
            std::string literal;
            for (std::size_t i = pos; i < code_.size(); ++i) {
                const char c = code_[i];
                if (c == '(') ++depth;
                if (c == ')' && --depth == 0) break;
                if (c == '"') {
                    const std::size_t close = code_.find('"', i + 1);
                    if (close == std::string::npos) break;
                    literal = code_.substr(i + 1, close - i - 1);
                    break;
                }
            }
            if (literal.empty()) continue;
            if (std::find(registered_.begin(), registered_.end(),
                          literal) == registered_.end()) {
                report(static_cast<std::size_t>(it->position()),
                       "fault-registry",
                       "fault point \"" + literal +
                           "\" is not registered in " + options_.registry);
            }
        }
    }

    void check_metric_naming() {
        if (registered_metrics_.empty()) return;
        static const std::regex kCall(R"(\b(counter|gauge|histogram)\s*\()");
        for (auto it = std::sregex_iterator(code_.begin(), code_.end(),
                                            kCall);
             it != std::sregex_iterator(); ++it) {
            // First string literal inside the call's parentheses, same
            // extraction as fault-registry. Declarations and calls that
            // pass a variable carry no literal; the registry's runtime
            // guard covers those.
            std::size_t pos = static_cast<std::size_t>(it->position()) +
                              it->length() - 1;
            int depth = 0;
            std::string literal;
            for (std::size_t i = pos; i < code_.size(); ++i) {
                const char c = code_[i];
                if (c == '(') ++depth;
                if (c == ')' && --depth == 0) break;
                if (c == '"') {
                    const std::size_t close = code_.find('"', i + 1);
                    if (close == std::string::npos) break;
                    literal = code_.substr(i + 1, close - i - 1);
                    break;
                }
            }
            if (literal.empty()) continue;
            if (!valid_metric_name(literal)) {
                report(static_cast<std::size_t>(it->position()),
                       "metric-naming",
                       "metric name \"" + literal +
                           "\" does not match aero_<area>_<name>");
                continue;
            }
            if (std::find(registered_metrics_.begin(),
                          registered_metrics_.end(),
                          literal) == registered_metrics_.end()) {
                report(static_cast<std::size_t>(it->position()),
                       "metric-naming",
                       "metric \"" + literal +
                           "\" is not declared in " +
                           options_.metric_registry);
            }
        }
    }

    void check_pragma_once() {
        if (path_.size() < 4 ||
            path_.compare(path_.size() - 4, 4, ".hpp") != 0) {
            return;
        }
        if (code_.find("#pragma once") == std::string::npos) {
            report(0, "pragma-once",
                   "public header is missing #pragma once");
        }
    }

    void check_naked_new() {
        for (const std::string& allowed : options_.allow_new) {
            if (path_ == allowed) return;
        }
        static const std::regex kNewDelete(R"(\b(new|delete)\b)");
        for (auto it = std::sregex_iterator(bare_.begin(), bare_.end(),
                                            kNewDelete);
             it != std::sregex_iterator(); ++it) {
            const auto offset = static_cast<std::size_t>(it->position());
            const std::string token = (*it)[1].str();
            if (token == "delete") {
                // `= delete` declarations are not deallocations.
                if (prev_nonspace(bare_, offset) == '=') continue;
            } else {
                // `operator new` overloads are how ownership cores are
                // built, not naked allocations.
                if (prev_token(bare_, offset) == "operator") continue;
            }
            report(offset, "naked-new",
                   "naked `" + token +
                       "` outside the module-ownership core; use "
                       "std::make_unique / containers");
        }
    }

    void check_unchecked_parse() {
        for (const std::string& allowed : options_.allow_unchecked_parse) {
            if (path_ == allowed) return;
        }
        static const std::regex kParse(
            R"(\b(?:std\s*::\s*)?(stoi|stol|stoul|stoull|stoll|stod|stof|atoi|atol|atof|strtol|strtoul|strtod|strtof|sscanf)\s*\()");
        for (auto it = std::sregex_iterator(bare_.begin(), bare_.end(),
                                            kParse);
             it != std::sregex_iterator(); ++it) {
            report(static_cast<std::size_t>(it->position()),
                   "unchecked-parse",
                   "unchecked conversion `" + (*it)[1].str() +
                       "`; use util::parse_int / util::parse_double "
                       "(util/json.hpp)");
        }
    }

    void check_unchecked_io() {
        static const std::regex kIoCall(
            R"(\b(write_file|save_parameters|save_checkpoint)\s*\()");
        for (auto it = std::sregex_iterator(bare_.begin(), bare_.end(),
                                            kIoCall);
             it != std::sregex_iterator(); ++it) {
            const auto offset = static_cast<std::size_t>(it->position());
            // Statement prefix: everything after the last ; { or }.
            std::size_t start = bare_.find_last_of(";{}", offset);
            start = start == std::string::npos ? 0 : start + 1;
            const std::string prefix = bare_.substr(start, offset - start);
            // The value is consumed when the prefix assigns, negates,
            // nests the call in another call's argument list, or
            // returns it; a `bool` prefix is the helper's own
            // declaration/definition, not a call.
            if (prefix.find_first_of("=(!,?") != std::string::npos) {
                continue;
            }
            static const std::regex kConsumed(R"(\b(return|bool)\b)");
            if (std::regex_search(prefix, kConsumed)) continue;
            report(offset, "unchecked-io",
                   "ignored bool result of `" + (*it)[1].str() +
                       "`; a failed write must be handled, not dropped");
        }
    }

    void check_stats_accounting() {
        static const std::regex kStats(R"(\bstruct\s+(\w*Stats)\b)");
        for (auto it = std::sregex_iterator(bare_.begin(), bare_.end(),
                                            kStats);
             it != std::sregex_iterator(); ++it) {
            const auto start = static_cast<std::size_t>(it->position());
            const std::size_t open = bare_.find('{', start);
            if (open == std::string::npos) continue;  // fwd declaration
            int depth = 0;
            std::size_t close = open;
            for (std::size_t i = open; i < bare_.size(); ++i) {
                if (bare_[i] == '{') ++depth;
                if (bare_[i] == '}' && --depth == 0) {
                    close = i;
                    break;
                }
            }
            const std::string body = bare_.substr(open, close - open);
            static const std::regex kBalanced(R"(\bbalanced\s*\()");
            if (!std::regex_search(body, kBalanced)) continue;
            // The comment lives in the original text, not the
            // comment-stripped copy.
            const std::string raw = content_.substr(open, close - open);
            if (raw.find("accounting") == std::string::npos) {
                report(start, "stats-accounting",
                       "struct " + (*it)[1].str() +
                           " declares balanced() but its accounting "
                           "invariant comment is missing from the body");
            }
        }
    }

    void check_arena_bypass() {
        // Only the hot tensor-storage directories are constrained; a
        // std::vector<float> elsewhere (image rows, schedule tables) is
        // not arena-managed storage and stays idiomatic.
        bool covered = false;
        for (const std::string& dir : options_.arena_dirs) {
            if (path_.compare(0, dir.size(), dir) == 0 &&
                (path_.size() == dir.size() || path_[dir.size()] == '/')) {
                covered = true;
                break;
            }
        }
        if (!covered) return;
        static const std::regex kVecFloat(
            R"(\bstd\s*::\s*vector\s*<\s*float\s*>)");
        for (auto it = std::sregex_iterator(bare_.begin(), bare_.end(),
                                            kVecFloat);
             it != std::sregex_iterator(); ++it) {
            report(static_cast<std::size_t>(it->position()), "arena-bypass",
                   "float storage built on std::vector<float> bypasses "
                   "the caching arena; use mem::Buffer "
                   "(src/mem/arena.hpp)");
        }
    }

    void run(bool strict) {
        check_fault_registry();
        // IO results matter in benches/tests too — a bench that drops
        // its results JSON defeats the point of running it.
        check_unchecked_io();
        if (!strict) return;
        check_pragma_once();
        check_naked_new();
        check_unchecked_parse();
        check_stats_accounting();
        check_arena_bypass();
        // Strict-only: tests exercise hermetic local registries with
        // synthetic names, which the runtime pattern guard still covers.
        check_metric_naming();
    }

private:
    const std::string& path_;
    const std::string& content_;
    std::string code_;
    std::string bare_;
    LineIndex lines_;
    std::vector<std::pair<int, std::string>> allows_;
    const std::vector<std::string>& registered_;
    const std::vector<std::string>& registered_metrics_;
    const Options& options_;
    std::vector<Finding>* out_;
};

bool read_file(const fs::path& path, std::string* out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *out = buffer.str();
    return true;
}

bool lintable_extension(const fs::path& path) {
    const std::string ext = path.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

void scan_dir(const Options& options, const std::string& dir, bool strict,
              const std::vector<std::string>& registered,
              const std::vector<std::string>& registered_metrics,
              std::vector<Finding>* out) {
    const fs::path base = fs::path(options.root) / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) return;
    std::vector<fs::path> files;
    for (const auto& entry :
         fs::recursive_directory_iterator(base, ec)) {
        if (entry.is_regular_file() && lintable_extension(entry.path())) {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
        std::string content;
        if (!read_file(file, &content)) {
            out->push_back({file.generic_string(), 1, "io",
                            "cannot read file"});
            continue;
        }
        const std::string rel =
            fs::relative(file, options.root, ec).generic_string();
        FileLinter linter(rel, content, registered, registered_metrics,
                          options, out);
        linter.run(strict);
    }
}

}  // namespace

bool pass_enabled(const Options& options, const std::string& pass) {
    if (options.passes.empty()) return true;
    return std::find(options.passes.begin(), options.passes.end(), pass) !=
           options.passes.end();
}

int line_of(const std::string& text, std::size_t offset) {
    return LineIndex(text).line_at(offset);
}

std::vector<std::pair<int, std::string>> allow_markers(
    const std::string& content) {
    std::vector<std::pair<int, std::string>> markers;
    static const std::regex kMarker(R"(aero-lint:\s*allow\(([a-z-]+)\))");
    int line = 1;
    std::istringstream stream(content);
    std::string text;
    while (std::getline(stream, text)) {
        std::smatch match;
        if (std::regex_search(text, match, kMarker)) {
            markers.emplace_back(line, match[1].str());
        }
        ++line;
    }
    return markers;
}

bool is_suppressed(const std::vector<std::pair<int, std::string>>& markers,
                   int line, const std::string& rule) {
    for (const auto& marker : markers) {
        // A marker suppresses its own line and the next one, so a long
        // offending expression can carry the marker above it.
        if ((marker.first == line || marker.first == line - 1) &&
            marker.second == rule) {
            return true;
        }
    }
    return false;
}

bool read_file_text(const std::filesystem::path& path, std::string* out) {
    return read_file(path, out);
}

std::vector<std::string> list_source_files(const std::string& root,
                                           const std::string& dir) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;
    std::vector<std::string> files;
    if (!fs::is_directory(base, ec)) return files;
    for (const auto& entry :
         fs::recursive_directory_iterator(base, ec)) {
        if (entry.is_regular_file() && lintable_extension(entry.path())) {
            files.push_back(
                fs::relative(entry.path(), root, ec).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

const std::vector<RuleDoc>& rule_docs() {
    static const std::vector<RuleDoc> kDocs = {
        {"arena-bypass",
         "no std::vector<float> storage in the hot tensor dirs; float "
         "blocks go through mem::Buffer so the arena can recycle them"},
        {"det-random",
         "no rand()/srand()/random_device in output-affecting dirs; "
         "randomness goes through seeded util::Rng"},
        {"det-unordered-iter",
         "no iteration over unordered_map/unordered_set in "
         "output-affecting dirs (hash order leaks into results)"},
        {"det-wallclock",
         "no wall-clock reads (system_clock, time(), localtime, ...) in "
         "output-affecting dirs"},
        {"fault-docs",
         "every registered fault point is documented in DESIGN.md"},
        {"fault-registry",
         "every fault-point name at a should_fail/fires/arm_nan/"
         "set_fail_rate site is registered in util/fault_points.hpp"},
        {"layer-cycle",
         "the layer DAG declared in ARCH.layers must be acyclic"},
        {"layer-manifest",
         "ARCH.layers parses: '<module>: <deps...>' lines, deps declared"},
        {"layer-undeclared",
         "every module directory under src/ has an ARCH.layers entry"},
        {"layer-violation",
         "a file only #includes modules its layer may depend on "
         "(transitively) per ARCH.layers"},
        {"lock-order",
         "the approximate inter-procedural util::MutexLock graph "
         "(syntactic nesting + call edges) has no cycles"},
        {"metric-naming",
         "metric registration names match aero_<area>_<name> and are "
         "declared in src/obs/metric_names.hpp"},
        {"naked-new",
         "no naked new/delete outside the module-ownership core"},
        {"pragma-once", "every public header starts with #pragma once"},
        {"stats-accounting",
         "*Stats structs with balanced() keep the accounting comment "
         "beside the fields it constrains"},
        {"unchecked-io",
         "the bool from write_file/save_parameters/save_checkpoint is "
         "consumed, not dropped"},
        {"unchecked-parse",
         "no stoi/atoi/strtod & friends; use util::parse_int/"
         "parse_double"},
    };
    return kDocs;
}

std::string sanitize(const std::string& text, bool keep_strings) {
    enum class State {
        kCode,
        kLineComment,
        kBlockComment,
        kString,
        kChar,
        kRawString
    };
    std::string out = text;
    State state = State::kCode;
    std::string raw_delim;  // for )delim" raw-string termination
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
            case State::kCode:
                if (c == '/' && next == '/') {
                    state = State::kLineComment;
                    out[i] = ' ';
                } else if (c == '/' && next == '*') {
                    state = State::kBlockComment;
                    out[i] = ' ';
                } else if (c == '"' && i > 0 && text[i - 1] == 'R') {
                    // R"delim( ... )delim"
                    std::size_t paren = text.find('(', i + 1);
                    if (paren == std::string::npos) break;
                    raw_delim =
                        ")" + text.substr(i + 1, paren - i - 1) + "\"";
                    state = State::kRawString;
                } else if (c == '"') {
                    state = State::kString;
                } else if (c == '\'' && !is_ident(prev_nonspace(text, i))) {
                    // Identifier/digit before ' means a digit separator
                    // (1'000), not a character literal.
                    state = State::kChar;
                }
                break;
            case State::kLineComment:
                if (c == '\n') {
                    state = State::kCode;
                } else {
                    out[i] = ' ';
                }
                break;
            case State::kBlockComment:
                if (c == '*' && next == '/') {
                    out[i] = ' ';
                    out[i + 1] = ' ';
                    ++i;
                    state = State::kCode;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case State::kString:
                if (c == '\\') {
                    if (!keep_strings) {
                        out[i] = ' ';
                        if (next != '\n') out[i + 1] = ' ';
                    }
                    ++i;
                } else if (c == '"') {
                    state = State::kCode;
                } else if (!keep_strings && c != '\n') {
                    out[i] = ' ';
                }
                break;
            case State::kChar:
                if (c == '\\') {
                    if (!keep_strings) {
                        out[i] = ' ';
                        if (next != '\n') out[i + 1] = ' ';
                    }
                    ++i;
                } else if (c == '\'') {
                    state = State::kCode;
                } else if (!keep_strings && c != '\n') {
                    out[i] = ' ';
                }
                break;
            case State::kRawString:
                if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
                    i += raw_delim.size() - 1;
                    state = State::kCode;
                } else if (!keep_strings && c != '\n') {
                    out[i] = ' ';
                }
                break;
        }
    }
    return out;
}

std::vector<std::string> parse_registry(const std::string& registry_text) {
    std::vector<std::string> points;
    static const std::regex kEntry(R"(\{\s*"([A-Za-z0-9_]+)\")");
    for (auto it = std::sregex_iterator(registry_text.begin(),
                                        registry_text.end(), kEntry);
         it != std::sregex_iterator(); ++it) {
        points.push_back((*it)[1].str());
    }
    return points;
}

bool valid_metric_name(const std::string& name) {
    if (name.compare(0, 5, "aero_") != 0) return false;
    int segments = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= name.size(); ++i) {
        if (i == name.size() || name[i] == '_') {
            if (i > start) ++segments;
            start = i + 1;
            continue;
        }
        const char c = name[i];
        if ((c < 'a' || c > 'z') && (c < '0' || c > '9')) return false;
    }
    return segments >= 3;
}

void lint_file(const std::string& path, const std::string& content,
               const std::vector<std::string>& registered_points,
               const std::vector<std::string>& registered_metrics,
               const Options& options, bool strict,
               std::vector<Finding>* out) {
    FileLinter linter(path, content, registered_points, registered_metrics,
                      options, out);
    linter.run(strict);
}

std::vector<Finding> run_lint(const Options& options) {
    std::vector<Finding> findings;

    if (pass_enabled(options, "layering")) {
        run_layering(options, &findings);
    }
    if (pass_enabled(options, "lock-order")) {
        run_lockorder(options, &findings);
    }
    if (pass_enabled(options, "determinism")) {
        run_determinism(options, &findings);
    }
    if (!pass_enabled(options, "rules")) {
        std::sort(findings.begin(), findings.end(),
                  [](const Finding& a, const Finding& b) {
                      if (a.file != b.file) return a.file < b.file;
                      if (a.line != b.line) return a.line < b.line;
                      return a.rule < b.rule;
                  });
        return findings;
    }

    std::string registry_text;
    std::vector<std::string> registered;
    const fs::path registry_path = fs::path(options.root) / options.registry;
    if (!read_file(registry_path, &registry_text)) {
        findings.push_back({options.registry, 1, "fault-registry",
                            "cannot read fault-point registry"});
    } else {
        registered = parse_registry(registry_text);
        if (registered.empty()) {
            findings.push_back({options.registry, 1, "fault-registry",
                                "registry parsed to zero fault points"});
        }
    }

    std::vector<std::string> registered_metrics;
    if (!options.metric_registry.empty()) {
        std::string metric_text;
        const fs::path metric_path =
            fs::path(options.root) / options.metric_registry;
        if (!read_file(metric_path, &metric_text)) {
            findings.push_back({options.metric_registry, 1, "metric-naming",
                                "cannot read metric-name registry"});
        } else {
            registered_metrics = parse_registry(metric_text);
            if (registered_metrics.empty()) {
                findings.push_back(
                    {options.metric_registry, 1, "metric-naming",
                     "registry parsed to zero metric names"});
            }
        }
    }

    for (const std::string& dir : options.strict_dirs) {
        scan_dir(options, dir, /*strict=*/true, registered,
                 registered_metrics, &findings);
    }
    for (const std::string& dir : options.fault_dirs) {
        scan_dir(options, dir, /*strict=*/false, registered,
                 registered_metrics, &findings);
    }

    if (!options.design_doc.empty() && !registered.empty()) {
        std::string design_text;
        const fs::path design_path =
            fs::path(options.root) / options.design_doc;
        if (!read_file(design_path, &design_text)) {
            findings.push_back({options.design_doc, 1, "fault-docs",
                                "cannot read design doc"});
        } else {
            for (const std::string& point : registered) {
                if (design_text.find("\"" + point + "\"") ==
                    std::string::npos) {
                    findings.push_back(
                        {options.design_doc, 1, "fault-docs",
                         "registered fault point \"" + point +
                             "\" is not documented in " +
                             options.design_doc});
                }
            }
        }
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file) return a.file < b.file;
                  if (a.line != b.line) return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

}  // namespace aero::lint
