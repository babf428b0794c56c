// Unit tests for the cross-file passes (layering, lock-order,
// determinism) and the JSON report. The per-line rules are covered in
// test_lint.cpp; the fixture trees under fixtures/{layering,lockorder,
// determinism}/ are the integration half of each pass.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "determinism.hpp"
#include "layering.hpp"
#include "lint.hpp"
#include "lockorder.hpp"
#include "report.hpp"

namespace {

using aero::lint::Finding;
using aero::lint::Options;

bool has_rule(const std::vector<Finding>& findings,
              const std::string& rule) {
    return std::any_of(findings.begin(), findings.end(),
                       [&rule](const Finding& finding) {
                           return finding.rule == rule;
                       });
}

int count_rule(const std::vector<Finding>& findings,
               const std::string& rule) {
    return static_cast<int>(
        std::count_if(findings.begin(), findings.end(),
                      [&rule](const Finding& finding) {
                          return finding.rule == rule;
                      }));
}

std::string all_messages(const std::vector<Finding>& findings) {
    std::string joined;
    for (const Finding& finding : findings) {
        joined += finding.message;
        joined += '\n';
    }
    return joined;
}

Options fixture_pass_options(const std::string& tree,
                             const std::string& pass) {
    Options options;
    options.root = std::string(AERO_LINT_FIXTURE_DIR) + "/" + tree;
    options.passes = {pass};
    return options;
}

// ---- pass selection ---------------------------------------------------------

TEST(Passes, EmptyFilterEnablesEverything) {
    const Options options;
    EXPECT_TRUE(aero::lint::pass_enabled(options, "rules"));
    EXPECT_TRUE(aero::lint::pass_enabled(options, "layering"));
    EXPECT_TRUE(aero::lint::pass_enabled(options, "lock-order"));
    EXPECT_TRUE(aero::lint::pass_enabled(options, "determinism"));
}

TEST(Passes, FilterSelectsOnlyNamedPasses) {
    Options options;
    options.passes = {"layering", "determinism"};
    EXPECT_TRUE(aero::lint::pass_enabled(options, "layering"));
    EXPECT_TRUE(aero::lint::pass_enabled(options, "determinism"));
    EXPECT_FALSE(aero::lint::pass_enabled(options, "rules"));
    EXPECT_FALSE(aero::lint::pass_enabled(options, "lock-order"));
}

// ---- layering: manifest -----------------------------------------------------

TEST(Layering, ManifestParsesGrammarAndReportsErrors) {
    std::vector<Finding> findings;
    const std::string text =
        "# comment line\n"
        "\n"
        "util:\n"
        "obs: util   # trailing comment\n"
        "core: obs util\n"
        "not a manifest line\n"
        "Bad$name: util\n"
        "obs: util\n"
        "serve: ghost\n";
    const auto manifest =
        aero::lint::parse_layer_manifest(text, "ARCH.layers", &findings);

    const std::vector<std::string> expected = {"util", "obs", "core",
                                               "serve"};
    EXPECT_EQ(manifest.modules, expected);
    ASSERT_NE(manifest.deps.find("core"), manifest.deps.end());
    const std::vector<std::string> core_deps = {"obs", "util"};
    EXPECT_EQ(manifest.deps.at("core"), core_deps);

    // Malformed line, invalid name, duplicate entry, undeclared dep.
    EXPECT_EQ(count_rule(findings, "layer-manifest"), 4);
    EXPECT_NE(all_messages(findings).find("ghost"), std::string::npos);
}

TEST(Layering, ClosureIsTransitiveAndExcludesSelf) {
    std::vector<Finding> findings;
    const auto manifest = aero::lint::parse_layer_manifest(
        "a: b\nb: c\nc:\n", "ARCH.layers", &findings);
    EXPECT_TRUE(findings.empty());
    const std::set<std::string> expected = {"b", "c"};
    EXPECT_EQ(aero::lint::layer_closure(manifest, "a"), expected);
    EXPECT_TRUE(aero::lint::layer_closure(manifest, "c").empty());
}

TEST(Layering, ClosureTerminatesOnCyclicInput) {
    std::vector<Finding> findings;
    const auto manifest = aero::lint::parse_layer_manifest(
        "a: b\nb: a\n", "ARCH.layers", &findings);
    const std::set<std::string> expected = {"b"};
    EXPECT_EQ(aero::lint::layer_closure(manifest, "a"), expected);
}

TEST(Layering, CycleInDeclaredGraphReported) {
    std::vector<Finding> findings;
    const auto manifest = aero::lint::parse_layer_manifest(
        "a: b\nb: a\n", "ARCH.layers", &findings);
    aero::lint::check_layer_cycles(manifest, "ARCH.layers", &findings);
    ASSERT_EQ(count_rule(findings, "layer-cycle"), 1);
    EXPECT_NE(all_messages(findings).find("a -> b -> a"),
              std::string::npos);
}

TEST(Layering, MissingManifestIsAFinding) {
    // The determinism fixture tree has no ARCH.layers.
    const auto findings = aero::lint::run_lint(
        fixture_pass_options("determinism/good", "layering"));
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layer-manifest");
    EXPECT_NE(findings[0].message.find("cannot read"), std::string::npos);
}

// ---- layering: fixture trees ------------------------------------------------

TEST(Layering, GoodTreeIsCleanIncludingSuppressedEdge) {
    const auto findings = aero::lint::run_lint(
        fixture_pass_options("layering/good", "layering"));
    for (const auto& finding : findings) {
        ADD_FAILURE() << finding.file << ":" << finding.line << " ["
                      << finding.rule << "] " << finding.message;
    }
}

TEST(Layering, BadTreeTripsCycleViolationAndUndeclared) {
    const auto findings = aero::lint::run_lint(
        fixture_pass_options("layering/bad", "layering"));
    EXPECT_EQ(count_rule(findings, "layer-cycle"), 1);
    EXPECT_EQ(count_rule(findings, "layer-undeclared"), 1);
    EXPECT_EQ(count_rule(findings, "layer-violation"), 1);
    EXPECT_EQ(findings.size(), 3u);
    for (const auto& finding : findings) {
        if (finding.rule == "layer-violation") {
            // The deliberate upward edge: util includes serve.
            EXPECT_EQ(finding.file, "src/util/upward.cpp");
            EXPECT_NE(finding.message.find("serve/server.hpp"),
                      std::string::npos);
            EXPECT_GT(finding.line, 1);
        }
        if (finding.rule == "layer-undeclared") {
            EXPECT_EQ(finding.file, "src/rogue");
        }
    }
}

// ---- lock-order: fact extraction --------------------------------------------

TEST(LockOrder, ExtractsMemberLocksNestingAndHeldCalls) {
    const std::string content =
        "class Queue {\n"
        " public:\n"
        "  void push() {\n"
        "    util::MutexLock head(head_mu_);\n"
        "    util::MutexLock tail(tail_mu_);\n"
        "    notify_all();\n"
        "  }\n"
        "};\n";
    const auto facts =
        aero::lint::extract_lock_facts("src/core/queue.cpp", content);

    ASSERT_EQ(facts.functions.size(), 1u);
    EXPECT_EQ(facts.functions[0].key, "src/core/queue.cpp|push");
    EXPECT_EQ(facts.functions[0].cls, "Queue");
    const std::vector<std::string> expected_locks = {"Queue::head_mu_",
                                                     "Queue::tail_mu_"};
    EXPECT_EQ(facts.functions[0].locks, expected_locks);

    ASSERT_EQ(facts.nesting_edges.size(), 1u);
    EXPECT_EQ(facts.nesting_edges[0].from, "Queue::head_mu_");
    EXPECT_EQ(facts.nesting_edges[0].to, "Queue::tail_mu_");
    EXPECT_EQ(facts.nesting_edges[0].via, "nested acquisition");
    EXPECT_EQ(facts.nesting_edges[0].line, 5);

    // notify_all() runs under both held locks.
    ASSERT_EQ(facts.held_calls.size(), 2u);
    EXPECT_EQ(facts.held_calls[0].call.base, "notify_all");
    EXPECT_EQ(facts.held_calls[0].caller_cls, "Queue");
}

TEST(LockOrder, FreeFunctionLocalMutexGetsFileScopedId) {
    const std::string content =
        "util::Mutex g_mu;\n"
        "void tick() {\n"
        "  util::MutexLock l(g_mu);\n"
        "}\n";
    const auto facts =
        aero::lint::extract_lock_facts("src/util/timer.cpp", content);
    ASSERT_EQ(facts.functions.size(), 1u);
    const std::vector<std::string> expected = {"timer:tick::g_mu"};
    EXPECT_EQ(facts.functions[0].locks, expected);
}

TEST(LockOrder, QualifiedCallCarriesClassHint) {
    const std::string content =
        "void f(util::Mutex& mu) {\n"
        "  util::MutexLock l(mu);\n"
        "  Registry::instance();\n"
        "}\n";
    const auto facts =
        aero::lint::extract_lock_facts("src/core/reg.cpp", content);
    ASSERT_EQ(facts.held_calls.size(), 1u);
    EXPECT_EQ(facts.held_calls[0].call.kind,
              aero::lint::LockCall::kQualified);
    EXPECT_EQ(facts.held_calls[0].call.cls_hint, "Registry");
}

TEST(LockOrder, AllowMarkerSuppressesNestingEdge) {
    const std::string content =
        "class S {\n"
        "  void f() {\n"
        "    util::MutexLock a(a_);\n"
        "    // aero-lint: allow(lock-order)\n"
        "    util::MutexLock b(b_);\n"
        "  }\n"
        "  util::Mutex a_;\n"
        "  util::Mutex b_;\n"
        "};\n";
    const auto facts =
        aero::lint::extract_lock_facts("src/core/s.cpp", content);
    EXPECT_TRUE(facts.nesting_edges.empty());
}

// ---- lock-order: cycle detection --------------------------------------------

TEST(LockOrder, LexicalInversionWithinOneFileIsACycle) {
    const std::string content =
        "class Inverted {\n"
        "  void forward() {\n"
        "    util::MutexLock la(a_);\n"
        "    util::MutexLock lb(b_);\n"
        "  }\n"
        "  void backward() {\n"
        "    util::MutexLock lb(b_);\n"
        "    util::MutexLock la(a_);\n"
        "  }\n"
        "  util::Mutex a_;\n"
        "  util::Mutex b_;\n"
        "};\n";
    std::vector<Finding> findings;
    aero::lint::check_lock_cycles(
        {aero::lint::extract_lock_facts("src/core/i.cpp", content)},
        &findings);
    ASSERT_EQ(count_rule(findings, "lock-order"), 1);
    EXPECT_NE(findings[0].message.find(
                  "\"Inverted::a_\" -> \"Inverted::b_\""),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("nested acquisition"),
              std::string::npos);
}

TEST(LockOrder, SelfReacquisitionReportedOnce) {
    const std::string content =
        "class R {\n"
        "  void f() {\n"
        "    util::MutexLock a(mu_);\n"
        "    util::MutexLock b(mu_);\n"
        "  }\n"
        "  util::Mutex mu_;\n"
        "};\n";
    std::vector<Finding> findings;
    aero::lint::check_lock_cycles(
        {aero::lint::extract_lock_facts("src/core/r.cpp", content)},
        &findings);
    ASSERT_EQ(count_rule(findings, "lock-order"), 1);
    EXPECT_NE(findings[0].message.find("self-deadlock"),
              std::string::npos);
}

TEST(LockOrder, MayLockClosesOverNonLockingIntermediates) {
    // outer holds first_ and reaches second_ only through two
    // non-locking hops; flip holds second_ and locks first_ directly.
    const std::string content =
        "class Deep {\n"
        "  void outer() { util::MutexLock l(first_); hop(); }\n"
        "  void hop() { skip(); }\n"
        "  void skip() { jump(); }\n"
        "  void jump() { util::MutexLock l(second_); }\n"
        "  void flip() { util::MutexLock l(second_); grab_first(); }\n"
        "  void grab_first() { util::MutexLock l(first_); }\n"
        "  util::Mutex first_;\n"
        "  util::Mutex second_;\n"
        "};\n";
    std::vector<Finding> findings;
    aero::lint::check_lock_cycles(
        {aero::lint::extract_lock_facts("src/core/d.cpp", content)},
        &findings);
    ASSERT_EQ(count_rule(findings, "lock-order"), 1);
    EXPECT_NE(findings[0].message.find("call to hop"), std::string::npos);
}

// ---- lock-order: fixture trees ----------------------------------------------

TEST(LockOrder, GoodTreeIsClean) {
    const auto findings = aero::lint::run_lint(
        fixture_pass_options("lockorder/good", "lock-order"));
    for (const auto& finding : findings) {
        ADD_FAILURE() << finding.file << ":" << finding.line << " ["
                      << finding.rule << "] " << finding.message;
    }
}

TEST(LockOrder, BadTreeReportsBothCycles) {
    const auto findings = aero::lint::run_lint(
        fixture_pass_options("lockorder/bad", "lock-order"));
    EXPECT_EQ(count_rule(findings, "lock-order"), 2);
    const std::string joined = all_messages(findings);
    // The lexical inversion and the inter-procedural one.
    EXPECT_NE(joined.find("Inverted::a_"), std::string::npos);
    EXPECT_NE(joined.find("Chain::head_"), std::string::npos);
}

// ---- determinism ------------------------------------------------------------

std::vector<Finding> det_snippet(const std::string& content) {
    std::vector<Finding> findings;
    aero::lint::determinism_file("src/tensor/t.cpp", content, &findings);
    return findings;
}

TEST(Determinism, RandomSourcesFlagged) {
    EXPECT_TRUE(has_rule(det_snippet("int x = rand();"), "det-random"));
    EXPECT_TRUE(has_rule(det_snippet("void f() { srand(42); }"),
                         "det-random"));
    EXPECT_TRUE(has_rule(det_snippet("std::random_device rd;"),
                         "det-random"));
}

TEST(Determinism, RandomNearMissesAndMembersPass) {
    // Tensor::randn is the seeded library entry point, not rand().
    EXPECT_TRUE(det_snippet("auto t = Tensor::randn(shape, rng);").empty());
    // Member calls are whatever the object defines, not libc.
    EXPECT_TRUE(det_snippet("int x = cfg.rand();").empty());
    EXPECT_TRUE(det_snippet("int x = gen->rand();").empty());
    // Strings and comments are sanitized away.
    EXPECT_TRUE(det_snippet("const char* s = \"rand()\";  // rand()\n")
                    .empty());
}

TEST(Determinism, WallclockReadsFlagged) {
    EXPECT_TRUE(has_rule(
        det_snippet("auto t = std::chrono::system_clock::now();"),
        "det-wallclock"));
    EXPECT_TRUE(has_rule(det_snippet("time_t t = time(nullptr);"),
                         "det-wallclock"));
    EXPECT_TRUE(has_rule(det_snippet("double d = clock();"),
                         "det-wallclock"));
    EXPECT_TRUE(has_rule(det_snippet("auto* tm = localtime(&t);"),
                         "det-wallclock"));
}

TEST(Determinism, SteadyClockAndInjectedClockPass) {
    EXPECT_TRUE(
        det_snippet("auto t = std::chrono::steady_clock::now();").empty());
    EXPECT_TRUE(det_snippet("long long t = clk.time();").empty());
    EXPECT_TRUE(det_snippet("long long t = clk->clock();").empty());
    // A declaration with parameters is not the libc call.
    EXPECT_TRUE(det_snippet("long long time(int channel);").empty());
}

TEST(Determinism, UnorderedIterationFlagged) {
    const std::string range_for =
        "std::unordered_map<std::string, int> weights;\n"
        "int f() {\n"
        "  int total = 0;\n"
        "  for (const auto& entry : weights) total += entry.second;\n"
        "  return total;\n"
        "}\n";
    EXPECT_TRUE(has_rule(det_snippet(range_for), "det-unordered-iter"));
    const std::string explicit_iter =
        "void g(const std::unordered_set<int>& ids) {\n"
        "  for (auto it = ids.begin(); it != ids.end(); ++it) use(*it);\n"
        "}\n";
    EXPECT_TRUE(has_rule(det_snippet(explicit_iter),
                         "det-unordered-iter"));
}

TEST(Determinism, OrderedIterationAndLookupsPass) {
    EXPECT_TRUE(det_snippet("std::map<std::string, int> m;\n"
                            "int f() {\n"
                            "  int t = 0;\n"
                            "  for (const auto& e : m) t += e.second;\n"
                            "  return t;\n"
                            "}\n")
                    .empty());
    // Point lookups on unordered containers are order-independent.
    EXPECT_TRUE(det_snippet("std::unordered_map<int, int> m;\n"
                            "int f(int k) { return m.count(k); }\n")
                    .empty());
}

TEST(Determinism, AllowMarkerSuppresses) {
    EXPECT_TRUE(det_snippet("// aero-lint: allow(det-random)\n"
                            "int x = rand();\n")
                    .empty());
    // A marker for another rule does not.
    EXPECT_TRUE(has_rule(det_snippet("// aero-lint: allow(det-wallclock)\n"
                                     "int x = rand();\n"),
                         "det-random"));
}

// ---- determinism: fixture trees ---------------------------------------------

Options det_fixture_options(const std::string& which) {
    Options options =
        fixture_pass_options("determinism/" + which, "determinism");
    options.determinism_dirs = {"src"};
    return options;
}

TEST(Determinism, GoodTreeIsClean) {
    const auto findings =
        aero::lint::run_lint(det_fixture_options("good"));
    for (const auto& finding : findings) {
        ADD_FAILURE() << finding.file << ":" << finding.line << " ["
                      << finding.rule << "] " << finding.message;
    }
}

TEST(Determinism, BadTreeTripsEveryRule) {
    const auto findings =
        aero::lint::run_lint(det_fixture_options("bad"));
    // srand, random_device, rand — the suppressed rand() is excluded.
    EXPECT_EQ(count_rule(findings, "det-random"), 3);
    // system_clock and time(nullptr).
    EXPECT_EQ(count_rule(findings, "det-wallclock"), 2);
    // One range-for and one .begin() walk.
    EXPECT_EQ(count_rule(findings, "det-unordered-iter"), 2);
}

// ---- JSON report ------------------------------------------------------------

TEST(Report, CleanReportShape) {
    const std::string json = aero::lint::render_json_report({});
    EXPECT_NE(json.find("\"tool\": \"aero_lint\""), std::string::npos);
    EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
    EXPECT_NE(json.find("\"finding_count\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

TEST(Report, FindingsSerializedWithEscapesAndCounts) {
    const std::vector<Finding> findings = {
        {"src/a.cpp", 3, "lock-order", "cycle \"A\" -> \"B\""},
        {"src/b.cpp", 7, "det-random", "path\\x\nnext"},
        {"src/c.cpp", 1, "lock-order", "x"},
    };
    const std::string json = aero::lint::render_json_report(findings);
    EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
    EXPECT_NE(json.find("\"finding_count\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"lock-order\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"det-random\": 1"), std::string::npos);
    EXPECT_NE(json.find("cycle \\\"A\\\" -> \\\"B\\\""),
              std::string::npos);
    EXPECT_NE(json.find("path\\\\x\\nnext"), std::string::npos);
    EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
}

TEST(Report, WriteRoundTripsAndFailsOnBadPath) {
    const std::vector<Finding> findings = {
        {"src/a.cpp", 1, "det-random", "rand()"}};
    const auto path = std::filesystem::temp_directory_path() /
                      "aero_lint_test_report.json";
    ASSERT_TRUE(aero::lint::write_json_report(path.string(), findings));
    std::ifstream in(path);
    const std::string loaded((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    EXPECT_EQ(loaded, aero::lint::render_json_report(findings));
    std::filesystem::remove(path);

    EXPECT_FALSE(aero::lint::write_json_report(
        "/nonexistent-dir-for-aero-lint/report.json", findings));
}

// ---- rule table -------------------------------------------------------------

TEST(RuleTable, SortedUniqueAndComplete) {
    const auto& docs = aero::lint::rule_docs();
    EXPECT_EQ(docs.size(), 17u);
    std::set<std::string> names;
    for (std::size_t i = 0; i < docs.size(); ++i) {
        names.insert(docs[i].name);
        EXPECT_FALSE(std::string(docs[i].summary).empty());
        if (i + 1 < docs.size()) {
            EXPECT_LT(std::string(docs[i].name),
                      std::string(docs[i + 1].name));
        }
    }
    for (const char* required :
         {"arena-bypass", "det-random", "det-unordered-iter", "det-wallclock",
          "fault-docs", "fault-registry", "layer-cycle", "layer-manifest",
          "layer-undeclared", "layer-violation", "lock-order",
          "metric-naming", "naked-new", "pragma-once", "stats-accounting",
          "unchecked-io", "unchecked-parse"}) {
        EXPECT_EQ(names.count(required), 1u) << required;
    }
}

}  // namespace
