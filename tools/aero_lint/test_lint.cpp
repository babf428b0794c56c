// Unit tests for aero_lint: the sanitizer, the registry parser, each
// rule against inline snippets, and the end-to-end fixture trees
// (fixtures/good must pass, fixtures/bad must fail each rule).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using aero::lint::Finding;
using aero::lint::Options;

std::vector<Finding> lint_snippet(
    const std::string& path, const std::string& content,
    std::vector<std::string> registered = {"loss", "serve_transient"},
    std::vector<std::string> registered_metrics = {"aero_serve_ok_total",
                                                   "aero_pool_tasks"}) {
    std::vector<Finding> findings;
    Options options;
    aero::lint::lint_file(path, content, registered, registered_metrics,
                          options, /*strict=*/true, &findings);
    return findings;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
    return std::any_of(
        findings.begin(), findings.end(),
        [&](const Finding& finding) { return finding.rule == rule; });
}

TEST(Sanitize, BlanksCommentsPreservingLayout) {
    const std::string text = "int a; // new int\n/* delete */ int b;\n";
    const std::string out = aero::lint::sanitize(text, true);
    EXPECT_EQ(out.size(), text.size());
    EXPECT_EQ(out.find("new"), std::string::npos);
    EXPECT_EQ(out.find("delete"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("int b;"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Sanitize, KeepsOrBlanksStringLiterals) {
    const std::string text = "auto s = \"new delete stoi\"; char c = 'x';";
    const std::string kept = aero::lint::sanitize(text, true);
    EXPECT_NE(kept.find("new delete stoi"), std::string::npos);
    const std::string blanked = aero::lint::sanitize(text, false);
    EXPECT_EQ(blanked.find("stoi"), std::string::npos);
    EXPECT_EQ(blanked.size(), text.size());
}

TEST(Sanitize, HandlesDigitSeparatorsAndEscapes) {
    // The ' in 1'000 is a digit separator, not a char literal: the
    // trailing code must survive blanking.
    const std::string text = "int n = 1'000; int m = 2; char q = '\\''; int k;";
    const std::string out = aero::lint::sanitize(text, false);
    EXPECT_NE(out.find("int m = 2;"), std::string::npos);
    EXPECT_NE(out.find("int k;"), std::string::npos);
}

TEST(Sanitize, HandlesRawStrings) {
    const std::string text =
        "auto r = R\"(new delete // not a comment)\"; int after;";
    const std::string out = aero::lint::sanitize(text, false);
    EXPECT_EQ(out.find("delete"), std::string::npos);
    EXPECT_NE(out.find("int after;"), std::string::npos);
}

TEST(ParseRegistry, ExtractsPointNames) {
    const std::string registry = R"(
        inline constexpr FaultPoint kFaultPoints[] = {
            {"loss", "trainer"},
            {"serve_slow", "service worker stall"},
        };
    )";
    const auto points = aero::lint::parse_registry(registry);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0], "loss");
    EXPECT_EQ(points[1], "serve_slow");
}

TEST(Rules, FaultRegistryFlagsUnknownPoints) {
    const auto findings = lint_snippet(
        "src/a.cpp",
        "void f(I& i) { i.should_fail(\"loss\"); i.arm_nan(1, \"bogus\"); }");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "fault-registry");
    EXPECT_NE(findings[0].message.find("bogus"), std::string::npos);
}

TEST(Rules, FaultRegistryIgnoresCommentsAndDeclarations) {
    const auto findings = lint_snippet(
        "src/a.hpp",
        "#pragma once\n"
        "// i.should_fail(\"commented_bogus\")\n"
        "struct I { bool should_fail(const std::string& point); };\n");
    EXPECT_TRUE(findings.empty());
}

TEST(Rules, PragmaOnceRequiredInHeaders) {
    EXPECT_TRUE(has_rule(lint_snippet("src/a.hpp", "int x;\n"),
                         "pragma-once"));
    EXPECT_TRUE(lint_snippet("src/a.hpp", "#pragma once\nint x;\n").empty());
    // Not required in .cpp files.
    EXPECT_TRUE(lint_snippet("src/a.cpp", "int x;\n").empty());
    // A commented-out pragma does not count.
    EXPECT_TRUE(has_rule(
        lint_snippet("src/a.hpp", "// #pragma once\nint x;\n"),
        "pragma-once"));
}

TEST(Rules, NakedNewAndDelete) {
    EXPECT_TRUE(has_rule(
        lint_snippet("src/a.cpp", "int* p = new int(1);"), "naked-new"));
    EXPECT_TRUE(has_rule(lint_snippet("src/a.cpp", "void f(int* p) { delete p; }"),
                         "naked-new"));
    // `= delete`, operator new, and strings/comments are fine.
    EXPECT_TRUE(lint_snippet("src/a.cpp",
                             "struct S { S(const S&) = delete;\n"
                             "  S& operator=(const S&)\n      = delete; };\n"
                             "void* operator new(std::size_t);\n"
                             "// new in a comment\n"
                             "const char* s = \"new delete\";\n")
                    .empty());
    // The ownership core is exempt by path.
    EXPECT_TRUE(
        lint_snippet("src/nn/module.cpp", "int* p = new int(1);").empty());
    // Inline suppression works, on the same line or the line above.
    EXPECT_TRUE(lint_snippet("src/a.cpp",
                             "int* p = new int(1);  // aero-lint: "
                             "allow(naked-new)\n")
                    .empty());
    EXPECT_TRUE(lint_snippet("src/a.cpp",
                             "// aero-lint: allow(naked-new)\n"
                             "int* p = new int(1);\n")
                    .empty());
    // A marker for a different rule does not suppress.
    EXPECT_TRUE(has_rule(lint_snippet("src/a.cpp",
                                      "int* p = new int(1);  // aero-lint: "
                                      "allow(pragma-once)\n"),
                         "naked-new"));
}

TEST(Rules, UncheckedParseBanned) {
    EXPECT_TRUE(has_rule(
        lint_snippet("src/a.cpp", "int v = std::stoi(text);"),
        "unchecked-parse"));
    EXPECT_TRUE(has_rule(lint_snippet("src/a.cpp", "double d = atof(s);"),
                         "unchecked-parse"));
    // The checked-parser home is exempt.
    EXPECT_TRUE(
        lint_snippet("src/util/json.cpp", "int v = std::stoi(text);")
            .empty());
    // Words containing the token are not matches.
    EXPECT_TRUE(lint_snippet("src/a.cpp", "int histoire = custom_atoine(1);")
                    .empty());
}

TEST(Rules, UncheckedIoFlagsDroppedResults) {
    // The seed case: a bare statement dropping the bool.
    EXPECT_TRUE(has_rule(
        lint_snippet("src/a.cpp",
                     "void f(W& w) { w.write_file(\"x.json\"); }"),
        "unchecked-io"));
    EXPECT_TRUE(has_rule(
        lint_snippet("src/a.cpp",
                     "void f(M& m) { save_parameters(m, \"p.bin\"); }"),
        "unchecked-io"));
    EXPECT_TRUE(has_rule(
        lint_snippet("src/a.cpp",
                     "void f(P& p) { p.save_checkpoint(\"c\", 1); }"),
        "unchecked-io"));
}

TEST(Rules, UncheckedIoAcceptsConsumedResults) {
    // Branching, assignment, returning, or nesting in another call all
    // consume the value; declarations/definitions are not calls.
    EXPECT_TRUE(lint_snippet("src/a.cpp",
                             "bool f(W& w) {\n"
                             "  if (!w.write_file(\"x\")) return false;\n"
                             "  const bool ok = w.write_file(\"y\");\n"
                             "  check(w.write_file(\"z\"));\n"
                             "  return ok && w.write_file(\"w\");\n"
                             "}\n")
                    .empty());
    EXPECT_TRUE(lint_snippet("src/a.hpp",
                             "#pragma once\n"
                             "bool write_file(const std::string& path);\n")
                    .empty());
    // Inline suppression works as for every rule.
    EXPECT_TRUE(lint_snippet("src/a.cpp",
                             "void f(W& w) {\n"
                             "  // aero-lint: allow(unchecked-io)\n"
                             "  w.write_file(\"best-effort.json\");\n"
                             "}\n")
                    .empty());
}

TEST(Rules, UncheckedIoRunsInNonStrictDirs) {
    // Benches/tests are fault_dirs (strict=false); the IO rule still
    // applies there — bench_common.hpp was the original offender.
    std::vector<Finding> findings;
    Options options;
    aero::lint::lint_file("bench/b.cpp",
                          "void f(W& w) { w.write_file(\"r.json\"); }",
                          {"loss"}, {}, options, /*strict=*/false,
                          &findings);
    EXPECT_TRUE(has_rule(findings, "unchecked-io"));
}

TEST(Rules, StatsAccountingComment) {
    const std::string bad =
        "struct FooStats {\n"
        "  long long in = 0;\n"
        "  long long out = 0;\n"
        "  bool balanced() const { return in == out; }\n"
        "};\n";
    EXPECT_TRUE(has_rule(lint_snippet("src/a.hpp", "#pragma once\n" + bad),
                         "stats-accounting"));
    const std::string good =
        "struct FooStats {\n"
        "  long long in = 0;\n"
        "  long long out = 0;\n"
        "  /// The accounting invariant: in == out after drain.\n"
        "  bool balanced() const { return in == out; }\n"
        "};\n";
    EXPECT_TRUE(lint_snippet("src/a.hpp", "#pragma once\n" + good).empty());
    // Stats structs without a balanced() invariant are unconstrained.
    EXPECT_TRUE(lint_snippet("src/a.hpp",
                             "#pragma once\nstruct BarStats { int n; };\n")
                    .empty());
}

TEST(Rules, ArenaBypassFlagsVectorFloatInHotDirs) {
    // std::vector<float> in an arena dir is flagged, spacing-insensitive.
    EXPECT_TRUE(has_rule(
        lint_snippet("src/tensor/t.cpp", "std::vector<float> data_;"),
        "arena-bypass"));
    EXPECT_TRUE(has_rule(
        lint_snippet("src/autograd/v.cpp",
                     "std :: vector < float > grad(n);"),
        "arena-bypass"));
    // Outside the arena dirs — including prefix near-misses — the
    // idiom is fine; so are other element types and comments/strings.
    EXPECT_TRUE(
        lint_snippet("src/image/i.cpp", "std::vector<float> rows;").empty());
    EXPECT_TRUE(lint_snippet("src/tensorboard/t.cpp",
                             "std::vector<float> rows;")
                    .empty());
    EXPECT_TRUE(lint_snippet("src/tensor/t.cpp",
                             "std::vector<double> accum;\n"
                             "// std::vector<float> in a comment\n"
                             "const char* s = \"std::vector<float>\";\n")
                    .empty());
    // The interop boundary carries the usual inline suppression.
    EXPECT_TRUE(lint_snippet("src/tensor/t.cpp",
                             "// aero-lint: allow(arena-bypass)\n"
                             "std::vector<float> to_vector() const;\n")
                    .empty());
}

TEST(Rules, MetricNamingPattern) {
    EXPECT_TRUE(aero::lint::valid_metric_name("aero_serve_ok_total"));
    EXPECT_TRUE(aero::lint::valid_metric_name("aero_pool_queue_wait_ms"));
    EXPECT_FALSE(aero::lint::valid_metric_name("serve_ok_total"));
    EXPECT_FALSE(aero::lint::valid_metric_name("aero_serve"));  // 2 segments
    EXPECT_FALSE(aero::lint::valid_metric_name("aero_Serve_ok"));
    EXPECT_FALSE(aero::lint::valid_metric_name("aero_serve_ok-total"));
    EXPECT_FALSE(aero::lint::valid_metric_name("aero__serve"));
}

TEST(Rules, MetricNamingFlagsPatternAndRegistryViolations) {
    // Malformed name.
    auto findings = lint_snippet(
        "src/a.cpp", "void f(R& r) { r.counter(\"requestCount\", \"h\"); }");
    ASSERT_TRUE(has_rule(findings, "metric-naming"));
    // Well-formed but undeclared.
    findings = lint_snippet(
        "src/a.cpp",
        "void f(R& r) { r.gauge(\"aero_serve_bogus_depth\", \"h\"); }");
    EXPECT_TRUE(has_rule(findings, "metric-naming"));
    // Declared names pass, for all three registration kinds.
    EXPECT_TRUE(lint_snippet("src/a.cpp",
                             "void f(R& r) {\n"
                             "  r.counter(\"aero_serve_ok_total\", \"h\");\n"
                             "  r.histogram(\"aero_pool_tasks\", \"h\", b);\n"
                             "}\n")
                    .empty());
    // Declarations (no literal) and suppressions are quiet.
    EXPECT_TRUE(lint_snippet("src/a.hpp",
                             "#pragma once\n"
                             "Counter& counter(const char* name);\n")
                    .empty());
    EXPECT_TRUE(lint_snippet("src/a.cpp",
                             "// aero-lint: allow(metric-naming)\n"
                             "void f(R& r) { r.counter(\"bad\", \"h\"); }\n")
                    .empty());
    // An empty metric table disables the rule (local-registry mode).
    std::vector<Finding> none;
    Options options;
    aero::lint::lint_file("src/a.cpp",
                          "void f(R& r) { r.counter(\"bad\", \"h\"); }",
                          {"loss"}, {}, options, /*strict=*/true, &none);
    EXPECT_FALSE(has_rule(none, "metric-naming"));
}

// ---- fixture trees ----------------------------------------------------------

Options fixture_options(const std::string& which) {
    Options options;
    options.root = std::string(AERO_LINT_FIXTURE_DIR) + "/" + which;
    options.strict_dirs = {"src"};
    options.fault_dirs = {};
    options.registry = "registry.hpp";
    options.metric_registry = "metric_registry.hpp";
    options.design_doc = "DESIGN.md";
    return options;
}

TEST(Fixtures, GoodTreeIsClean) {
    const auto findings = aero::lint::run_lint(fixture_options("good"));
    for (const auto& finding : findings) {
        ADD_FAILURE() << finding.file << ":" << finding.line << " ["
                      << finding.rule << "] " << finding.message;
    }
}

TEST(Fixtures, BadTreeTripsEveryRule) {
    const auto findings = aero::lint::run_lint(fixture_options("bad"));
    EXPECT_TRUE(has_rule(findings, "fault-registry"));
    EXPECT_TRUE(has_rule(findings, "fault-docs"));
    EXPECT_TRUE(has_rule(findings, "pragma-once"));
    EXPECT_TRUE(has_rule(findings, "naked-new"));
    EXPECT_TRUE(has_rule(findings, "unchecked-parse"));
    EXPECT_TRUE(has_rule(findings, "unchecked-io"));
    EXPECT_TRUE(has_rule(findings, "stats-accounting"));
    EXPECT_TRUE(has_rule(findings, "arena-bypass"));
    // Both unregistered points are reported with their names.
    int unregistered = 0;
    for (const auto& finding : findings) {
        if (finding.rule == "fault-registry") ++unregistered;
    }
    EXPECT_EQ(unregistered, 2);
    // All three metric violations (bad pattern + two undeclared, one
    // from the mem-layer families) are reported.
    int metric_findings = 0;
    for (const auto& finding : findings) {
        if (finding.rule == "metric-naming") ++metric_findings;
    }
    EXPECT_EQ(metric_findings, 3);
}

}  // namespace
