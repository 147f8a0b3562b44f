// fpr-lint rule fixtures: every invariant rule gets at least one
// known-bad snippet proving it fires, a scoping case proving it stays
// inside its directory scope, and a suppression case proving the
// `// fpr-lint: allow(rule)` escape hatch works. These are the tests
// that keep the linter honest — the CTest gate over the real src/ and
// tools/ trees (test `fpr_lint_src`) only proves they are clean, not that
// the rules still detect anything.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint_core.hpp"

namespace {

using fpr::lint::Finding;
using fpr::lint::lint_source;
using fpr::lint::lint_sources;
using fpr::lint::SourceFile;

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

bool fired(const std::vector<Finding>& findings, const std::string& rule) {
  const auto rules = rules_of(findings);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

TEST(LintRules, CatalogueIsStableAndDescribed) {
  const auto names = fpr::lint::rule_names();
  const std::vector<std::string> expected = {
      "nondeterministic-call",  "non-const-global",
      "naked-new",              "pragma-once",
      "layer-violation",        "include-cycle",
      "odr-header-def",         "shared-mutable-capture",
      "bare-exit-code",         "stale-suppression"};
  EXPECT_EQ(names, expected);
  for (const auto& n : names) {
    EXPECT_FALSE(fpr::lint::rule_description(n).empty()) << n;
  }
  EXPECT_THROW((void)fpr::lint::rule_description("no-such-rule"),
               std::invalid_argument);
}

TEST(LintRules, UnknownEnabledRuleThrows) {
  EXPECT_THROW((void)lint_source("src/a.cpp", "int x;", {"bogus-rule"}),
               std::invalid_argument);
}

// -- nondeterministic-call -------------------------------------------------

TEST(NondeterministicCall, FiresOnEachBannedPattern) {
  const char* bad[] = {
      "int f() { return rand(); }\n",
      "void f() { srand(42); }\n",
      "std::random_device rd;\n",
      "auto t0 = std::chrono::steady_clock::now();\n",
      "auto t1 = std::chrono::system_clock::to_time_t(x);\n",
      "long f() { return time(nullptr); }\n",
      "void f() { WallTimer t; }\n",
  };
  for (const char* text : bad) {
    EXPECT_TRUE(fired(lint_source("src/memsim/gen.cpp", text),
                      "nondeterministic-call"))
        << text;
  }
}

TEST(NondeterministicCall, ScopedToDeterminismSensitiveDirs) {
  const std::string text = "auto t = std::chrono::steady_clock::now();\n";
  // src/io is in scope too: trace/results codecs feed the deterministic
  // pipeline (digests, golden snapshots) and must not read clocks.
  for (const char* dir : {"src/memsim/", "src/model/", "src/study/",
                          "src/arch/", "src/io/"}) {
    EXPECT_TRUE(fired(lint_source(std::string(dir) + "x.cpp", text),
                      "nondeterministic-call"))
        << dir;
  }
  // Kernel self-timing is the measured quantity; common/ holds the timer.
  EXPECT_FALSE(fired(lint_source("src/kernels/hpl.cpp", text),
                     "nondeterministic-call"));
  EXPECT_FALSE(fired(lint_source("src/common/timer.hpp", text),
                     "nondeterministic-call"));
}

TEST(NondeterministicCall, CommentAndStringMentionsDoNotFire) {
  const auto f = lint_source("src/memsim/gen.cpp",
                             "// rand() is forbidden here\n"
                             "const char* kDoc = \"rand()\";\n");
  EXPECT_FALSE(fired(f, "nondeterministic-call"));
}

TEST(NondeterministicCall, SeededHelpersAndTimeLikeNamesAreFine) {
  const auto f = lint_source(
      "src/study/sweep.cpp",
      "double solve_time(int n);\n"
      "void f() { Xoshiro256 rng(seed); double t = solve_time(3); }\n");
  EXPECT_FALSE(fired(f, "nondeterministic-call"));
}

// -- non-const-global ------------------------------------------------------

TEST(NonConstGlobal, FiresOnMutableNamespaceScopeVariable) {
  const auto f = lint_source("src/arch/state.cpp",
                             "namespace fpr {\n"
                             "int run_counter = 0;\n"
                             "}\n");
  ASSERT_TRUE(fired(f, "non-const-global"));
  EXPECT_EQ(f[0].line, 2);
}

TEST(NonConstGlobal, FiresInAnonymousNamespaceAndOnStatics) {
  EXPECT_TRUE(fired(lint_source("src/io/x.cpp",
                                "namespace { std::size_t calls = 0; }\n"),
                    "non-const-global"));
  EXPECT_TRUE(fired(lint_source("src/io/x.cpp", "static bool dirty;\n"),
                    "non-const-global"));
  EXPECT_TRUE(
      fired(lint_source("src/io/x.cpp", "std::vector<int> g_cache{1, 2};\n"),
            "non-const-global"));
}

TEST(NonConstGlobal, ConstexprConstThreadLocalAndLocalsAreFine) {
  const char* good[] = {
      "constexpr int kTableSize = 64;\n",
      "const char* const kName = \"fpr\";\n",
      "inline constexpr double kEps = 1e-9;\n",
      "thread_local int scratch = 0;\n",  // documented exemption
      "void f() { static int memo = compute(); use(memo); }\n",
      "struct S { int mutable_member; };\n",
      "int add(int a, int b);\n",
      "using Row = std::vector<double>;\n",
      "enum class Mode { kFast, kExact };\n",
      "template <class T> struct Box { T value; };\n",
  };
  for (const char* text : good) {
    EXPECT_FALSE(fired(lint_source("src/common/x.hpp", text),
                       "non-const-global"))
        << text;
  }
}

// -- naked-new -------------------------------------------------------------

TEST(NakedNew, FiresOnNewAndMallocInHotPaths) {
  EXPECT_TRUE(fired(lint_source("src/kernels/hpl.cpp",
                                "void f() { double* p = new double[64]; }\n"),
                    "naked-new"));
  EXPECT_TRUE(fired(
      lint_source("src/memsim/cache.cpp",
                  "void f() { void* p = malloc(64); use(p); }\n"),
      "naked-new"));
}

TEST(NakedNew, ScopedToKernelsMemsimAndIo) {
  const std::string text = "void f() { int* p = new int; }\n";
  EXPECT_FALSE(fired(lint_source("src/counters/registry.cpp", text),
                     "naked-new"));
  EXPECT_FALSE(fired(lint_source("src/cli/cli.cpp", text), "naked-new"));
  // src/io is hot-path territory since the trace codec: chunk buffers
  // must be vectors, not raw allocations.
  EXPECT_TRUE(fired(lint_source("src/io/trace_format.cpp", text),
                    "naked-new"));
  EXPECT_TRUE(fired(
      lint_source("src/io/trace_format.cpp",
                  "void f() { void* p = malloc(64); use(p); }\n"),
      "naked-new"));
}

TEST(NakedNew, DeletedFunctionsAndCommentsDoNotFire) {
  const auto f = lint_source(
      "src/kernels/hpl.cpp",
      "// the new batched path replaces malloc(n) buffers\n"
      "struct K { K(const K&) = delete; };\n");
  EXPECT_FALSE(fired(f, "naked-new"));
}

// -- pragma-once -----------------------------------------------------------

TEST(PragmaOnce, FiresOnHeaderWithoutGuard) {
  const auto f = lint_source("src/common/units.hpp", "int f();\n");
  ASSERT_TRUE(fired(f, "pragma-once"));
  EXPECT_EQ(f[0].line, 1);
}

TEST(PragmaOnce, GuardedHeaderAndSourceFilesAreFine) {
  EXPECT_FALSE(fired(
      lint_source("src/common/units.hpp", "#pragma once\nint f();\n"),
      "pragma-once"));
  EXPECT_FALSE(fired(lint_source("src/common/units.cpp", "int f() {}\n"),
                     "pragma-once"));
}

// -- suppression comments --------------------------------------------------

TEST(Suppression, SameLineCommentSilencesOnlyThatRule) {
  const auto f = lint_source(
      "src/arch/state.cpp",
      "int tuned = 0;  // fpr-lint: allow(non-const-global)\n");
  EXPECT_TRUE(f.empty());
}

TEST(Suppression, PreviousLineCommentSilencesNextLine) {
  const auto f = lint_source(
      "src/model/exec.cpp",
      "// fpr-lint: allow(nondeterministic-call)\n"
      "int f() { return rand(); }\n");
  EXPECT_TRUE(f.empty());
}

TEST(Suppression, DoesNotLeakPastTheNextLine) {
  const auto f = lint_source(
      "src/model/exec.cpp",
      "// fpr-lint: allow(nondeterministic-call)\n"
      "int ok() { return rand(); }\n"
      "int bad() { return rand(); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 3);
}

TEST(Suppression, WrongRuleNameDoesNotSilence) {
  const auto f = lint_source(
      "src/arch/state.cpp",
      "int tuned = 0;  // fpr-lint: allow(naked-new)\n");
  EXPECT_TRUE(fired(f, "non-const-global"));
}

// -- rule filtering --------------------------------------------------------

TEST(RuleFilter, EnabledSubsetRestrictsChecking) {
  const std::string text =
      "int mutable_state = 0;\n"
      "int f() { return rand(); }\n";
  const auto all = lint_source("src/model/x.cpp", text);
  EXPECT_TRUE(fired(all, "non-const-global"));
  EXPECT_TRUE(fired(all, "nondeterministic-call"));
  const auto only =
      lint_source("src/model/x.cpp", text, {"nondeterministic-call"});
  EXPECT_FALSE(fired(only, "non-const-global"));
  EXPECT_TRUE(fired(only, "nondeterministic-call"));
}

// -- layer-violation ---------------------------------------------------------

TEST(LayerViolation, ClassifiesEveryLayerPair) {
  // Every ordered (from, to) pair: upward edges (to above from) violate,
  // downward and same-layer edges do not — adjacent or not.
  const auto& layers = fpr::lint::layer_names();
  ASSERT_EQ(layers.size(), 9u);
  for (std::size_t from = 0; from < layers.size(); ++from) {
    for (std::size_t to = 0; to < layers.size(); ++to) {
      const std::string path = "src/" + layers[from] + "/x.cpp";
      const std::string text =
          "#include \"" + layers[to] + "/y.hpp\"\nvoid f();\n";
      EXPECT_EQ(fired(lint_source(path, text), "layer-violation"), to > from)
          << layers[from] << " -> " << layers[to];
    }
  }
}

TEST(LayerViolation, RanksFollowTheArchitectureDag) {
  EXPECT_EQ(fpr::lint::layer_rank("common"), 0);
  EXPECT_EQ(fpr::lint::layer_rank("src/counters/sink.hpp"), 1);
  EXPECT_EQ(fpr::lint::layer_rank("arch"), 2);
  EXPECT_EQ(fpr::lint::layer_rank("memsim"), 3);
  EXPECT_EQ(fpr::lint::layer_rank("kernels"), 4);
  EXPECT_EQ(fpr::lint::layer_rank("model"), 5);
  EXPECT_EQ(fpr::lint::layer_rank("study"), 6);
  EXPECT_EQ(fpr::lint::layer_rank("io"), 7);
  EXPECT_EQ(fpr::lint::layer_rank("src/cli/cli.cpp"), 8);
  EXPECT_EQ(fpr::lint::layer_rank("tools/lint/main.cpp"), -1);
  EXPECT_EQ(fpr::lint::layer_rank("examples/quickstart.cpp"), -1);
}

TEST(LayerViolation, SinksAndSystemIncludesAreExempt) {
  // tools/, examples/, tests/ may include anything.
  EXPECT_FALSE(fired(lint_source("tools/trace/main.cpp",
                                 "#include \"cli/cli.hpp\"\nint g;\n"),
                     "layer-violation"));
  EXPECT_FALSE(fired(lint_source("examples/x.cpp",
                                 "#include \"study/study.hpp\"\nvoid f();\n"),
                     "layer-violation"));
  // Angle-bracket/system includes never form edges.
  EXPECT_FALSE(fired(lint_source("src/common/x.cpp",
                                 "#include <vector>\nvoid f();\n"),
                     "layer-violation"));
}

TEST(LayerViolation, FindingNamesTheEdgeAndBothRanks) {
  const auto f = lint_source("src/memsim/x.cpp",
                             "#include \"io/trace_format.hpp\"\nvoid f();\n");
  ASSERT_TRUE(fired(f, "layer-violation"));
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("src/memsim/x.cpp -> io/trace_format.hpp"),
            std::string::npos);
  EXPECT_NE(f[0].message.find("memsim (layer 3)"), std::string::npos);
  EXPECT_NE(f[0].message.find("io (layer 7)"), std::string::npos);
}

TEST(LayerViolation, SuppressibleOnTheIncludeLine) {
  const auto f = lint_source(
      "src/memsim/x.cpp",
      "// rationale here. fpr-lint: allow(layer-violation)\n"
      "#include \"io/trace_format.hpp\"\n"
      "void f();\n");
  EXPECT_FALSE(fired(f, "layer-violation"));
  EXPECT_FALSE(fired(f, "stale-suppression"));  // the suppression is live
}

// -- include-cycle -----------------------------------------------------------

std::vector<SourceFile> three_node_cycle() {
  return {
      {"src/common/cycle_a.hpp",
       "#pragma once\n#include \"common/cycle_b.hpp\"\n"},
      {"src/common/cycle_b.hpp",
       "#pragma once\n#include \"common/cycle_c.hpp\"\n"},
      {"src/common/cycle_c.hpp",
       "#pragma once\n#include \"common/cycle_a.hpp\"\n"},
  };
}

TEST(IncludeCycle, DetectsSyntheticThreeNodeCycle) {
  const auto f = lint_sources(three_node_cycle());
  // Every edge participates in the cycle, so each carries a finding.
  int cycle_findings = 0;
  for (const auto& finding : f) {
    if (finding.rule == "include-cycle") ++cycle_findings;
  }
  EXPECT_EQ(cycle_findings, 3);
  ASSERT_TRUE(fired(f, "include-cycle"));
  // The finding on the a->b edge names the shortest violating path.
  bool saw_full_path = false;
  for (const auto& finding : f) {
    if (finding.message.find("src/common/cycle_a.hpp -> "
                             "src/common/cycle_b.hpp -> "
                             "src/common/cycle_c.hpp -> "
                             "src/common/cycle_a.hpp") !=
        std::string::npos) {
      saw_full_path = true;
    }
  }
  EXPECT_TRUE(saw_full_path);
}

TEST(IncludeCycle, AcyclicChainIsClean) {
  const auto f = lint_sources({
      {"src/common/a.hpp", "#pragma once\n"},
      {"src/common/b.hpp", "#pragma once\n#include \"common/a.hpp\"\n"},
      {"src/common/c.hpp", "#pragma once\n#include \"common/b.hpp\"\n"},
  });
  EXPECT_FALSE(fired(f, "include-cycle"));
}

TEST(IncludeCycle, SuppressibleOnTheIncludeLine) {
  auto files = three_node_cycle();
  files[0].text =
      "#pragma once\n"
      "// fpr-lint: allow(include-cycle)\n"
      "#include \"common/cycle_b.hpp\"\n";
  const auto f = lint_sources(files);
  int cycle_findings = 0;
  for (const auto& finding : f) {
    if (finding.rule == "include-cycle") ++cycle_findings;
  }
  EXPECT_EQ(cycle_findings, 2);  // the other two edges still report
  EXPECT_FALSE(fired(f, "stale-suppression"));
}

// -- include graph + DOT export ----------------------------------------------

std::vector<SourceFile> small_project() {
  return {
      {"src/common/a.hpp", "#pragma once\n"},
      {"src/counters/b.hpp", "#pragma once\n#include \"common/a.hpp\"\n"},
      {"src/memsim/c.hpp",
       "#pragma once\n#include \"common/a.hpp\"\n"
       "#include \"counters/b.hpp\"\n"},
  };
}

TEST(IncludeGraph, BuildsSortedNodesAndResolvedEdges) {
  const auto g = fpr::lint::build_include_graph(small_project());
  const std::vector<std::string> want_nodes = {
      "src/common/a.hpp", "src/counters/b.hpp", "src/memsim/c.hpp"};
  EXPECT_EQ(g.nodes, want_nodes);
  ASSERT_EQ(g.edges.size(), 3u);
  // Sorted by (from, to): b->a, c->a, c->b.
  EXPECT_EQ(g.nodes[static_cast<std::size_t>(g.edges[0].from)],
            "src/counters/b.hpp");
  EXPECT_EQ(g.nodes[static_cast<std::size_t>(g.edges[0].to)],
            "src/common/a.hpp");
  EXPECT_EQ(g.nodes[static_cast<std::size_t>(g.edges[2].from)],
            "src/memsim/c.hpp");
  EXPECT_EQ(g.nodes[static_cast<std::size_t>(g.edges[2].to)],
            "src/counters/b.hpp");
  EXPECT_EQ(g.edges[0].line, 2);
}

TEST(IncludeGraph, DotExportIsDeterministicGolden) {
  const auto g = fpr::lint::build_include_graph(small_project());
  const std::string dot = fpr::lint::include_graph_dot(g);
  const std::string expected =
      "digraph fpr_include_graph {\n"
      "  // Edges point from includer to included directory; labels\n"
      "  // count file-level include edges. Layer ranks follow the\n"
      "  // architecture DAG (see docs/ARCHITECTURE.md).\n"
      "  rankdir=\"BT\";\n"
      "  node [shape=box];\n"
      "  \"common\" [label=\"common\\nlayer 0 \xC2\xB7 1 files\"];\n"
      "  \"counters\" [label=\"counters\\nlayer 1 \xC2\xB7 1 files\"];\n"
      "  \"memsim\" [label=\"memsim\\nlayer 3 \xC2\xB7 1 files\"];\n"
      "  \"counters\" -> \"common\" [label=\"1\"];\n"
      "  \"memsim\" -> \"common\" [label=\"1\"];\n"
      "  \"memsim\" -> \"counters\" [label=\"1\"];\n"
      "}\n";
  EXPECT_EQ(dot, expected);
}

// -- odr-header-def ----------------------------------------------------------

TEST(OdrHeaderDef, FiresOnNonInlineHeaderDefinition) {
  const auto f = lint_source(
      "src/model/bad.hpp",
      "#pragma once\nint helper(int x) { return x + 1; }\n");
  ASSERT_TRUE(fired(f, "odr-header-def"));
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("helper"), std::string::npos);
}

TEST(OdrHeaderDef, InlineTemplateConstexprStaticAndDeclarationsAreFine) {
  const char* good[] = {
      "#pragma once\ninline int f(int x) { return x; }\n",
      "#pragma once\nconstexpr int f(int x) { return x; }\n",
      "#pragma once\ntemplate <class T> T f(T x) { return x; }\n",
      "#pragma once\nstatic int f(int x) { return x; }\n",
      "#pragma once\nint f(int x);\n",
      "#pragma once\nstruct S { int get() const { return v; } int v; };\n",
      "#pragma once\nclass C { public: void set(int x) { v = x; } int v; };\n",
      "#pragma once\nnamespace d { inline double g() { return 1.0; } }\n",
  };
  for (const char* text : good) {
    EXPECT_FALSE(fired(lint_source("src/model/x.hpp", text),
                       "odr-header-def"))
        << text;
  }
}

TEST(OdrHeaderDef, SourceFileDefinitionsAreFine) {
  EXPECT_FALSE(fired(
      lint_source("src/model/x.cpp", "int helper(int x) { return x + 1; }\n"),
      "odr-header-def"));
}

TEST(OdrHeaderDef, FiresOnCrossTuDuplicateDefinition) {
  const std::string def =
      "namespace fpr {\nint shared_helper(int x) { return x * 2; }\n}\n";
  const auto f = lint_sources({{"src/model/a.cpp", def},
                               {"src/study/b.cpp", def}});
  int dup_findings = 0;
  for (const auto& finding : f) {
    if (finding.rule == "odr-header-def") ++dup_findings;
  }
  EXPECT_EQ(dup_findings, 2);  // one per definition site
  ASSERT_TRUE(fired(f, "odr-header-def"));
  EXPECT_NE(f[0].message.find("2 translation units"), std::string::npos);
  EXPECT_NE(f[0].message.find("src/model/a.cpp"), std::string::npos);
  EXPECT_NE(f[0].message.find("src/study/b.cpp"), std::string::npos);
}

TEST(OdrHeaderDef, InternalLinkageAndDistinctSignaturesAreNotDuplicates) {
  // static / anonymous-namespace copies have internal linkage; different
  // parameter lists are overloads, not redefinitions; main() is special.
  EXPECT_FALSE(fired(
      lint_sources(
          {{"src/model/a.cpp", "static int helper(int x) { return x; }\n"},
           {"src/study/b.cpp", "static int helper(int x) { return x; }\n"}}),
      "odr-header-def"));
  EXPECT_FALSE(fired(
      lint_sources(
          {{"src/model/a.cpp",
            "namespace { int helper(int x) { return x; } }\n"},
           {"src/study/b.cpp",
            "namespace { int helper(int x) { return x; } }\n"}}),
      "odr-header-def"));
  EXPECT_FALSE(fired(
      lint_sources(
          {{"src/model/a.cpp",
            "namespace fpr { int h(int x) { return x; } }\n"},
           {"src/study/b.cpp",
            "namespace fpr { int h(double x) { return 0; } }\n"}}),
      "odr-header-def"));
  EXPECT_FALSE(fired(
      lint_sources({{"src/cli/a.cpp", "int main() { return kExitOk; }\n"},
                    {"src/cli/b.cpp", "int main() { return kExitOk; }\n"}}),
      "odr-header-def"));
}

TEST(OdrHeaderDef, SuppressibleAtTheDefinition) {
  const auto f = lint_source(
      "src/model/bad.hpp",
      "#pragma once\n"
      "// fpr-lint: allow(odr-header-def)\n"
      "int helper(int x) { return x + 1; }\n");
  EXPECT_FALSE(fired(f, "odr-header-def"));
  EXPECT_FALSE(fired(f, "stale-suppression"));
}

// -- shared-mutable-capture --------------------------------------------------

TEST(SharedMutableCapture, FiresOnByRefScalarWrittenInParallelRegion) {
  const auto f = lint_source(
      "src/study/x.cpp",
      "void f(ThreadPool& pool, std::size_t n) {\n"
      "  std::size_t acc = 0;\n"
      "  pool.parallel_for_n(4, n,\n"
      "      [&](std::size_t b, std::size_t e, unsigned) {\n"
      "        acc += e - b;\n"
      "      });\n"
      "}\n");
  ASSERT_TRUE(fired(f, "shared-mutable-capture"));
  EXPECT_EQ(f[0].line, 4);  // the lambda introducer
  EXPECT_NE(f[0].message.find("'acc'"), std::string::npos);
}

TEST(SharedMutableCapture, ExplicitByRefCaptureAlsoFires) {
  const auto f = lint_source(
      "src/study/x.cpp",
      "void f(ThreadPool& pool, std::size_t n) {\n"
      "  int hits = 0;\n"
      "  pool.parallel_for(n, [&hits](std::size_t b, std::size_t e) {\n"
      "    if (b < e) hits++;\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(fired(f, "shared-mutable-capture"));
}

TEST(SharedMutableCapture, SafePatternsDoNotFire) {
  const char* good[] = {
      // read-only use of a by-ref capture
      "void f(ThreadPool& p, std::size_t n) {\n"
      "  std::size_t limit = n / 2;\n"
      "  p.parallel_for_n(4, n, [&](std::size_t b, std::size_t e,\n"
      "                             unsigned) { use(limit); });\n"
      "}\n",
      // const local
      "void f(ThreadPool& p, std::size_t n) {\n"
      "  const std::size_t limit = n / 2;\n"
      "  p.parallel_for_n(4, n, [&](std::size_t b, std::size_t e,\n"
      "                             unsigned) { use(limit); });\n"
      "}\n",
      // by-value capture: each worker owns a copy
      "void f(ThreadPool& p, std::size_t n) {\n"
      "  std::size_t acc = 0;\n"
      "  p.parallel_for(n, [acc](std::size_t b, std::size_t e) {\n"
      "    use(acc + b + e);\n"
      "  });\n"
      "}\n",
      // lambda declares its own copy (shadowing)
      "void f(ThreadPool& p, std::size_t n) {\n"
      "  std::size_t acc = 0;\n"
      "  p.parallel_for(n, [&](std::size_t b, std::size_t e) {\n"
      "    std::size_t acc = b; acc += e; use(acc);\n"
      "  });\n"
      "}\n",
      // writes land in a per-worker slot, not a captured scalar
      "void f(ThreadPool& p, std::vector<double>& out, std::size_t n) {\n"
      "  p.parallel_for_n(4, n, [&](std::size_t b, std::size_t e,\n"
      "                             unsigned w) { out[w] += double(e - b);\n"
      "  });\n"
      "}\n",
      // serial lambda: not handed to a parallel entry point
      "void f(std::size_t n) {\n"
      "  std::size_t acc = 0;\n"
      "  auto add = [&](std::size_t k) { acc += k; };\n"
      "  add(n);\n"
      "}\n",
  };
  for (const char* text : good) {
    EXPECT_FALSE(fired(lint_source("src/study/x.cpp", text),
                       "shared-mutable-capture"))
        << text;
  }
}

TEST(SharedMutableCapture, SuppressibleAtTheLambda) {
  const auto f = lint_source(
      "src/study/x.cpp",
      "void f(ThreadPool& pool, std::size_t n) {\n"
      "  std::size_t acc = 0;\n"
      "  pool.parallel_for_n(4, n,\n"
      "      // single writer, read after join. "
      "fpr-lint: allow(shared-mutable-capture)\n"
      "      [&](std::size_t b, std::size_t e, unsigned) {\n"
      "        acc += e - b;\n"
      "      });\n"
      "}\n");
  EXPECT_FALSE(fired(f, "shared-mutable-capture"));
  EXPECT_FALSE(fired(f, "stale-suppression"));
}

// -- bare-exit-code ----------------------------------------------------------

TEST(BareExitCode, FiresOnLiteralReturnsInCommandHandlers) {
  const char* bad[] = {
      "int cmd_run() { return 1; }\n",
      "int cmd_run() { return 0; }\n",
      "int cmd_run() { return -1; }\n",
      "int usage() { return (2); }\n",
      "int cmd_run(bool ok) { return ok ? 0 : 1; }\n",
  };
  for (const char* text : bad) {
    EXPECT_TRUE(fired(lint_source("src/cli/cli.cpp", text), "bare-exit-code"))
        << text;
    EXPECT_TRUE(fired(lint_source("tools/trace/main.cpp", text),
                      "bare-exit-code"))
        << text;
  }
}

TEST(BareExitCode, ScopedToCommandHandlersOnly) {
  const std::string text = "int f() { return 1; }\n";
  EXPECT_FALSE(fired(lint_source("src/study/x.cpp", text), "bare-exit-code"));
  EXPECT_FALSE(fired(lint_source("src/model/x.cpp", text), "bare-exit-code"));
  // Library code under tools/ keeps its -1 sentinels.
  EXPECT_FALSE(fired(lint_source("tools/lint/lint_core.cpp", text),
                     "bare-exit-code"));
}

TEST(BareExitCode, NamedConstantsAndValueReturnsAreFine) {
  const char* good[] = {
      "int cmd_run() { return kExitOk; }\n",
      "int cmd_run(bool ok) { return ok ? kExitOk : kExitFailure; }\n",
      "std::string rule(std::size_t b, std::size_t e) {\n"
      "  return text.substr(b, e - b + 1);\n"
      "}\n",
      "int count() { return total + 1; }\n",
  };
  for (const char* text : good) {
    EXPECT_FALSE(fired(lint_source("src/cli/cli.cpp", text),
                       "bare-exit-code"))
        << text;
  }
}

TEST(BareExitCode, SuppressibleAtTheReturn) {
  const auto f = lint_source(
      "src/cli/cli.cpp",
      "int cmd() { return 77; }  // fpr-lint: allow(bare-exit-code)\n");
  EXPECT_FALSE(fired(f, "bare-exit-code"));
  EXPECT_FALSE(fired(f, "stale-suppression"));
}

// -- stale-suppression -------------------------------------------------------

TEST(StaleSuppression, LiveSuppressionIsSilent) {
  const auto f = lint_source(
      "src/arch/state.cpp",
      "int tuned = 0;  // fpr-lint: allow(non-const-global)\n");
  EXPECT_TRUE(f.empty());
}

TEST(StaleSuppression, UnusedSuppressionIsReported) {
  const auto f = lint_source(
      "src/arch/state.cpp",
      "void f();  // fpr-lint: allow(naked-new)\n");
  ASSERT_TRUE(fired(f, "stale-suppression"));
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("allow(naked-new)"), std::string::npos);
}

TEST(StaleSuppression, MisspelledRuleNameIsCalledOut) {
  const auto f = lint_source(
      "src/arch/state.cpp",
      "int tuned = 0;  // fpr-lint: allow(non-const-globl)\n");
  EXPECT_TRUE(fired(f, "non-const-global"));  // the typo silenced nothing
  ASSERT_TRUE(fired(f, "stale-suppression"));
  bool called_out = false;
  for (const auto& finding : f) {
    if (finding.message.find("unknown rule 'non-const-globl'") !=
        std::string::npos) {
      called_out = true;
    }
  }
  EXPECT_TRUE(called_out);
}

TEST(StaleSuppression, DocumentationExamplesAreNotSuppressions) {
  // An allow() spelled inside a comment block with no adjacent code is
  // documentation (this very test file quotes the syntax), not a live
  // suppression — it neither silences nor goes stale.
  const auto f = lint_source(
      "src/common/x.cpp",
      "// Suppress a finding with:\n"
      "//   // fpr-lint: allow(rule-name)\n"
      "// on the offending line.\n"
      "\n"
      "void f();\n");
  EXPECT_TRUE(f.empty());
}

TEST(StaleSuppression, EscapableViaItsOwnRuleName) {
  // allow(x, stale-suppression) marks a deliberate placeholder: the
  // stale report for the unused allow(x) is consumed by the second
  // entry, and a used stale-suppression entry is never itself stale.
  const auto f = lint_source(
      "src/arch/state.cpp",
      "void f();  // fpr-lint: allow(naked-new, stale-suppression)\n");
  EXPECT_TRUE(f.empty());
}

TEST(StaleSuppression, RuleFilterDoesNotFakeStaleness) {
  // With reporting restricted to one rule, suppressions for the other
  // rules are still evaluated against the full catalogue — a live
  // suppression must not be reported stale just because its rule was
  // filtered from the output.
  const auto f = lint_source(
      "src/arch/state.cpp",
      "int tuned = 0;  // fpr-lint: allow(non-const-global)\n",
      {"stale-suppression"});
  EXPECT_TRUE(f.empty());
}

}  // namespace
