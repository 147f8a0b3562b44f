// fpr-lint: the project's invariant checker. PRs 3-5 established the
// properties the evaluation rests on — byte-identical results for any
// (--kernel-jobs, --jobs) and pure-geometry SimCache keys — and this
// tool enforces them mechanically instead of by code review. Each
// invariant is a named rule; findings carry the rule name so a
// violation can be suppressed at a single site with
//   // fpr-lint: allow(rule-name)
// on the offending line or the line directly above it. The rule
// catalogue and the rationale for each invariant live in
// docs/INVARIANTS.md.
//
// v2 grew the per-file token scanner into a project semantic model:
// beside the original pattern rules, the linter now parses the
// project's #include directives into a dependency graph and gates the
// architecture DAG (layer-violation, include-cycle, `--graph dot`
// export — see docs/ARCHITECTURE.md), indexes namespace-scope
// declarations for ODR/header hygiene (odr-header-def, per-header and
// across translation units), tracks lambda captures flowing into
// parallel regions (shared-mutable-capture), names exit codes
// (bare-exit-code), and reports suppressions that no longer suppress
// anything (stale-suppression).
//
// The checker is still token-level, not a full C++ parse: sources are
// lexed just far enough to blank comments, string/char literals, and
// preprocessor directives (includes and pragmas are recorded on the
// way), then scanned with per-rule patterns, a brace-tracking
// declaration scanner, and a lambda-capture scanner. That is
// deliberate — it keeps the tool dependency-free and fast enough to
// run as a CTest gate on every build — and the escape hatch for the
// rare heuristic miss is the suppression comment above (which
// stale-suppression keeps from outliving its excuse).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fpr::lint {

/// One rule violation at a specific source location.
struct Finding {
  std::string file;     ///< path as given to the linter
  int line = 0;         ///< 1-based line number
  std::string rule;     ///< rule name (see rule_names())
  std::string message;  ///< human-readable explanation
};

/// An in-memory source handed to the project-level entry point.
struct SourceFile {
  std::string path;  ///< decides rule scoping (repo-relative tail)
  std::string text;
};

/// Names of every implemented rule, in stable (documentation) order.
[[nodiscard]] std::vector<std::string> rule_names();

/// One-line description of a rule; throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] std::string rule_description(const std::string& rule);

/// Lint a set of sources as one project: every per-file pass plus the
/// project-wide passes (include-cycle over the include graph, the
/// cross-TU duplicate-definition side of odr-header-def, and
/// stale-suppression accounting). `enabled` restricts *reporting* to a
/// subset of rule names (empty = all rules); every rule is still
/// evaluated internally so suppression liveness is judged against the
/// full catalogue. Findings come back sorted by (file, line, rule).
[[nodiscard]] std::vector<Finding> lint_sources(
    const std::vector<SourceFile>& files,
    const std::vector<std::string>& enabled = {});

/// Lint a single in-memory source. `path` decides which rules apply
/// (rules are scoped by directory, e.g. nondeterministic-call only
/// fires under src/{memsim,model,study,arch,io}); it is matched on its
/// repo-relative tail, so absolute paths work as long as they contain
/// a "src/" (or "tools/", "tests/") component. Equivalent to
/// lint_sources with one file: project passes that need more than one
/// file simply find nothing.
[[nodiscard]] std::vector<Finding> lint_source(
    const std::string& path, std::string_view text,
    const std::vector<std::string>& enabled = {});

/// Lint a file on disk (reads it, then defers to lint_source). Throws
/// std::runtime_error if the file cannot be read.
[[nodiscard]] std::vector<Finding> lint_file(
    const std::string& path, const std::vector<std::string>& enabled = {});

/// Recursively collect the .hpp/.cpp/.h/.cc files under `root` (sorted,
/// for deterministic output). Throws std::runtime_error if `root` is
/// neither a file nor a directory.
[[nodiscard]] std::vector<std::string> collect_tree(const std::string& root);

/// collect_tree + read + lint_sources over one root: the project-level
/// passes see every file under `root` together.
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::string& root, const std::vector<std::string>& enabled = {});

// ---------------------------------------------------------------------------
// Include graph (the layering gate's data model, exported for docs)
// ---------------------------------------------------------------------------

/// The project header-dependency graph: nodes are repo-relative paths
/// ("src/common/rng.hpp"), edges point from includer to included file.
/// Only quoted project includes that resolve to a scanned file become
/// edges; system includes are ignored.
struct IncludeGraph {
  struct Edge {
    int from = 0;  ///< index into nodes (the includer)
    int to = 0;    ///< index into nodes (the included file)
    int line = 0;  ///< line of the #include directive
  };
  std::vector<std::string> nodes;  ///< sorted repo-relative paths
  std::vector<Edge> edges;         ///< sorted by (from, to)
};

[[nodiscard]] IncludeGraph build_include_graph(
    const std::vector<SourceFile>& files);

/// Directory-condensed DOT export of the include graph (one node per
/// source directory, edge labels carry file-level include counts),
/// laid out bottom-up along the architecture DAG. Deterministic: this
/// is what docs/ARCHITECTURE.md commits and CI diffs against a fresh
/// `fpr-lint --graph dot src/` run.
[[nodiscard]] std::string include_graph_dot(const IncludeGraph& graph);

/// Architecture layer rank of a repo-relative path or of a bare
/// directory name: common=0, counters=1, arch=2, memsim=3, kernels=4,
/// model=5, study=6, io=7, cli=8. Returns -1 for unlayered paths
/// (tools/, examples/, tests/ are sinks and may include anything).
[[nodiscard]] int layer_rank(const std::string& rel_or_dir);

/// The layer directory names in rank order (see layer_rank).
[[nodiscard]] const std::vector<std::string>& layer_names();

}  // namespace fpr::lint
