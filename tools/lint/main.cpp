// fpr-lint executable: lint the given files/directories and print one
// line per finding. Exit codes: kExitOk (0) clean, kExitFindings (1)
// findings, kExitUsage (2) usage/IO error.
//
//   fpr-lint src/ tools/               # the CTest gate invocation
//   fpr-lint --format json src/ tools/ # machine-readable findings
//   fpr-lint --graph dot src/          # include-graph DOT export
//   fpr-lint --rules=naked-new src/kernels/hpl.cpp
//   fpr-lint --list-rules
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_core.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;

int usage(std::ostream& err) {
  err << "usage: fpr-lint [--rules=a,b,...] [--format text|json]\n"
         "                [--graph dot] [--list-rules] <file|dir>...\n"
         "Checks fpr project invariants (see docs/INVARIANTS.md).\n"
         "All paths are linted together as one project, so the\n"
         "project-wide passes (include-cycle, cross-TU odr-header-def,\n"
         "stale-suppression) see every file at once.\n"
         "Suppress a single finding with a comment on or above the line:\n"
         "  // fpr-lint: allow(rule-name)\n";
  return kExitUsage;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Field order is part of the output contract (file, line, rule,
// message) — CI archives these files and diffs them across runs.
void print_json(const std::vector<fpr::lint::Finding>& findings,
                std::ostream& out) {
  out << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    out << (i == 0 ? "\n" : ",\n")
        << "  {\"file\": \"" << json_escape(f.file) << "\", "
        << "\"line\": " << f.line << ", "
        << "\"rule\": \"" << json_escape(f.rule) << "\", "
        << "\"message\": \"" << json_escape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]\n" : "\n]\n");
}

std::vector<fpr::lint::SourceFile> read_sources(
    const std::vector<std::string>& paths) {
  std::vector<fpr::lint::SourceFile> sources;
  for (const auto& root : paths) {
    for (const auto& path : fpr::lint::collect_tree(root)) {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw std::runtime_error("fpr-lint: cannot read " + path);
      std::ostringstream ss;
      ss << in.rdbuf();
      sources.push_back({path, ss.str()});
    }
  }
  return sources;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<std::string> rules;
  std::string format = "text";
  std::string graph;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return kExitOk;
    }
    if (arg == "--list-rules") {
      for (const auto& name : fpr::lint::rule_names()) {
        std::cout << name << ": " << fpr::lint::rule_description(name)
                  << "\n";
      }
      return kExitOk;
    }
    if (arg.rfind("--rules=", 0) == 0) {
      std::stringstream ss(arg.substr(8));
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        if (!rule.empty()) rules.push_back(rule);
      }
      continue;
    }
    if (arg == "--format") {
      if (i + 1 >= argc) return usage(std::cerr);
      format = argv[++i];
      if (format != "text" && format != "json") {
        std::cerr << "fpr-lint: unknown format '" << format << "'\n";
        return usage(std::cerr);
      }
      continue;
    }
    if (arg == "--graph") {
      if (i + 1 >= argc) return usage(std::cerr);
      graph = argv[++i];
      if (graph != "dot") {
        std::cerr << "fpr-lint: unknown graph format '" << graph << "'\n";
        return usage(std::cerr);
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "fpr-lint: unknown option '" << arg << "'\n";
      return usage(std::cerr);
    }
    paths.push_back(arg);
  }
  if (paths.empty()) return usage(std::cerr);

  try {
    const auto sources = read_sources(paths);
    if (!graph.empty()) {
      std::cout << fpr::lint::include_graph_dot(
          fpr::lint::build_include_graph(sources));
      return kExitOk;
    }
    const auto findings = fpr::lint::lint_sources(sources, rules);
    if (format == "json") {
      print_json(findings, std::cout);
    } else {
      for (const auto& f : findings) {
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
      }
    }
    if (!findings.empty()) {
      std::cerr << "fpr-lint: " << findings.size() << " finding(s)\n";
      return kExitFindings;
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return kExitUsage;
  }
  return kExitOk;
}
