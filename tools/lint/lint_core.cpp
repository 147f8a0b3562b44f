#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <filesystem>
#include <map>
// GCC 12 reports -Wmaybe-uninitialized inside std::function as
// std::regex instantiates it (bits/std_function.h) when built with
// -fsanitize=address; the warning is about library code, not ours.
// Clang has no such warning group and would reject its name.
#ifndef __clang__
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <regex>
#ifndef __clang__
#pragma GCC diagnostic pop
#endif
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace fpr::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule catalogue
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* name;
  const char* desc;
};

constexpr RuleInfo kRules[] = {
    {"nondeterministic-call",
     "wall-clock/system-entropy call in a determinism-sensitive path "
     "(src/{memsim,model,study,arch,io}); take seeds and timestamps as "
     "parameters (common/rng.hpp) so results replay bit-identically"},
    {"non-const-global",
     "mutable namespace-scope state in src/; scope it to a run "
     "(ExecutionContext) or make it const/constexpr"},
    {"naked-new",
     "naked allocation in a kernel/memsim/io hot path; use "
     "AlignedBuffer/std::vector so buffers are sized once and reused"},
    {"pragma-once",
     "header under src/ lacks #pragma once; every header must be "
     "self-contained and safely includable"},
    {"layer-violation",
     "include edge that climbs the architecture DAG (common -> counters "
     "-> arch -> memsim -> kernels -> model -> study -> io -> cli); a "
     "lower layer must not include a higher one"},
    {"include-cycle",
     "cyclic #include chain among project headers; break it with a "
     "forward declaration or an interface split"},
    {"odr-header-def",
     "non-inline, non-template definition visible to multiple "
     "translation units (header definition or cross-TU duplicate); mark "
     "it inline or move it into one .cpp"},
    {"shared-mutable-capture",
     "non-const, non-atomic local captured by reference and written "
     "inside a parallel-region lambda; workers race on it — use a "
     "per-worker slot (index by the worker id) or an atomic"},
    {"bare-exit-code",
     "integer-literal exit code in a command handler (src/cli, tools/); "
     "return a named kExit* constant so exit-code meaning stays "
     "greppable and consistent across commands"},
    {"stale-suppression",
     "fpr-lint: allow(...) comment that suppresses no finding on its "
     "line or the line below; delete it so suppressions cannot outlive "
     "the code they excused"},
};

bool known_rule(const std::string& name) {
  for (const auto& r : kRules) {
    if (name == r.name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Architecture layers
// ---------------------------------------------------------------------------

// The architecture DAG, bottom-up. The paper-facing statement keeps
// kernels and memsim on one conceptual level; the gate orders memsim
// below kernels because kernels describe their footprints with memsim
// access-pattern specs (memsim never calls back into kernels). See
// docs/ARCHITECTURE.md.
constexpr const char* kLayerDirs[] = {
    "common", "counters", "arch", "memsim", "kernels",
    "model",  "study",    "io",   "cli",
};

std::string first_component(const std::string& rel) {
  const auto slash = rel.find('/');
  return slash == std::string::npos ? rel : rel.substr(0, slash);
}

// ---------------------------------------------------------------------------
// Source preparation: blank comments, string/char literals, and
// preprocessor directives so rule patterns only ever match code;
// collect `fpr-lint: allow(rule[,rule])` suppression comments and
// quoted #include targets along the way.
// ---------------------------------------------------------------------------

struct AllowEntry {
  int line = 0;       // the comment's own line; covers line and line+1
  std::string rule;   // rule name, or "*" for any
  bool used = false;  // did the suppression silence a finding?
};

struct IncludeDirective {
  int line = 0;
  std::string target;  // the quoted path, verbatim
};

struct Prepared {
  std::string code;                // same length/line structure as input
  std::vector<std::size_t> lines;  // offset of each line start
  std::vector<AllowEntry> allows;
  std::vector<IncludeDirective> includes;
  std::vector<int> directive_lines;  // start line of each # directive
  bool has_pragma_once = false;
};

int line_of(const Prepared& p, std::size_t offset) {
  auto it = std::upper_bound(p.lines.begin(), p.lines.end(), offset);
  return static_cast<int>(it - p.lines.begin());
}

// Consult (and consume) a suppression: a match marks the entry used so
// the stale-suppression pass can tell live excuses from dead ones.
bool allowed(Prepared& p, int line, const std::string& rule) {
  for (auto& a : p.allows) {
    if ((a.line == line || a.line + 1 == line) &&
        (a.rule == "*" || a.rule == rule)) {
      a.used = true;
      return true;
    }
  }
  return false;
}

// Parse "fpr-lint: allow(a, b)" out of a comment; the suppression covers
// the comment's own line and the line directly below it (so it can sit
// on its own line above the flagged statement).
void record_allows(Prepared& p, std::string_view comment, int line) {
  static const std::regex kAllow(R"(fpr-lint:\s*allow\(([^)]*)\))");
  std::match_results<std::string_view::const_iterator> m;
  if (!std::regex_search(comment.begin(), comment.end(), m, kAllow)) return;
  std::string list = m[1].str();
  std::stringstream ss(list);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    const auto b = rule.find_first_not_of(" \t");
    const auto e = rule.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    rule = rule.substr(b, e - b + 1);
    p.allows.push_back({line, rule, false});
  }
}

Prepared prepare(std::string_view text) {
  Prepared p;
  p.code.assign(text.size(), ' ');
  p.lines.push_back(0);
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') p.lines.push_back(i + 1);
  }

  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State st = State::kCode;
  std::size_t token_start = 0;   // start of current comment/literal
  std::string raw_delim;         // raw string closing delimiter ")xyz\""
  bool line_has_code = false;    // non-ws code seen on this line yet
  bool in_directive = false;     // inside a # logical line
  std::size_t directive_start = 0;

  auto flush_comment = [&](std::size_t end) {
    record_allows(p, text.substr(token_start, end - token_start),
                  line_of(p, token_start));
  };
  auto end_directive = [&](std::size_t end) {
    std::string_view dir = text.substr(directive_start, end - directive_start);
    p.directive_lines.push_back(line_of(p, directive_start));
    if (dir.find("pragma") != std::string_view::npos &&
        dir.find("once") != std::string_view::npos) {
      p.has_pragma_once = true;
    }
    static const std::regex kInclude(R"re(#\s*include\s*"([^"]+)")re");
    std::match_results<std::string_view::const_iterator> m;
    if (std::regex_search(dir.begin(), dir.end(), m, kInclude)) {
      p.includes.push_back({line_of(p, directive_start), m[1].str()});
    }
    in_directive = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case State::kCode: {
        if (in_directive) {
          if (c == '\n' && (i == 0 || text[i - 1] != '\\')) {
            end_directive(i);
            line_has_code = false;
          } else if (c == '/' && n == '/') {
            end_directive(i);
            st = State::kLine;
            token_start = i;
          } else if (c == '/' && n == '*') {
            st = State::kBlock;
            token_start = i;
            ++i;
          }
          break;  // directive bytes stay blank in p.code
        }
        if (c == '#' && !line_has_code) {
          in_directive = true;
          directive_start = i;
          break;
        }
        if (c == '/' && n == '/') {
          st = State::kLine;
          token_start = i;
        } else if (c == '/' && n == '*') {
          st = State::kBlock;
          token_start = i;
          ++i;
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          std::size_t open = text.find('(', i + 2);
          if (open != std::string_view::npos) {
            raw_delim = ")";
            raw_delim.append(text.substr(i + 2, open - (i + 2)));
            raw_delim.push_back('"');
            st = State::kRaw;
            p.code[i] = 'R';  // keep something word-like so \b works
            i = open;         // skip past the opening delimiter
          } else {
            p.code[i] = c;
          }
        } else if (c == '"') {
          st = State::kString;
          p.code[i] = '"';
        } else if (c == '\'') {
          st = State::kChar;
          p.code[i] = '\'';
        } else {
          p.code[i] = c;
          if (!std::isspace(static_cast<unsigned char>(c))) {
            line_has_code = true;
          }
        }
        if (c == '\n') line_has_code = false;
        break;
      }
      case State::kLine:
        if (c == '\n') {
          flush_comment(i);
          st = State::kCode;
          line_has_code = false;
        }
        break;
      case State::kBlock:
        if (c == '*' && n == '/') {
          flush_comment(i + 2);
          st = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          p.code[i] = '"';
          st = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          p.code[i] = '\'';
          st = State::kCode;
        }
        break;
      case State::kRaw:
        if (c == ')' &&
            text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = State::kCode;
        }
        break;
    }
    if (c == '\n') p.code[i] = '\n';  // keep line structure when blanked
  }
  if (st == State::kLine) flush_comment(text.size());
  if (in_directive) end_directive(text.size());

  // A suppression must sit on or directly above code. Drop entries
  // where both covered lines are comment/blank-only: those are syntax
  // examples in documentation, not live suppressions (and they could
  // never silence anything anyway).
  auto line_has_any_code = [&p](int line) {
    if (line < 1 || static_cast<std::size_t>(line) > p.lines.size()) {
      return false;
    }
    // Preprocessor directives are blanked in p.code but are still
    // suppressible statements (#include for layer-violation).
    if (std::find(p.directive_lines.begin(), p.directive_lines.end(),
                  line) != p.directive_lines.end()) {
      return true;
    }
    const std::size_t b = p.lines[static_cast<std::size_t>(line - 1)];
    const std::size_t e = static_cast<std::size_t>(line) < p.lines.size()
                              ? p.lines[static_cast<std::size_t>(line)]
                              : p.code.size();
    for (std::size_t k = b; k < e; ++k) {
      if (!std::isspace(static_cast<unsigned char>(p.code[k]))) return true;
    }
    return false;
  };
  p.allows.erase(std::remove_if(p.allows.begin(), p.allows.end(),
                                [&](const AllowEntry& a) {
                                  return !line_has_any_code(a.line) &&
                                         !line_has_any_code(a.line + 1);
                                }),
                 p.allows.end());
  return p;
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

// Repo-relative tail of `path`: the substring starting at its last
// "src/" (or "tools/", "tests/") path component, or the normalized path
// itself when none.
std::string repo_rel(const std::string& path) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  if (norm.rfind("./", 0) == 0) norm.erase(0, 2);
  for (const char* root : {"src/", "tools/", "tests/"}) {
    if (norm.rfind(root, 0) == 0) return norm;
    const auto at = norm.rfind("/" + std::string(root));
    if (at != std::string::npos) return norm.substr(at + 1);
  }
  return norm;
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& rel) {
  return ends_with(rel, ".hpp") || ends_with(rel, ".h");
}

bool is_translation_unit(const std::string& rel) {
  return ends_with(rel, ".cpp") || ends_with(rel, ".cc");
}

// ---------------------------------------------------------------------------
// Pattern rules
// ---------------------------------------------------------------------------

void scan_pattern(Prepared& p, const std::regex& re, const std::string& file,
                  const char* rule, const char* message,
                  std::vector<Finding>& out) {
  auto begin = std::sregex_iterator(p.code.begin(), p.code.end(), re);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const int line = line_of(p, static_cast<std::size_t>(it->position()));
    if (allowed(p, line, rule)) continue;
    out.push_back({file, line, rule, message});
  }
}

bool contains_word(const std::string& s, std::string_view word) {
  std::size_t at = 0;
  while ((at = s.find(word.data(), at, word.size())) != std::string::npos) {
    const bool left_ok =
        at == 0 || (!std::isalnum(static_cast<unsigned char>(s[at - 1])) &&
                    s[at - 1] != '_');
    const std::size_t after = at + word.size();
    const bool right_ok =
        after >= s.size() ||
        (!std::isalnum(static_cast<unsigned char>(s[after])) &&
         s[after] != '_');
    if (left_ok && right_ok) return true;
    at = after;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Namespace-scope declaration scanner: a small brace-tracking pass over
// the blanked source. It yields two things: non-const-global findings
// (variable definitions at namespace scope that are not const/
// constexpr/constinit; thread_local exempt by design) and a record of
// every namespace-scope *function definition*, which feeds the
// odr-header-def passes (header definitions per file, duplicate
// definitions across TUs at project level).
// ---------------------------------------------------------------------------

// Does `stmt` (a namespace-scope statement with initializer stripped)
// look like a mutable variable declaration?
bool is_mutable_decl(const std::string& stmt) {
  static constexpr std::string_view kSkipWords[] = {
      "const",    "constexpr",     "constinit", "using",  "typedef",
      "friend",   "template",      "operator",  "static_assert",
      "namespace", "class",        "struct",    "union",  "enum",
      "thread_local", "concept",   "requires",  "asm",    "goto",
  };
  for (const auto w : kSkipWords) {
    if (contains_word(stmt, w)) return false;
  }
  if (stmt.find('(') != std::string::npos) return false;  // function-ish
  // Strip any initializer: the declarator part is what must look like
  // "type name" / "type name[N]".
  std::string decl = stmt.substr(0, stmt.find('='));
  static const std::regex kDecl(
      R"(^\s*(?:static\s+|inline\s+|extern\s+)*[A-Za-z_][A-Za-z0-9_:<>,\s\*&]*[\s\*&]+[A-Za-z_][A-Za-z0-9_]*\s*(?:\[[^\]]*\]\s*)*$)");
  return std::regex_match(decl, kDecl);
}

// Map an operator's symbol characters to letters so downstream '('/'='
// scans and identifier regexes never trip over them: operator== ->
// operatorEE, operator() -> operatorcC. Distinct operators stay
// distinct (the duplicate-definition index keys on the result).
std::string sanitize_operators(const std::string& stmt) {
  static const std::map<char, char> kMap = {
      {'=', 'E'}, {'<', 'L'}, {'>', 'G'}, {'!', 'N'}, {'+', 'P'},
      {'-', 'M'}, {'*', 'S'}, {'/', 'D'}, {'%', 'R'}, {'&', 'A'},
      {'|', 'O'}, {'^', 'X'}, {'~', 'T'}, {'(', 'c'}, {')', 'C'},
      {'[', 'b'}, {']', 'B'}, {',', 'm'},
  };
  std::string out = stmt;
  std::size_t at = 0;
  while ((at = out.find("operator", at)) != std::string::npos) {
    const bool word_start =
        at == 0 || (!std::isalnum(static_cast<unsigned char>(out[at - 1])) &&
                    out[at - 1] != '_');
    std::size_t i = at + 8;
    while (i < out.size() && std::isspace(static_cast<unsigned char>(out[i])))
      ++i;
    if (!word_start || i >= out.size() || kMap.count(out[i]) == 0) {
      at += 8;
      continue;
    }
    while (i < out.size() && kMap.count(out[i]) != 0) {
      out[i] = kMap.at(out[i]);
      ++i;
    }
    at = i;
  }
  return out;
}

// A recorded namespace-scope function definition.
struct FnDef {
  int line = 0;
  std::string stmt;      // collapsed preamble text (sanitized operators)
  std::string ns;        // enclosing namespace path, "" at global scope
  bool internal = false; // static or inside an anonymous namespace
  bool exempt = false;   // inline/constexpr/template/extern/friend/...
  std::string name;      // (possibly qualified) function name
  std::string params;    // parameter list, whitespace-stripped
};

// Is the collapsed statement a function definition preamble (rather
// than a class body, enum, array/brace initializer, or lambda init)?
bool fn_like(const std::string& stmt) {
  const auto par = stmt.find('(');
  if (par == std::string::npos) return false;
  const auto eq = stmt.find('=');
  if (eq != std::string::npos && eq < par) return false;  // init / lambda
  for (const auto w : {"class", "struct", "union", "enum", "namespace",
                       "using", "typedef", "requires", "concept"}) {
    if (contains_word(stmt, w)) return false;
  }
  return true;
}

bool fn_exempt(const std::string& stmt) {
  for (const auto w : {"inline", "constexpr", "consteval", "template",
                       "static", "extern", "friend"}) {
    if (contains_word(stmt, w)) return true;
  }
  return false;
}

// Extract the (possibly ::-qualified) name directly before the first
// '(' plus the whitespace-stripped parameter list. Empty name when the
// preamble does not look indexable (attributes, function pointers...).
void fn_name_params(const std::string& stmt, std::string& name,
                    std::string& params) {
  name.clear();
  params.clear();
  static const std::regex kAttr(
      R"(__attribute__\s*\(\(.*?\)\)|alignas\s*\([^)]*\))");
  const std::string s = std::regex_replace(stmt, kAttr, " ");
  const auto par = s.find('(');
  if (par == std::string::npos) return;
  static const std::regex kName(
      R"(((?:[A-Za-z_][A-Za-z0-9_]*\s*::\s*)*~?\s*[A-Za-z_][A-Za-z0-9_]*)\s*$)");
  std::smatch m;
  const std::string head = s.substr(0, par);
  if (!std::regex_search(head, m, kName)) return;
  name = m[1].str();
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](unsigned char c) { return std::isspace(c); }),
             name.end());
  // Balanced scan for the parameter list.
  int depth = 0;
  std::size_t i = par;
  for (; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) break;
  }
  if (i >= s.size()) {
    name.clear();
    return;
  }
  params = s.substr(par, i - par + 1);
  params.erase(
      std::remove_if(params.begin(), params.end(),
                     [](unsigned char c) { return std::isspace(c); }),
      params.end());
}

void scan_namespace_scope(Prepared& p, const std::string& file, bool in_src,
                          std::vector<FnDef>& fn_defs,
                          std::vector<Finding>& out) {
  constexpr const char* kRule = "non-const-global";
  constexpr const char* kMsg =
      "mutable namespace-scope variable; make it const/constexpr or move "
      "it into run-scoped state (ExecutionContext)";

  struct Scope {
    bool is_namespace = false;
    std::string preamble;  // statement text that opened a non-ns brace
    std::size_t preamble_start = std::string::npos;
    int ns_components = 0;  // namespace path components this scope added
    bool ns_anonymous = false;
    bool in_parens = false;  // brace opened inside an unclosed '(' — a
                             // default-argument/init brace, not a body
  };
  std::vector<Scope> scopes;
  std::vector<std::string> ns_path;
  int anon_depth = 0;
  int other_depth = 0;   // braces opened by anything but `namespace`
  int paren_depth = 0;   // unclosed '(' in the current statement
  std::string stmt;
  std::size_t stmt_start = std::string::npos;

  auto recompute_parens = [&]() {
    paren_depth = 0;
    for (const char ch : stmt) {
      if (ch == '(') ++paren_depth;
      if (ch == ')') --paren_depth;
    }
  };

  auto analyze = [&]() {
    if (stmt_start != std::string::npos && in_src && is_mutable_decl(stmt)) {
      const int line = line_of(p, stmt_start);
      if (!allowed(p, line, kRule)) out.push_back({file, line, kRule, kMsg});
    }
    stmt.clear();
    stmt_start = std::string::npos;
  };

  auto record_fn = [&](const std::string& preamble, std::size_t start) {
    const std::string s = sanitize_operators(preamble);
    if (!fn_like(s)) return;
    FnDef def;
    def.line = line_of(p, start);
    def.stmt = s;
    std::string joined;
    for (const auto& c : ns_path) {
      if (!joined.empty()) joined += "::";
      joined += c;
    }
    def.ns = joined;
    def.internal = anon_depth > 0 || contains_word(s, "static");
    def.exempt = fn_exempt(s);
    fn_name_params(s, def.name, def.params);
    fn_defs.push_back(std::move(def));
  };

  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const char c = p.code[i];
    if (other_depth > 0) {
      if (c == '{') {
        scopes.push_back({});
        ++other_depth;
      } else if (c == '}') {
        const Scope closed = scopes.back();
        scopes.pop_back();
        --other_depth;
        if (other_depth == 0) {
          // Back at namespace scope: a function body ends the statement;
          // an initializer, class body, or default-argument brace
          // continues it up to the `;`.
          if (closed.in_parens) {
            stmt = closed.preamble;
            stmt_start = closed.preamble_start;
            recompute_parens();
          } else if (closed.preamble.find('(') != std::string::npos) {
            record_fn(closed.preamble, closed.preamble_start);
            stmt.clear();
            stmt_start = std::string::npos;
            paren_depth = 0;
          } else {
            stmt = closed.preamble;
            stmt_start = closed.preamble_start;
            recompute_parens();
          }
        }
      }
      continue;
    }
    switch (c) {
      case '{': {
        if (contains_word(stmt, "namespace")) {
          Scope s;
          s.is_namespace = true;
          static const std::regex kNsName(
              R"(namespace\s+([A-Za-z_][A-Za-z0-9_]*(?:\s*::\s*[A-Za-z_][A-Za-z0-9_]*)*)\s*$)");
          std::smatch m;
          if (std::regex_search(stmt, m, kNsName)) {
            std::string names = m[1].str();
            names.erase(std::remove_if(
                            names.begin(), names.end(),
                            [](unsigned char ch) { return std::isspace(ch); }),
                        names.end());
            std::size_t at = 0;
            while (at != std::string::npos) {
              const auto sep = names.find("::", at);
              ns_path.push_back(names.substr(
                  at, sep == std::string::npos ? sep : sep - at));
              ++s.ns_components;
              at = sep == std::string::npos ? sep : sep + 2;
            }
          } else {
            s.ns_anonymous = true;
            ++anon_depth;
          }
          scopes.push_back(std::move(s));
          stmt.clear();
          stmt_start = std::string::npos;
          paren_depth = 0;
        } else {
          scopes.push_back({false, stmt, stmt_start, 0, false,
                            paren_depth > 0});
          ++other_depth;
        }
        break;
      }
      case '}': {
        if (!scopes.empty()) {
          const Scope& closed = scopes.back();
          if (closed.is_namespace) {
            for (int k = 0; k < closed.ns_components; ++k) ns_path.pop_back();
            if (closed.ns_anonymous) --anon_depth;
          }
          scopes.pop_back();
        }
        stmt.clear();
        stmt_start = std::string::npos;
        paren_depth = 0;
        break;
      }
      case ';':
        analyze();
        paren_depth = 0;
        break;
      default:
        if (c == '(') ++paren_depth;
        if (c == ')') --paren_depth;
        if (!std::isspace(static_cast<unsigned char>(c))) {
          if (stmt_start == std::string::npos) stmt_start = i;
          stmt.push_back(c);
        } else if (!stmt.empty() && stmt.back() != ' ') {
          stmt.push_back(' ');
        }
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// odr-header-def (per-file half): a function definition at namespace
// scope in a header, without inline/constexpr/template/static, is
// compiled into every includer's TU — a straight ODR violation at link
// time (or worse, a silent one under -fvisibility tricks).
// ---------------------------------------------------------------------------

void scan_header_defs(Prepared& p, const std::string& file,
                      const std::vector<FnDef>& fn_defs,
                      std::vector<Finding>& out) {
  for (const auto& def : fn_defs) {
    if (def.exempt || def.internal) continue;
    if (allowed(p, def.line, "odr-header-def")) continue;
    const std::string what = def.name.empty() ? "function" : "'" + def.name + "'";
    out.push_back(
        {file, def.line, "odr-header-def",
         "function " + what +
             " is defined in a header without inline/template: every "
             "includer's translation unit emits a definition (ODR); mark "
             "it inline or move the body to a .cpp"});
  }
}

// ---------------------------------------------------------------------------
// layer-violation: every quoted project include is checked against the
// architecture DAG. Purely per-file (the rank map is total), so the
// gate fires even when a single file is linted in isolation.
// ---------------------------------------------------------------------------

std::string dag_string() {
  std::string s;
  for (const auto& l : layer_names()) {
    if (!s.empty()) s += " -> ";
    s += l;
  }
  return s;
}

void scan_layering(Prepared& p, const std::string& rel,
                   const std::string& file, std::vector<Finding>& out) {
  const int from = layer_rank(rel);
  if (from < 0) return;  // tools/, examples/, tests/ are sinks
  for (const auto& inc : p.includes) {
    std::string target = inc.target;
    if (starts_with(target, "src/")) target = target.substr(4);
    const int to = layer_rank(target);
    if (to < 0 || to <= from) continue;
    if (allowed(p, inc.line, "layer-violation")) continue;
    out.push_back(
        {file, inc.line, "layer-violation",
         "edge " + rel + " -> " + inc.target + " climbs the architecture "
         "DAG: " + layer_names()[static_cast<std::size_t>(from)] + " (layer " +
             std::to_string(from) + ") must not include " +
             layer_names()[static_cast<std::size_t>(to)] + " (layer " +
             std::to_string(to) + "); allowed direction is " + dag_string()});
  }
}

// ---------------------------------------------------------------------------
// shared-mutable-capture: by-reference capture of a non-const,
// non-atomic scalar local in a lambda handed to a parallel region
// entry point (parallel_for/parallel_for_n/for_each/submit), where the
// lambda body also *writes* the local. This is the exact bug class every
// parallel fan-out (the study stages, the Pareto scoring) designs around:
// concurrent += into a captured accumulator is a data race that stays
// invisible until results drift under load.
// ---------------------------------------------------------------------------

// Scalar-typed local declarations (ints, floats, bool, size_t family).
// Aggregates (vectors, buffers) are deliberately not flagged: disjoint
// per-range writes into a shared buffer are the documented pattern.
const std::regex& scalar_decl_re() {
  static const std::regex re(
      R"((?:^|[;{}(,])\s*((?:static\s+|const\s+|volatile\s+)*))"
      R"(((?:std::)?(?:size_t|ptrdiff_t|u?int(?:8|16|32|64)_t|u?intptr_t)\b)"
      R"(|unsigned(?:\s+long)?(?:\s+long)?(?:\s+int)?\b)"
      R"(|signed(?:\s+long)?(?:\s+long)?(?:\s+int)?\b)"
      R"(|long(?:\s+long)?(?:\s+int)?\b|long\s+double\b)"
      R"(|int\b|short\b|char\b|float\b|double\b|bool\b))"
      R"(\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:=(?!=)|\{|;|,|\)))");
  return re;
}

struct ScalarLocal {
  std::string name;
  std::size_t begin = 0;                    // declaration offset
  std::size_t end = std::string::npos;      // enclosing scope close
  bool is_const = false;
  int depth = 0;
};

std::vector<ScalarLocal> collect_scalar_locals(const std::string& code) {
  std::vector<ScalarLocal> locals;
  for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                      scalar_decl_re());
       it != std::sregex_iterator(); ++it) {
    ScalarLocal l;
    l.name = (*it)[3].str();
    l.begin = static_cast<std::size_t>(it->position(3));
    l.is_const = (*it)[1].str().find("const") != std::string::npos;
    locals.push_back(std::move(l));
  }
  // Assign scope extents with a brace walk: a local dies where the
  // innermost brace scope open at its declaration closes. Declarations
  // outside any brace (namespace scope, function parameters before the
  // body opens) keep end = npos — in this tree mutable namespace-scope
  // scalars cannot exist (non-const-global), so treating them as
  // visible-to-EOF safely covers function parameters.
  std::vector<std::size_t> open;   // offsets of currently open '{'
  std::vector<std::size_t> owner(locals.size(), std::string::npos);
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '{') {
      open.push_back(i);
    } else if (code[i] == '}') {
      if (open.empty()) continue;
      const std::size_t from = open.back();
      open.pop_back();
      for (std::size_t k = 0; k < locals.size(); ++k) {
        if (locals[k].end == std::string::npos && locals[k].begin > from &&
            locals[k].begin < i) {
          locals[k].end = i;
        }
      }
    }
  }
  return locals;
}

// Does `body` write `name` (assignment, compound assignment, inc/dec)?
// Member access (.name, ->name, ::name) never counts: that is a write
// through an object, not through the captured local.
bool writes_name(const std::string& body, const std::string& name) {
  std::size_t at = 0;
  while ((at = body.find(name, at)) != std::string::npos) {
    const std::size_t after = at + name.size();
    const bool left_ok =
        at == 0 || (!std::isalnum(static_cast<unsigned char>(body[at - 1])) &&
                    body[at - 1] != '_');
    const bool right_ok =
        after >= body.size() ||
        (!std::isalnum(static_cast<unsigned char>(body[after])) &&
         body[after] != '_');
    if (!left_ok || !right_ok) {
      at = after;
      continue;
    }
    // Reject member/qualified access on the left.
    std::size_t prev = at;
    while (prev > 0 &&
           std::isspace(static_cast<unsigned char>(body[prev - 1])))
      --prev;
    if (prev > 0 &&
        (body[prev - 1] == '.' || body[prev - 1] == ':' ||
         (prev > 1 && body[prev - 2] == '-' && body[prev - 1] == '>'))) {
      at = after;
      continue;
    }
    // ++name / --name
    if (prev > 1 && ((body[prev - 1] == '+' && body[prev - 2] == '+') ||
                     (body[prev - 1] == '-' && body[prev - 2] == '-'))) {
      return true;
    }
    // name ++ / name -- / name = / name op=
    std::size_t next = after;
    while (next < body.size() &&
           std::isspace(static_cast<unsigned char>(body[next])))
      ++next;
    if (next < body.size()) {
      const char c0 = body[next];
      const char c1 = next + 1 < body.size() ? body[next + 1] : '\0';
      const char c2 = next + 2 < body.size() ? body[next + 2] : '\0';
      if ((c0 == '+' && c1 == '+') || (c0 == '-' && c1 == '-')) return true;
      if (c0 == '=' && c1 != '=') return true;
      if (c1 == '=' && c2 != '=' &&
          (c0 == '+' || c0 == '-' || c0 == '*' || c0 == '/' || c0 == '%' ||
           c0 == '&' || c0 == '|' || c0 == '^')) {
        return true;
      }
      if ((c0 == '<' && c1 == '<' && c2 == '=') ||
          (c0 == '>' && c1 == '>' && c2 == '=')) {
        return true;
      }
    }
    at = after;
  }
  return false;
}

// Does `text` declare `name` itself (shadowing / lambda parameter)?
bool declares_name(const std::string& text, const std::string& name) {
  for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                      scalar_decl_re());
       it != std::sregex_iterator(); ++it) {
    if ((*it)[3].str() == name) return true;
  }
  return false;
}

void scan_shared_captures(Prepared& p, const std::string& file,
                          std::vector<Finding>& out) {
  constexpr const char* kRule = "shared-mutable-capture";
  const std::string& code = p.code;
  static const std::regex kEntry(
      R"(\b(?:parallel_for_n|parallel_for|for_each|submit)\s*\()");
  std::vector<ScalarLocal> locals;  // collected lazily on first hit
  bool locals_ready = false;

  for (auto it = std::sregex_iterator(code.begin(), code.end(), kEntry);
       it != std::sregex_iterator(); ++it) {
    const auto call_open =
        static_cast<std::size_t>(it->position()) + it->length() - 1;
    // Bound the call's argument list.
    int depth = 0;
    std::size_t call_close = code.size();
    for (std::size_t i = call_open; i < code.size(); ++i) {
      if (code[i] == '(') ++depth;
      if (code[i] == ')' && --depth == 0) {
        call_close = i;
        break;
      }
    }
    // Find lambda intros among the arguments: '[' whose previous
    // non-space char is '(' or ',' (array subscripts follow a value).
    for (std::size_t i = call_open + 1; i < call_close; ++i) {
      if (code[i] != '[') continue;
      std::size_t prev = i;
      while (prev > 0 &&
             std::isspace(static_cast<unsigned char>(code[prev - 1])))
        --prev;
      if (prev == 0 || (code[prev - 1] != '(' && code[prev - 1] != ','))
        continue;
      // Capture list up to the matching ']'.
      int bdepth = 0;
      std::size_t cap_end = std::string::npos;
      for (std::size_t k = i; k < call_close; ++k) {
        if (code[k] == '[') ++bdepth;
        if (code[k] == ']' && --bdepth == 0) {
          cap_end = k;
          break;
        }
      }
      if (cap_end == std::string::npos) continue;
      const std::string captures = code.substr(i + 1, cap_end - i - 1);
      // Parameter list (optional) and body.
      std::size_t cursor = cap_end + 1;
      while (cursor < code.size() &&
             std::isspace(static_cast<unsigned char>(code[cursor])))
        ++cursor;
      std::string param_text;
      if (cursor < code.size() && code[cursor] == '(') {
        int pdepth = 0;
        const std::size_t popen = cursor;
        for (; cursor < code.size(); ++cursor) {
          if (code[cursor] == '(') ++pdepth;
          if (code[cursor] == ')' && --pdepth == 0) break;
        }
        param_text = code.substr(popen, cursor - popen + 1);
        ++cursor;
      }
      const std::size_t bopen = code.find('{', cursor);
      if (bopen == std::string::npos) continue;
      int cdepth = 0;
      std::size_t bclose = code.size();
      for (std::size_t k = bopen; k < code.size(); ++k) {
        if (code[k] == '{') ++cdepth;
        if (code[k] == '}' && --cdepth == 0) {
          bclose = k;
          break;
        }
      }
      const std::string body = code.substr(bopen, bclose - bopen + 1);

      // Candidate captured names.
      bool default_ref = false;
      std::vector<std::string> explicit_refs;
      {
        std::stringstream ss(captures);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
          const auto b = tok.find_first_not_of(" \t\n");
          if (b == std::string::npos) continue;
          const auto e = tok.find_last_not_of(" \t\n");
          tok = tok.substr(b, e - b + 1);
          if (tok == "&") {
            default_ref = true;
          } else if (tok.size() > 1 && tok[0] == '&' &&
                     tok.find('=') == std::string::npos) {
            std::string nm = tok.substr(1);
            const auto nb = nm.find_first_not_of(" \t\n");
            if (nb != std::string::npos) explicit_refs.push_back(
                nm.substr(nb));
          }
        }
      }
      if (!default_ref && explicit_refs.empty()) continue;
      if (!locals_ready) {
        locals = collect_scalar_locals(code);
        locals_ready = true;
      }

      std::set<std::string> flagged;
      auto consider = [&](const ScalarLocal& l) {
        if (l.is_const) return;
        if (l.begin >= i) return;                       // declared after
        if (l.end != std::string::npos && l.end < i) return;  // dead scope
        if (flagged.count(l.name) != 0) return;
        if (declares_name(param_text, l.name)) return;  // shadowed param
        if (declares_name(body, l.name)) return;        // shadowed local
        if (!writes_name(body, l.name)) return;
        flagged.insert(l.name);
      };
      for (const auto& l : locals) {
        const bool named =
            std::find(explicit_refs.begin(), explicit_refs.end(), l.name) !=
            explicit_refs.end();
        if (named || default_ref) consider(l);
      }
      const int line = line_of(p, i);
      for (const auto& name : flagged) {
        if (allowed(p, line, kRule)) continue;
        out.push_back(
            {file, line, kRule,
             "local '" + name + "' is captured by reference and written "
             "inside a lambda handed to a parallel region; workers race "
             "on it — give each worker its own slot (index by the worker "
             "id) or make it atomic"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// bare-exit-code: command handlers in src/cli and tools/ must return
// named kExit* constants. Flags `return <int-literal>;` and
// `return cond ? <lit> : <lit>;` — expressions that merely contain a
// literal (substr(b, e + 1), arithmetic) are fine.
// ---------------------------------------------------------------------------

void scan_bare_exit(Prepared& p, const std::string& file,
                    std::vector<Finding>& out) {
  constexpr const char* kRule = "bare-exit-code";
  static const std::regex re(
      R"(\breturn\s+(?:\(\s*)?-?\d+[uUlL]*\s*(?:\)\s*)?;)"
      R"(|\breturn\b[^;{}?]*\?\s*-?\d+\s*:\s*-?\d+\s*;)");
  scan_pattern(p, re, file, kRule,
               "integer-literal exit code in a command handler; return a "
               "named kExit* constant (kExitOk/kExitUsage/kExitBadInput/...) "
               "so exit-code meaning stays greppable",
               out);
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

struct Analysis {
  std::string path;  // as given to the linter
  std::string rel;   // repo-relative tail
  Prepared prep;
  std::vector<FnDef> fn_defs;
};

void file_passes(Analysis& a, std::vector<Finding>& out) {
  Prepared& p = a.prep;
  const std::string& rel = a.rel;
  const std::string& path = a.path;

  if (starts_with(rel, "src/memsim/") || starts_with(rel, "src/model/") ||
      starts_with(rel, "src/study/") || starts_with(rel, "src/arch/") ||
      starts_with(rel, "src/io/")) {
    static const std::regex re(
        R"(\b(?:rand|srand|clock|time|gettimeofday)\s*\()"
        R"(|\brandom_device\b)"
        R"(|\b(?:steady_clock|system_clock|high_resolution_clock)\b)"
        R"(|\bWallTimer\b)");
    scan_pattern(p, re, path, "nondeterministic-call",
                 rule_description("nondeterministic-call").c_str(), out);
  }

  if (starts_with(rel, "src/kernels/") || starts_with(rel, "src/memsim/") ||
      starts_with(rel, "src/io/")) {
    static const std::regex re(
        R"(\bnew\b|\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\()");
    scan_pattern(p, re, path, "naked-new",
                 rule_description("naked-new").c_str(), out);
  }

  // The declaration scanner feeds non-const-global (src/ only) and the
  // ODR passes (function definitions, any scanned file).
  scan_namespace_scope(p, path, starts_with(rel, "src/"), a.fn_defs, out);

  if ((starts_with(rel, "src/") || starts_with(rel, "tools/")) &&
      is_header(rel)) {
    scan_header_defs(p, path, a.fn_defs, out);
  }

  if (starts_with(rel, "src/") && ends_with(rel, ".hpp")) {
    if (!p.has_pragma_once && !allowed(p, 1, "pragma-once")) {
      out.push_back({path, 1, "pragma-once",
                     rule_description("pragma-once")});
    }
  }

  scan_layering(p, rel, path, out);

  if (starts_with(rel, "src/")) {
    scan_shared_captures(p, path, out);
  }

  // Command handlers only: src/cli plus the tools' entry points.
  // Library code under tools/ may legitimately return -1 sentinels.
  if (starts_with(rel, "src/cli/") ||
      (starts_with(rel, "tools/") && ends_with(rel, "/main.cpp"))) {
    scan_bare_exit(p, path, out);
  }
}

// ---------------------------------------------------------------------------
// Project passes
// ---------------------------------------------------------------------------

// Resolve an include target against the scanned node set. Project
// includes are written relative to the source root ("common/rng.hpp");
// a same-directory fallback covers tools-local includes.
int resolve_include(const std::map<std::string, int>& node_of,
                    const std::string& includer_rel,
                    const std::string& target) {
  std::string t = target;
  if (starts_with(t, "./")) t = t.substr(2);
  for (const std::string& cand :
       {starts_with(t, "src/") ? t : "src/" + t, t,
        includer_rel.substr(0, includer_rel.rfind('/') + 1) + t}) {
    const auto it = node_of.find(cand);
    if (it != node_of.end()) return it->second;
  }
  return -1;
}

IncludeGraph graph_of(const std::vector<Analysis>& as) {
  IncludeGraph g;
  for (const auto& a : as) g.nodes.push_back(a.rel);
  std::sort(g.nodes.begin(), g.nodes.end());
  g.nodes.erase(std::unique(g.nodes.begin(), g.nodes.end()), g.nodes.end());
  std::map<std::string, int> node_of;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    node_of[g.nodes[i]] = static_cast<int>(i);
  }
  for (const auto& a : as) {
    const int from = node_of.at(a.rel);
    for (const auto& inc : a.prep.includes) {
      const int to = resolve_include(node_of, a.rel, inc.target);
      if (to >= 0 && to != from) g.edges.push_back({from, to, inc.line});
    }
  }
  std::sort(g.edges.begin(), g.edges.end(),
            [](const IncludeGraph::Edge& x, const IncludeGraph::Edge& y) {
              return std::tie(x.from, x.to, x.line) <
                     std::tie(y.from, y.to, y.line);
            });
  return g;
}

// include-cycle: one finding per edge that participates in a cycle,
// carrying the shortest cycle through that edge.
void project_cycles(std::vector<Analysis>& as, std::vector<Finding>& out) {
  const IncludeGraph g = graph_of(as);
  const std::size_t n = g.nodes.size();
  std::vector<std::vector<int>> adj(n);
  for (const auto& e : g.edges) adj[static_cast<std::size_t>(e.from)]
      .push_back(e.to);

  std::map<std::string, Analysis*> by_rel;
  for (auto& a : as) by_rel[a.rel] = &a;

  for (const auto& e : g.edges) {
    // BFS from e.to back to e.from = shortest cycle through this edge.
    std::vector<int> parent(n, -2);
    std::deque<int> q{e.to};
    parent[static_cast<std::size_t>(e.to)] = -1;
    bool found = e.to == e.from;
    while (!q.empty() && !found) {
      const int u = q.front();
      q.pop_front();
      for (const int v : adj[static_cast<std::size_t>(u)]) {
        if (parent[static_cast<std::size_t>(v)] != -2) continue;
        parent[static_cast<std::size_t>(v)] = u;
        if (v == e.from) {
          found = true;
          break;
        }
        q.push_back(v);
      }
    }
    if (!found) continue;
    std::vector<int> path;  // e.from -> ... -> e.to reversed from parents
    for (int v = e.from; v != -1; v = parent[static_cast<std::size_t>(v)]) {
      path.push_back(v);
      if (v == e.to) break;
    }
    std::reverse(path.begin(), path.end());  // e.to ... e.from
    std::string cycle = g.nodes[static_cast<std::size_t>(e.from)] + " -> " +
                        g.nodes[static_cast<std::size_t>(e.to)];
    for (std::size_t k = 1; k < path.size(); ++k) {
      cycle += " -> " + g.nodes[static_cast<std::size_t>(path[k])];
    }
    Analysis* a = by_rel.at(g.nodes[static_cast<std::size_t>(e.from)]);
    if (allowed(a->prep, e.line, "include-cycle")) continue;
    out.push_back({a->path, e.line, "include-cycle",
                   "include cycle: " + cycle +
                       "; break it with a forward declaration or an "
                       "interface split"});
  }
}

// odr-header-def (cross-TU half): the same external-linkage,
// identical-signature function defined in two .cpp files is an ODR
// violation the linker may or may not catch (and inline namespaces or
// static initialization order make it worse when it doesn't).
void project_duplicate_defs(std::vector<Analysis>& as,
                            std::vector<Finding>& out) {
  struct Site {
    Analysis* a;
    const FnDef* def;
  };
  std::map<std::string, std::vector<Site>> index;
  for (auto& a : as) {
    if (!starts_with(a.rel, "src/") || !is_translation_unit(a.rel)) continue;
    for (const auto& def : a.fn_defs) {
      if (def.internal || def.name.empty() || def.name == "main") continue;
      if (contains_word(def.stmt, "template")) continue;
      index[def.ns + "::" + def.name + def.params].push_back({&a, &def});
    }
  }
  for (auto& [key, sites] : index) {
    std::set<std::string> files;
    for (const auto& s : sites) files.insert(s.a->rel);
    if (files.size() < 2) continue;
    std::string where;
    for (const auto& s : sites) {
      if (!where.empty()) where += ", ";
      where += s.a->rel + ":" + std::to_string(s.def->line);
    }
    for (const auto& s : sites) {
      if (allowed(s.a->prep, s.def->line, "odr-header-def")) continue;
      out.push_back(
          {s.a->path, s.def->line, "odr-header-def",
           "'" + s.def->name + s.def->params + "' is defined in " +
               std::to_string(files.size()) + " translation units (" +
               where + "); one-definition rule — keep one definition and "
               "declare it in a header, or give the copies internal "
               "linkage"});
    }
  }
}

// stale-suppression: every allow() entry that silenced nothing is
// itself a finding. Two phases so an allow(stale-suppression) escape
// (for the rare deliberate placeholder) is consumed before its own
// staleness is judged.
void project_stale(std::vector<Analysis>& as, std::vector<Finding>& out) {
  constexpr const char* kRule = "stale-suppression";
  auto emit = [&](Analysis& a, const AllowEntry& entry) {
    if (allowed(a.prep, entry.line, kRule)) return;
    const std::string note =
        known_rule(entry.rule) || entry.rule == "*"
            ? ""
            : " (unknown rule '" + entry.rule + "')";
    out.push_back({a.path, entry.line, kRule,
                   "suppression 'fpr-lint: allow(" + entry.rule +
                       ")' matches no finding on this or the next line" +
                       note + "; delete it so it cannot outlive the code "
                       "it excused"});
  };
  for (auto& a : as) {
    // Snapshot: allowed() above may mark stale-suppression entries used.
    const std::vector<AllowEntry> snapshot = a.prep.allows;
    for (const auto& entry : snapshot) {
      if (!entry.used && entry.rule != kRule) emit(a, entry);
    }
    for (const auto& entry : a.prep.allows) {
      if (!entry.used && entry.rule == kRule) emit(a, entry);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::vector<std::string> rule_names() {
  std::vector<std::string> names;
  for (const auto& r : kRules) names.emplace_back(r.name);
  return names;
}

std::string rule_description(const std::string& rule) {
  for (const auto& r : kRules) {
    if (rule == r.name) return r.desc;
  }
  throw std::invalid_argument("fpr-lint: unknown rule '" + rule + "'");
}

int layer_rank(const std::string& rel_or_dir) {
  std::string rel = rel_or_dir;
  if (starts_with(rel, "src/")) rel = rel.substr(4);
  const std::string dir = first_component(rel);
  int rank = 0;
  for (const char* l : kLayerDirs) {
    if (dir == l) return rank;
    ++rank;
  }
  return -1;
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names(std::begin(kLayerDirs),
                                              std::end(kLayerDirs));
  return names;
}

std::vector<Finding> lint_sources(const std::vector<SourceFile>& files,
                                  const std::vector<std::string>& enabled) {
  for (const auto& r : enabled) {
    if (!known_rule(r)) {
      throw std::invalid_argument("fpr-lint: unknown rule '" + r + "'");
    }
  }

  std::vector<Analysis> as;
  as.reserve(files.size());
  std::vector<Finding> findings;
  for (const auto& f : files) {
    Analysis a;
    a.path = f.path;
    a.rel = repo_rel(f.path);
    a.prep = prepare(f.text);
    file_passes(a, findings);
    as.push_back(std::move(a));
  }
  project_cycles(as, findings);
  project_duplicate_defs(as, findings);
  project_stale(as, findings);

  if (!enabled.empty()) {
    findings.erase(
        std::remove_if(findings.begin(), findings.end(),
                       [&](const Finding& f) {
                         return std::find(enabled.begin(), enabled.end(),
                                          f.rule) == enabled.end();
                       }),
        findings.end());
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.file, a.line, a.rule) <
                            std::tie(b.file, b.line, b.rule);
                   });
  return findings;
}

std::vector<Finding> lint_source(const std::string& path,
                                 std::string_view text,
                                 const std::vector<std::string>& enabled) {
  return lint_sources({{path, std::string(text)}}, enabled);
}

std::vector<std::string> collect_tree(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path r(root);
  if (fs::is_regular_file(r)) return {root};
  if (!fs::is_directory(r)) {
    throw std::runtime_error("fpr-lint: no such file or directory: " + root);
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(r)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
      files.push_back(entry.path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

IncludeGraph build_include_graph(const std::vector<SourceFile>& files) {
  std::vector<Analysis> as;
  as.reserve(files.size());
  for (const auto& f : files) {
    Analysis a;
    a.path = f.path;
    a.rel = repo_rel(f.path);
    a.prep = prepare(f.text);
    as.push_back(std::move(a));
  }
  return graph_of(as);
}

std::string include_graph_dot(const IncludeGraph& graph) {
  // Condense to one node per source directory ("src/common/x.hpp" ->
  // "common"); count the file-level edges each directory pair carries.
  auto dir_of = [](const std::string& rel) {
    std::string r = rel;
    if (starts_with(r, "src/")) r = r.substr(4);
    return first_component(r);
  };
  std::map<std::string, int> file_count;
  for (const auto& n : graph.nodes) ++file_count[dir_of(n)];
  std::map<std::pair<std::string, std::string>, int> edge_count;
  for (const auto& e : graph.edges) {
    const std::string from = dir_of(graph.nodes[static_cast<std::size_t>(
        e.from)]);
    const std::string to =
        dir_of(graph.nodes[static_cast<std::size_t>(e.to)]);
    if (from != to) ++edge_count[{from, to}];
  }

  auto sort_key = [](const std::string& dir) {
    const int rank = layer_rank(dir);
    // Layered dirs first (by rank), sinks after (alphabetical).
    return std::make_pair(rank < 0 ? 1 : 0, rank < 0 ? dir : std::string(
        1, static_cast<char>('0' + rank)));
  };
  std::vector<std::string> dirs;
  for (const auto& [d, _] : file_count) dirs.push_back(d);
  std::sort(dirs.begin(), dirs.end(),
            [&](const std::string& x, const std::string& y) {
              return sort_key(x) < sort_key(y);
            });

  std::ostringstream dot;
  dot << "digraph fpr_include_graph {\n"
      << "  // Edges point from includer to included directory; labels\n"
      << "  // count file-level include edges. Layer ranks follow the\n"
      << "  // architecture DAG (see docs/ARCHITECTURE.md).\n"
      << "  rankdir=\"BT\";\n"
      << "  node [shape=box];\n";
  for (const auto& d : dirs) {
    const int rank = layer_rank(d);
    dot << "  \"" << d << "\" [label=\"" << d << "\\n";
    if (rank >= 0) {
      dot << "layer " << rank;
    } else {
      dot << "sink";
    }
    dot << " · " << file_count[d] << " files\"];\n";
  }
  for (const auto& d : dirs) {
    for (const auto& [pair, count] : edge_count) {
      if (pair.first != d) continue;
      dot << "  \"" << pair.first << "\" -> \"" << pair.second
          << "\" [label=\"" << count << "\"];\n";
    }
  }
  dot << "}\n";
  return dot.str();
}

}  // namespace fpr::lint
