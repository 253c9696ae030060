// deps — layering / include-graph static analysis pass
// (`fairlaw_check deps`).
//
// Where lint checks local, per-file invariants, deps checks the
// architecture. It reads every #include directive in src/, tools/,
// tests/, bench/, and examples/ off the shared token stream (an
// #include inside a comment or string literal is not an edge; see
// tools/deps_clean_fixture/), builds the file- and module-level
// dependency graphs, and enforces the declared layering DAG:
//
//   rank 0  base                          (no dependencies)
//   rank 1  stats
//   rank 2  data
//   rank 3  metrics, legal, causal
//   rank 4  audit, mitigation, ml, simulation, serve
//   rank 5  core                          (API aggregation: registry,
//                                          suite, umbrella header)
//   rank 6  tools, tests, bench, examples
//
// A file may include headers of its own module, of a lower-ranked
// module, or of a same-ranked module (same-rank edges are legal as long
// as the module graph stays acyclic — e.g. mitigation -> ml). `core` is
// the aggregation layer: it may depend on everything below rank 6, and
// nothing inside src/ may depend on it. Checks:
//
//   1. layering            include whose target module ranks strictly
//                          higher than the including module.
//   2. include-cycle       cycle in the file-level include graph.
//   3. module-cycle        cycle in the module-level graph (catches
//                          A -> B and B -> A through different files,
//                          which no single file-level cycle shows).
//   4. unused-include      IWYU-lite: a project header is included but
//                          none of the identifiers it provides appear in
//                          the including file. `// IWYU pragma: keep`
//                          suppresses; `// IWYU pragma: export` marks a
//                          deliberate re-export (umbrella headers).
//   5. transitive-include  IWYU-lite: a src/ file uses an identifier
//                          that only a transitively included header
//                          provides; the include should be direct.
//   6. unknown-module      a file whose module is not in the DAG.
//
// No rule has an allow marker: the IWYU pragmas are the only escapes.
// The pass returns the module graph (nodes with ranks and file counts,
// edges with include counts) as Graphviz DOT; `--dot` writes it, and
// the ctest registration emits it into the build directory on every
// run so architecture drift is visible per PR.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "tools/analysis/lexer.h"
#include "tools/analysis/passes.h"
#include "tools/analysis/report.h"

namespace fairlaw::analysis {
namespace {

namespace fs = std::filesystem;

struct ModuleSpec {
  const char* name;
  int rank;
};

// The declared layering DAG. Keep in sync with the "Layering" section of
// DESIGN.md; adding a src/ module without declaring it here is itself a
// violation (unknown-module).
constexpr ModuleSpec kModules[] = {
    {"base", 0},       {"obs", 1},        {"stats", 1},
    {"data", 2},       {"metrics", 3},    {"legal", 3},
    {"causal", 3},     {"audit", 4},      {"mitigation", 4},
    {"ml", 4},         {"simulation", 4}, {"serve", 4},
    {"core", 5},
    {"tools", 6},      {"tests", 6},      {"bench", 6},
    {"examples", 6},
};

int RankOf(const std::string& module) {
  for (const ModuleSpec& spec : kModules) {
    if (module == spec.name) return spec.rank;
  }
  return -1;
}

struct IncludeEdge {
  std::string target;  // repo-relative path of the included project file
  size_t line = 0;
  bool pragma_keep = false;    // `// IWYU pragma: keep`
  bool pragma_export = false;  // `// IWYU pragma: export`
};

struct FileInfo {
  std::string rel;     // repo-relative path, generic separators
  std::string module;  // "base", ..., "tools"
  bool is_header = false;
  std::vector<IncludeEdge> includes;  // project includes only
  /// Lenient provision set (declared names + call-heads + constants);
  /// drives the unused-include check, where over-inclusion only makes the
  /// check quieter.
  std::set<std::string> provided;
  /// Strict provision set: names actually declared here (class / struct /
  /// enum / union / using / #define). Drives the transitive-include
  /// check, where over-inclusion would mean false positives.
  std::set<std::string> declared;
  std::set<std::string> used_tokens;  // identifiers the file references
};

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "alignas",   "alignof",  "auto",     "bool",      "break",
      "case",      "catch",    "char",     "class",     "const",
      "consteval", "constexpr", "continue", "decltype",  "default",
      "delete",    "do",       "double",   "else",      "enum",
      "explicit",  "export",   "extern",   "false",     "final",
      "float",     "for",      "friend",   "goto",      "if",
      "inline",    "int",      "long",     "mutable",   "namespace",
      "new",       "noexcept", "nullptr",  "operator",  "override",
      "private",   "protected", "public",  "requires",  "return",
      "short",     "signed",   "sizeof",   "static",    "struct",
      "switch",    "template", "this",     "throw",     "true",
      "try",       "typedef",  "typename", "union",     "unsigned",
      "using",     "virtual",  "void",     "volatile",  "while",
  };
  return kKeywords;
}

/// The punctuator right after token `i` ('\0' when the next token is
/// not one): the lookahead the provision scan keys on — '(' for call
/// and declaration heads, '=' / ';' ending a using-declaration. The
/// token stream ends in a kEndOfFile sentinel, so `i + 1` is in range
/// for every identifier.
char NextPunct(std::span<const Token> tokens, size_t i) {
  const Token& next = tokens[i + 1];
  return next.kind == TokenKind::kPunct ? next.text[0] : '\0';
}

/// Heuristic identifier-provision scan for a header. `declared` gets the
/// names this header introduces (class/struct/enum/union, using-aliases,
/// #define); `provided` additionally gets every call/declaration head
/// (identifier followed by '(') and constant-style names (kCamel /
/// ALL_CAPS). The lenient set keeps unused-include conservative; the
/// strict set keeps transitive-include precise.
void ExtractProvided(std::span<const Token> tokens,
                     std::set<std::string>* provided,
                     std::set<std::string>* declared) {
  std::vector<size_t> idents;  // indices of the identifier tokens
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier) idents.push_back(i);
  }
  for (size_t t = 0; t < idents.size(); ++t) {
    const std::string& tok = tokens[idents[t]].text;
    const char next = NextPunct(tokens, idents[t]);

    if (tok == "class" || tok == "struct" || tok == "enum" ||
        tok == "union") {
      // The declared name is the first following identifier that is not a
      // macro invocation (an attribute macro like FAIRLAW_CAPABILITY(..)).
      for (size_t j = t + 1; j < idents.size() && j < t + 5; ++j) {
        const std::string& cand = tokens[idents[j]].text;
        if (cand == "class" || Keywords().count(cand) > 0) continue;
        if (NextPunct(tokens, idents[j]) == '(') continue;  // attribute macro
        provided->insert(cand);
        declared->insert(cand);
        break;
      }
      continue;
    }
    if (tok == "using") {
      // `using X = ...;`, `using ns::X;`; skip `using namespace ...;`.
      if (t + 1 < idents.size() &&
          tokens[idents[t + 1]].text == "namespace") {
        continue;
      }
      std::string last;
      for (size_t j = t + 1; j < idents.size(); ++j) {
        const char after = NextPunct(tokens, idents[j]);
        last = tokens[idents[j]].text;
        if (after == '=' || after == ';') break;
      }
      if (!last.empty()) {
        provided->insert(last);
        declared->insert(last);
      }
      continue;
    }
    if (Keywords().count(tok) > 0) continue;
    if (next == '(') {
      provided->insert(tok);
      continue;
    }
    // Constant-style names.
    if (tok.size() >= 2 && tok[0] == 'k' &&
        std::isupper(static_cast<unsigned char>(tok[1]))) {
      provided->insert(tok);
      continue;
    }
    bool all_caps = tok.size() >= 2;
    for (const char c : tok) {
      if (std::islower(static_cast<unsigned char>(c))) {
        all_caps = false;
        break;
      }
    }
    if (all_caps) provided->insert(tok);
  }
  // #define NAME on one directive line (include guards excluded).
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!tokens[i].IsPunct("#") || !tokens[i + 1].IsIdent("define")) continue;
    const Token& name = tokens[i + 2];
    if (name.kind != TokenKind::kIdentifier || name.line != tokens[i].line) {
      continue;
    }
    if (name.text.rfind("_H_") != name.text.size() - 3) {
      provided->insert(name.text);
      declared->insert(name.text);
    }
  }
}

class DepsAnalyzer {
 public:
  DepsAnalyzer(const fs::path& root, Reporter* reporter)
      : root_(root), reporter_(*reporter) {}

  void CheckTree(const SourceTree& tree) {
    for (const SourceFile& file : tree.files) LoadFile(file);
    CheckLayeringAndBuildGraphs();
    CheckFileCycles();
    CheckModuleCycles();
    CheckUnusedIncludes();
    CheckTransitiveUse();
  }

  std::string GraphDot() const;

 private:
  /// Records one file's project includes, referenced identifiers and
  /// (for headers) provided identifiers, all off the shared token
  /// stream.
  void LoadFile(const SourceFile& file) {
    FileInfo info;
    info.rel = file.rel;
    info.module = ModuleOf(info.rel);
    info.is_header = file.path.extension() == ".h";

    const std::span<const Token> tokens(file.lex.tokens);
    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& token = tokens[i];
      if (token.IsPunct("#") && tokens[i + 1].IsIdent("include") &&
          tokens[i + 1].line == token.line) {
        const Token& target = tokens[i + 2];
        if (target.kind == TokenKind::kString && target.line == token.line) {
          AddInclude(target.text, token.line, file.lex.comments, &info);
        }
        // The rest of the directive line is a path, not code.
        while (tokens[i + 1].kind != TokenKind::kEndOfFile &&
               tokens[i + 1].line == token.line) {
          ++i;
        }
        continue;
      }
      if (token.kind == TokenKind::kIdentifier) {
        info.used_tokens.insert(token.text);
      }
    }
    if (info.is_header) {
      ExtractProvided(tokens, &info.provided, &info.declared);
    }
    files_.emplace(info.rel, std::move(info));
  }

  std::string ModuleOf(const std::string& rel) const {
    if (rel.rfind("src/", 0) == 0) {
      const size_t slash = rel.find('/', 4);
      if (slash != std::string::npos) return rel.substr(4, slash - 4);
      return "src";  // stray file directly under src/
    }
    const size_t slash = rel.find('/');
    return slash == std::string::npos ? rel : rel.substr(0, slash);
  }

  /// Resolves one `#include "target"` on `line` against the include
  /// roots — src/ for library headers, the repo root for anything else —
  /// and reads its IWYU pragma from the comment on the same line.
  void AddInclude(const std::string& target, size_t line,
                  const std::vector<Comment>& comments, FileInfo* info) {
    IncludeEdge edge;
    edge.line = line;
    for (const Comment& comment : comments) {
      if (comment.line != line) continue;
      edge.pragma_keep |=
          comment.text.find("IWYU pragma: keep") != std::string::npos;
      edge.pragma_export |=
          comment.text.find("IWYU pragma: export") != std::string::npos;
    }
    if (fs::is_regular_file(root_ / "src" / target)) {
      edge.target = "src/" + target;
    } else if (fs::is_regular_file(root_ / target)) {
      edge.target = target;
    } else {
      return;  // unresolvable (generated or external); not ours to judge
    }
    info->includes.push_back(std::move(edge));
  }

  void Report(std::string file, size_t line, std::string rule,
              std::string message) {
    reporter_.ReportAlways(std::move(file), line, std::move(rule),
                           std::move(message));
  }

  /// Check 1 (+ unknown modules) and the module-level edge map.
  void CheckLayeringAndBuildGraphs() {
    for (const auto& [rel, info] : files_) {
      const int rank = RankOf(info.module);
      if (rank < 0) {
        Report(rel, 1, "unknown-module",
               "module '" + info.module +
                   "' is not declared in the layering DAG; add it to "
                   "kModules in tools/analysis/deps.cc and to DESIGN.md");
        continue;
      }
      for (const IncludeEdge& edge : info.includes) {
        const auto it = files_.find(edge.target);
        if (it == files_.end()) continue;
        const std::string& target_module = it->second.module;
        if (target_module != info.module) {
          module_edges_[{info.module, target_module}] += 1;
        }
        const int target_rank = RankOf(target_module);
        if (target_rank < 0) continue;  // reported above for that file
        if (target_rank > rank) {
          Report(rel, edge.line, "layering",
                 "module '" + info.module + "' (rank " +
                     std::to_string(rank) + ") must not include '" +
                     edge.target + "' from higher-ranked module '" +
                     target_module + "' (rank " +
                     std::to_string(target_rank) +
                     "); see the layering DAG in DESIGN.md");
        }
      }
    }
  }

  /// Check 2: DFS over the file-level include graph.
  void CheckFileCycles() {
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    for (const auto& [rel, info] : files_) {
      if (color[rel] == 0) DfsFile(rel, &color, &stack);
    }
  }

  void DfsFile(const std::string& rel, std::map<std::string, int>* color,
               std::vector<std::string>* stack) {
    (*color)[rel] = 1;
    stack->push_back(rel);
    const auto it = files_.find(rel);
    if (it != files_.end()) {
      for (const IncludeEdge& edge : it->second.includes) {
        if (files_.find(edge.target) == files_.end()) continue;
        const int c = (*color)[edge.target];
        if (c == 0) {
          DfsFile(edge.target, color, stack);
        } else if (c == 1) {
          std::string chain;
          const auto begin =
              std::find(stack->begin(), stack->end(), edge.target);
          for (auto s = begin; s != stack->end(); ++s) chain += *s + " -> ";
          chain += edge.target;
          Report(rel, edge.line, "include-cycle",
                 "include cycle: " + chain);
        }
      }
    }
    stack->pop_back();
    (*color)[rel] = 2;
  }

  /// Check 3: cycles in the module graph (self-edges excluded). Upward
  /// edges are already layering violations, so any cycle found here runs
  /// through same-rank modules.
  void CheckModuleCycles() {
    std::map<std::string, std::set<std::string>> adjacency;
    for (const auto& [edge, count] : module_edges_) {
      adjacency[edge.first].insert(edge.second);
    }
    std::map<std::string, int> color;
    std::vector<std::string> stack;
    for (const auto& [module, targets] : adjacency) {
      if (color[module] == 0) DfsModule(module, adjacency, &color, &stack);
    }
  }

  void DfsModule(const std::string& module,
                 const std::map<std::string, std::set<std::string>>& adj,
                 std::map<std::string, int>* color,
                 std::vector<std::string>* stack) {
    (*color)[module] = 1;
    stack->push_back(module);
    const auto it = adj.find(module);
    if (it != adj.end()) {
      for (const std::string& next : it->second) {
        const int c = (*color)[next];
        if (c == 0) {
          DfsModule(next, adj, color, stack);
        } else if (c == 1) {
          std::string chain;
          const auto begin = std::find(stack->begin(), stack->end(), next);
          for (auto s = begin; s != stack->end(); ++s) chain += *s + " -> ";
          chain += next;
          Report("(module graph)", 0, "module-cycle",
                 "module cycle: " + chain);
        }
      }
    }
    stack->pop_back();
    (*color)[module] = 2;
  }

  /// Identifiers a header makes visible to its includers: its own plus,
  /// recursively, those of headers it re-exports via IWYU pragma.
  const std::set<std::string>& ProvidesClosure(const std::string& rel) {
    auto cached = provides_closure_.find(rel);
    if (cached != provides_closure_.end()) return cached->second;
    // Seed the cache first so re-export cycles terminate.
    std::set<std::string>& result = provides_closure_[rel];
    const auto it = files_.find(rel);
    if (it == files_.end()) return result;
    result = it->second.provided;
    for (const IncludeEdge& edge : it->second.includes) {
      if (!edge.pragma_export) continue;
      const std::set<std::string>& nested = ProvidesClosure(edge.target);
      result.insert(nested.begin(), nested.end());
    }
    return provides_closure_[rel];
  }

  static bool IsOwnHeader(const FileInfo& file, const std::string& target) {
    if (file.is_header) return false;
    const size_t dot = file.rel.rfind('.');
    return dot != std::string::npos &&
           target == file.rel.substr(0, dot) + ".h";
  }

  /// Check 4: every non-exempt include must contribute at least one
  /// referenced identifier.
  void CheckUnusedIncludes() {
    for (const auto& [rel, info] : files_) {
      for (const IncludeEdge& edge : info.includes) {
        if (edge.pragma_keep || edge.pragma_export) continue;
        if (IsOwnHeader(info, edge.target)) continue;
        const std::set<std::string>& provides = ProvidesClosure(edge.target);
        bool used = false;
        for (const std::string& ident : provides) {
          if (info.used_tokens.count(ident) > 0) {
            used = true;
            break;
          }
        }
        if (!used) {
          Report(rel, edge.line, "unused-include",
                 "'" + edge.target +
                     "' is included but none of its identifiers are "
                     "referenced; drop it or mark it '// IWYU pragma: "
                     "keep' with a reason");
        }
      }
    }
  }

  /// Check 5: src/ files must not lean on identifiers that only a
  /// transitive include provides. Conservative on purpose: only names a
  /// header truly declares (class / using / #define, not call-heads) can
  /// fire, only when exactly one reachable header declares the name, and
  /// x.cc may rely on anything its own x.h pulls in directly (the
  /// associated-header exemption IWYU itself grants).
  void CheckTransitiveUse() {
    for (const auto& [rel, info] : files_) {
      if (rel.rfind("src/", 0) != 0) continue;

      std::set<std::string> direct;  // direct includes + their re-exports
      for (const IncludeEdge& edge : info.includes) {
        CollectExportClosure(edge.target, &direct);
        if (IsOwnHeader(info, edge.target)) {
          const auto own = files_.find(edge.target);
          if (own != files_.end()) {
            for (const IncludeEdge& nested : own->second.includes) {
              CollectExportClosure(nested.target, &direct);
            }
          }
        }
      }
      std::set<std::string> reachable;
      CollectReachable(rel, &reachable);
      reachable.erase(rel);

      // The lenient provided set keeps this exemption broad: if a direct
      // include even plausibly supplies the name, stay quiet.
      std::set<std::string> direct_provided;
      for (const std::string& d : direct) {
        const auto it = files_.find(d);
        if (it == files_.end()) continue;
        direct_provided.insert(it->second.provided.begin(),
                               it->second.provided.end());
      }
      // How many reachable headers declare each identifier (uniqueness).
      std::map<std::string, int> provider_count;
      for (const std::string& r : reachable) {
        const auto it = files_.find(r);
        if (it == files_.end()) continue;
        for (const std::string& ident : it->second.declared) {
          provider_count[ident] += 1;
        }
      }

      for (const std::string& target : reachable) {
        if (direct.count(target) > 0) continue;
        const auto it = files_.find(target);
        if (it == files_.end()) continue;
        if (IsOwnHeader(info, target)) continue;
        for (const std::string& ident : it->second.declared) {
          if (info.used_tokens.count(ident) == 0) continue;
          if (direct_provided.count(ident) > 0) continue;
          if (info.provided.count(ident) > 0) continue;
          if (info.declared.count(ident) > 0) continue;
          if (provider_count[ident] != 1) continue;
          Report(rel, 1, "transitive-include",
                 "uses '" + ident + "' provided only by transitively "
                     "included '" + target +
                     "'; include it directly (include what you use)");
          break;  // one diagnostic per missing header
        }
      }
    }
  }

  /// Adds `rel` and, recursively, everything it re-exports.
  void CollectExportClosure(const std::string& rel,
                            std::set<std::string>* out) {
    if (!out->insert(rel).second) return;
    const auto it = files_.find(rel);
    if (it == files_.end()) return;
    for (const IncludeEdge& edge : it->second.includes) {
      if (edge.pragma_export) CollectExportClosure(edge.target, out);
    }
  }

  void CollectReachable(const std::string& rel, std::set<std::string>* out) {
    const auto it = files_.find(rel);
    if (it == files_.end()) return;
    for (const IncludeEdge& edge : it->second.includes) {
      if (out->insert(edge.target).second) {
        CollectReachable(edge.target, out);
      }
    }
  }

  const fs::path& root_;
  Reporter& reporter_;
  std::map<std::string, FileInfo> files_;  // rel path -> info
  std::map<std::pair<std::string, std::string>, int> module_edges_;
  std::map<std::string, std::set<std::string>> provides_closure_;
};

std::string DepsAnalyzer::GraphDot() const {
  std::string out = "digraph fairlaw_deps {\n";
  out += "  rankdir=BT;\n  node [shape=box, fontname=\"Helvetica\"];\n";
  std::map<int, std::vector<std::string>> by_rank;
  std::map<std::string, int> file_counts;
  for (const auto& [rel, info] : files_) file_counts[info.module] += 1;
  for (const ModuleSpec& spec : kModules) {
    if (file_counts.find(spec.name) == file_counts.end()) continue;
    by_rank[spec.rank].push_back(spec.name);
  }
  for (const auto& [rank, modules] : by_rank) {
    out += "  { rank=same;";
    for (const std::string& module : modules) {
      out += " \"" + module + "\";";
    }
    out += " }\n";
  }
  for (const auto& [rank, modules] : by_rank) {
    for (const std::string& module : modules) {
      out += "  \"" + module + "\" [label=\"" + module + "\\nrank " +
             std::to_string(rank) + ", " +
             std::to_string(file_counts[module]) + " files\"];\n";
    }
  }
  for (const auto& [edge, count] : module_edges_) {
    out += "  \"" + edge.first + "\" -> \"" + edge.second +
           "\" [label=\"" + std::to_string(count) + "\"];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace

std::string RunDepsPass(const SourceTree& tree, Reporter* reporter) {
  DepsAnalyzer analyzer(tree.root, reporter);
  analyzer.CheckTree(tree);
  return analyzer.GraphDot();
}

}  // namespace fairlaw::analysis
