#ifndef FAIRLAW_TOOLS_ANALYSIS_PASSES_H_
#define FAIRLAW_TOOLS_ANALYSIS_PASSES_H_

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "tools/analysis/lexer.h"
#include "tools/analysis/report.h"

/// fairlaw::analysis — the four static-analysis passes behind
/// tools/fairlaw_check.cc. The driver walks the tree once, reads and
/// lexes every file once, and hands the same SourceTree to each
/// selected pass; a pass is a function over that file set that reports
/// into the run's shared Reporter. Each pass keeps its own scope (which
/// top-level directories it looks at) and its own escape prefix; the
/// rule sets are documented at the top of each pass's .cc file.
namespace fairlaw::analysis {

/// One file of the analyzed tree, read and lexed once per run.
struct SourceFile {
  std::filesystem::path path;
  std::string rel;   // root-relative, generic (/) separators
  std::string text;  // raw contents
  LexResult lex;

  /// First path component: "src", "tools", "tests", "bench" or
  /// "examples".
  std::string_view top() const {
    return std::string_view(rel).substr(0, rel.find('/'));
  }
};

/// Every file CollectSources finds under the five top-level
/// directories, in sorted path order.
struct SourceTree {
  std::filesystem::path root;
  std::vector<SourceFile> files;
};

/// Project hygiene (tools/analysis/lint.cc): src/ as library code, plus
/// tools/, tests/ and bench/. Escape prefix `lint:`.
void RunLintPass(const SourceTree& tree, Reporter* reporter);

/// Layering DAG and IWYU-lite (tools/analysis/deps.cc) over all five
/// top-level directories. Returns the module graph as Graphviz DOT.
std::string RunDepsPass(const SourceTree& tree, Reporter* reporter);

/// Determinism and lock discipline (tools/analysis/detcheck.cc) over
/// src/ and tools/. Escape prefix `detcheck:`.
void RunDetcheckPass(const SourceTree& tree, Reporter* reporter);

/// Status discipline (tools/analysis/flowcheck.cc): the signature index
/// over src/ headers, then the error-flow rules over .cc files in src/
/// and tools/. Escape prefix `flowcheck:`.
void RunFlowcheckPass(const SourceTree& tree, Reporter* reporter);

}  // namespace fairlaw::analysis

#endif  // FAIRLAW_TOOLS_ANALYSIS_PASSES_H_
