// fairlaw_check — the project's static-analysis driver.
//
//   fairlaw_check [lint] [deps] [detcheck] [flowcheck] [--root=DIR]
//                 [--json=PATH] [--dot=PATH] [--self-test=RULES]
//                 [--verbose]
//
// Runs the named passes (all four when none is named) over the tree at
// --root (default: current directory). The tree is walked once: every
// .h/.cc/.cpp file under src/, tools/, tests/, bench/ and examples/ is
// read and lexed once (tools/analysis/lexer.h), and each pass looks at
// its own slice of that file set (tools/analysis/passes.h):
//
//   lint       project hygiene: include guards, banned functions,
//              messaged checks, thread/timing/SIMD confinement, hot-path
//              rules, registry coverage (tools/analysis/lint.cc)
//   deps       layering DAG and IWYU-lite (tools/analysis/deps.cc)
//   detcheck   determinism and lock discipline
//              (tools/analysis/detcheck.cc)
//   flowcheck  Status/Result error flow (tools/analysis/flowcheck.cc)
//
// Directories named *_fixture are skipped: they hold the deliberate
// violations the self-tests run the passes on. Findings print one per
// line as `file:line: rule: message`, sorted; escape hatches are
// `<pass>: allow-<rule>` comments (deps: IWYU pragmas) and are counted.
// --json writes the canonical artifact (tools/analysis/report.h) for
// every pass that ran, --dot the deps module graph. Rule names are
// disjoint across passes, so --self-test=rule1,rule2 means the same for
// any pass selection: exit 0 iff exactly that rule set fired. Exit
// codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/analysis/lexer.h"
#include "tools/analysis/passes.h"
#include "tools/analysis/report.h"
#include "tools/cli.h"

namespace {

namespace analysis = fairlaw::analysis;
namespace fs = std::filesystem;

constexpr std::string_view kTops[] = {"src", "tools", "tests", "bench",
                                      "examples"};

constexpr std::string_view kPasses[] = {"lint", "deps", "detcheck",
                                        "flowcheck"};

int UsageError(const std::string& message) {
  std::fprintf(stderr, "fairlaw_check: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_flag = ".";
  std::string json_path;
  std::string dot_path;
  std::string self_test;
  bool verbose = false;
  fairlaw::cli::FlagSet flags(
      "fairlaw_check", "[lint] [deps] [detcheck] [flowcheck]",
      "Static analysis of the fairlaw tree: runs the named passes (all\n"
      "four when none is named) over one walk of the tree (see the header\n"
      "of tools/fairlaw_check.cc and of each tools/analysis/<pass>.cc).\n"
      "exit codes: 0 clean, 1 findings, 2 usage or I/O error");
  flags.Add("root", &root_flag, "tree to scan");
  flags.Section("output");
  flags.Add("json", &json_path, "write the findings artifact to this path");
  flags.Add("dot", &dot_path,
            "write the deps module graph as Graphviz to this path");
  flags.Add("self-test", &self_test,
            "comma-separated rule names; exit 0 iff exactly these rules "
            "produce findings (fixture tests)");
  flags.Add("verbose", &verbose, "print the finding count even when clean");
  fairlaw::Result<fairlaw::cli::ParseResult> parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "fairlaw_check: %s\n\n%s",
                 parsed.status().message().c_str(), flags.Help().c_str());
    return 2;
  }
  if (parsed->help) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }

  std::set<std::string_view> selected;
  for (const std::string& name : parsed->positionals) {
    bool known = false;
    for (const std::string_view pass : kPasses) {
      if (name == pass) {
        selected.insert(pass);
        known = true;
      }
    }
    if (!known) return UsageError("unknown pass '" + name + "'");
  }
  if (selected.empty()) {
    selected.insert(std::begin(kPasses), std::end(kPasses));
  }
  if (!dot_path.empty() && selected.count("deps") == 0) {
    return UsageError("--dot needs the deps pass");
  }

  analysis::SourceTree tree{fs::path(root_flag), {}};
  if (!fs::is_directory(tree.root)) {
    return UsageError("root '" + root_flag + "' is not a directory");
  }
  bool any_top = false;
  for (const std::string_view top : kTops) {
    any_top = any_top || fs::is_directory(tree.root / top);
  }
  if (!any_top) {
    return UsageError("no src/tools/tests/bench/examples under '" +
                      root_flag + "'");
  }
  for (const fs::path& path : analysis::CollectSources(tree.root, kTops)) {
    std::string text = analysis::ReadFileToString(path);
    analysis::LexResult lex = analysis::Lex(text);
    tree.files.push_back({path, analysis::RelativeTo(path, tree.root),
                          std::move(text), std::move(lex)});
  }

  analysis::Reporter reporter("fairlaw_check");
  std::string dot;
  if (selected.count("lint") > 0) RunLintPass(tree, &reporter);
  if (selected.count("deps") > 0) dot = RunDepsPass(tree, &reporter);
  if (selected.count("detcheck") > 0) RunDetcheckPass(tree, &reporter);
  if (selected.count("flowcheck") > 0) RunFlowcheckPass(tree, &reporter);

  const bool clean = reporter.Sorted().empty();
  reporter.PrintFindings(verbose);
  if (!json_path.empty() && !reporter.WriteArtifact(json_path)) return 2;
  if (!dot_path.empty() &&
      !analysis::WriteTextFile("fairlaw_check", dot_path, dot)) {
    return 2;
  }
  if (!self_test.empty()) return reporter.SelfTestMatches(self_test) ? 0 : 1;
  return clean ? 0 : 1;
}
