#ifndef FAIRLAW_TOOLS_ANALYSIS_REPORT_H_
#define FAIRLAW_TOOLS_ANALYSIS_REPORT_H_

#include <cstddef>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tools/analysis/lexer.h"

/// fairlaw::analysis — the shared reporting substrate of the static
/// analysis passes (lint, deps, detcheck, flowcheck; see
/// tools/fairlaw_check.cc).
///
/// Every pass shares one contract: findings are `file:line: rule:
/// message` records sorted canonically so CI diffs are stable, an
/// escape hatch is a `<pass>: allow-<rule>` comment on the flagged
/// line or the line above (suppressions are counted, never silently
/// dropped), the machine-readable artifact is one JSON object with the
/// schema {"tool":NAME,"schema_version":1,"findings":[{file,line,rule,
/// message}],"count":N,"suppressed":N}, byte-identical for a given
/// tree, and --self-test=rule1,rule2 asserts that exactly that rule set
/// fired. Rule names are disjoint across passes, so one Reporter
/// collects every pass of a run. This header is that contract in code;
/// the passes contribute only their rules.
namespace fairlaw::analysis {

struct Finding {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

/// Collects the findings of every pass in a run, applying the
/// escape-marker convention and rendering the canonical artifact schema.
class Reporter {
 public:
  /// `tool` names the run in diagnostics and the JSON artifact
  /// (e.g. "fairlaw_check").
  explicit Reporter(std::string tool) : tool_(std::move(tool)) {}

  /// Records a finding unless a `<pass>: allow-<rule>` marker (e.g.
  /// `flowcheck: allow-discarded-status`) covers `line` (or, when
  /// non-zero, the secondary anchor line — e.g. the MutexLock
  /// declaration for detcheck's lock-expensive). Suppressions are
  /// tallied, not dropped.
  void Report(std::string_view pass, const std::string& file,
              const std::vector<Comment>& comments, size_t line,
              std::string rule, std::string message, size_t anchor_line = 0);

  /// Records a finding with no escape hatch (structural rules such as
  /// lint's include-guard, where suppression would be meaningless, and
  /// every deps rule, whose only escape is an IWYU pragma).
  void ReportAlways(std::string file, size_t line, std::string rule,
                    std::string message);

  /// Sorts by (file, line, rule, message) and returns the findings. The
  /// order is total, so the report does not depend on which passes ran
  /// or in which order they reported.
  const std::vector<Finding>& Sorted();

  size_t suppressed() const { return suppressed_; }

  /// Renders the canonical artifact. Call after Sorted(); the output is
  /// byte-identical across runs for a given tree.
  std::string Json() const;

  /// Prints findings (stderr, one per line) and, when `verbose` or any
  /// finding exists, the `<tool>: N finding(s), M suppressed` summary.
  void PrintFindings(bool verbose) const;

  /// Writes Json() + trailing newline to `path`; prints a diagnostic
  /// and returns false on I/O error.
  bool WriteArtifact(const std::string& path) const;

  /// Compares the set of rules with at least one unsuppressed finding
  /// against a comma-separated `spec` (--self-test); prints
  /// missing/unexpected rules on mismatch.
  bool SelfTestMatches(std::string_view spec) const;

 private:
  std::string tool_;
  std::vector<Finding> findings_;
  size_t suppressed_ = 0;
};

/// Every .h/.cc/.cpp file under root/<top> for each listed top-level
/// directory, sorted so scan order (and therefore the artifact) is
/// deterministic. Directories named *_fixture hold deliberate
/// violations for the self-tests and are skipped.
std::vector<std::filesystem::path> CollectSources(
    const std::filesystem::path& root, std::span<const std::string_view> tops);

/// Whole-file read; returns "" for unreadable paths (the passes treat
/// an unreadable file as empty rather than failing the scan).
std::string ReadFileToString(const std::filesystem::path& path);

/// Writes `text` to `path`; on I/O error prints `<tool>: cannot write
/// '<path>'` and returns false.
bool WriteTextFile(const std::string& tool, const std::string& path,
                   std::string_view text);

/// `path` relative to `root` with generic (/) separators; falls back to
/// `path` itself when no relative form exists.
std::string RelativeTo(const std::filesystem::path& path,
                       const std::filesystem::path& root);

}  // namespace fairlaw::analysis

#endif  // FAIRLAW_TOOLS_ANALYSIS_REPORT_H_
