#ifndef FAIRLAW_CORE_SUITE_H_
#define FAIRLAW_CORE_SUITE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/proxy.h"
#include "audit/representation.h"
#include "audit/sampling_adequacy.h"
#include "audit/subgroup.h"
#include "base/result.h"
#include "data/table.h"
#include "legal/four_fifths.h"

namespace fairlaw {

/// Configuration of the one-stop fairness suite: the metric audit plus
/// the §IV risk audits (proxies, subgroups, sampling) and the §II legal
/// screen.
struct SuiteConfig {
  audit::AuditConfig audit;
  /// Candidate feature columns for the proxy audit; empty disables it.
  std::vector<std::string> proxy_candidates;
  audit::ProxyDetectionOptions proxy_options;
  /// Attribute columns for the subgroup audit; empty disables it
  /// (typically the protected columns plus coarse feature buckets).
  std::vector<std::string> subgroup_columns;
  audit::SubgroupAuditOptions subgroup_options;
  /// Run the sampling adequacy assessment.
  bool check_sampling = true;
  audit::SamplingAdequacyOptions sampling_options;
  /// Run the EEOC four-fifths screen.
  bool check_four_fifths = true;
  /// Population reference shares for the protected column (group ->
  /// share); non-empty enables the representation audit (§IV-F).
  std::map<std::string, double> population_shares;
  audit::RepresentationAuditOptions representation_options;

  /// Every column the suite reads: the audit's protected, prediction,
  /// label, score and strata columns, then the proxy candidates and the
  /// subgroup columns (the representation audit reads the protected
  /// column). Unset names are left out. A table read with only these
  /// columns (data::CsvOptions::include_columns) gives the same report
  /// as the full table.
  std::vector<std::string> ColumnsRead() const;
};

/// Everything the suite produced.
struct SuiteReport {
  audit::AuditResult audit;
  std::vector<audit::ProxyFinding> proxies;
  std::optional<audit::SubgroupAuditResult> subgroups;
  std::optional<audit::SamplingReport> sampling;
  std::optional<legal::FourFifthsResult> four_fifths;
  std::optional<audit::RepresentationReport> representation;
  bool all_clear = true;

  std::string Render() const;
};

/// The public one-call entry point: runs the full configured suite over
/// a table holding protected attribute(s), predictions, and (optionally)
/// labels.
FAIRLAW_NODISCARD Result<SuiteReport> RunFairnessSuite(const data::Table& table,
                                     const SuiteConfig& config);

}  // namespace fairlaw

#endif  // FAIRLAW_CORE_SUITE_H_
