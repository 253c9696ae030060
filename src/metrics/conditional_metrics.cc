#include "metrics/conditional_metrics.h"

#include <algorithm>

#include "base/string_util.h"
#include "metrics/group_metrics.h"
#include "stats/mergeable.h"

namespace fairlaw::metrics {
namespace {

/// Tallies the rows by stratum, then group (both in first-seen order) —
/// the same counts the chunked audit engine merges, so the row-wise
/// entry points are the one-chunk case of the *FromCounts forms.
FAIRLAW_NODISCARD Result<stats::StratifiedCountsAccumulator> TallyStrata(
    const MetricInput& input, const std::vector<std::string>& strata) {
  FAIRLAW_RETURN_NOT_OK(input.Validate(/*require_labels=*/false));
  if (strata.size() != input.size()) {
    return Status::Invalid("conditional metric: strata/input size mismatch");
  }
  stats::StratifiedCountsAccumulator counts;
  for (size_t i = 0; i < strata.size(); ++i) {
    stats::GroupCountsAccumulator* stratum = counts.Stratum(strata[i]);
    stratum->AddRow(stratum->KeyIndex(input.groups[i]), input.predictions[i]);
  }
  return counts;
}

}  // namespace

Result<ConditionalReport> ConditionalStatisticalParity(
    const MetricInput& input, const std::vector<std::string>& strata,
    double tolerance, size_t min_stratum_size) {
  FAIRLAW_ASSIGN_OR_RETURN(stats::StratifiedCountsAccumulator counts,
                           TallyStrata(input, strata));
  return ConditionalStatisticalParityFromCounts(counts, tolerance,
                                                min_stratum_size);
}

Result<ConditionalReport> ConditionalDemographicDisparity(
    const MetricInput& input, const std::vector<std::string>& strata,
    size_t min_stratum_size) {
  FAIRLAW_ASSIGN_OR_RETURN(stats::StratifiedCountsAccumulator counts,
                           TallyStrata(input, strata));
  return ConditionalDemographicDisparityFromCounts(counts, min_stratum_size);
}

Result<ConditionalReport> ConditionalStatisticalParityFromCounts(
    const stats::StratifiedCountsAccumulator& counts, double tolerance,
    size_t min_stratum_size) {
  // Checked up front: a negative tolerance is an error even when every
  // stratum is too small to evaluate.
  if (tolerance < 0.0) {
    return Status::Invalid("fairness metric: tolerance must be >= 0");
  }
  ConditionalReport report;
  report.metric_name = "conditional_statistical_parity";
  report.tolerance = tolerance;
  report.satisfied = true;
  std::string skipped;
  size_t evaluated = 0;
  for (size_t s = 0; s < counts.num_strata(); ++s) {
    const std::string& stratum = counts.keys()[s];
    const stats::GroupCountsAccumulator& tallies = counts.stratum(s);
    int64_t stratum_rows = 0;
    for (size_t g = 0; g < tallies.num_keys(); ++g) {
      stratum_rows += tallies.counts(g).count;
    }
    if (static_cast<size_t>(stratum_rows) < min_stratum_size ||
        tallies.num_keys() < 2) {
      if (!skipped.empty()) skipped += ", ";
      skipped += stratum;
      continue;
    }
    FAIRLAW_ASSIGN_OR_RETURN(
        MetricReport inner,
        DemographicParityFromStats(
            GroupStatsFromCounts(tallies, /*with_labels=*/false), tolerance));
    inner.metric_name = "demographic_parity[" + stratum + "]";
    report.max_gap = std::max(report.max_gap, inner.max_gap);
    report.satisfied = report.satisfied && inner.satisfied;
    report.strata.push_back(StratumReport{stratum, std::move(inner)});
    ++evaluated;
  }
  if (evaluated == 0) {
    return Status::Invalid("conditional_statistical_parity: no stratum was "
                           "large enough to evaluate");
  }
  if (!skipped.empty()) {
    report.detail = "skipped strata (too small or single-group): " + skipped;
  }
  return report;
}

Result<ConditionalReport> ConditionalDemographicDisparityFromCounts(
    const stats::StratifiedCountsAccumulator& counts,
    size_t min_stratum_size) {
  ConditionalReport report;
  report.metric_name = "conditional_demographic_disparity";
  report.tolerance = 0.0;
  report.satisfied = true;
  std::string skipped;
  size_t evaluated = 0;
  for (size_t s = 0; s < counts.num_strata(); ++s) {
    const std::string& stratum = counts.keys()[s];
    const stats::GroupCountsAccumulator& tallies = counts.stratum(s);
    int64_t stratum_rows = 0;
    for (size_t g = 0; g < tallies.num_keys(); ++g) {
      stratum_rows += tallies.counts(g).count;
    }
    if (static_cast<size_t>(stratum_rows) < min_stratum_size) {
      if (!skipped.empty()) skipped += ", ";
      skipped += stratum;
      continue;
    }
    FAIRLAW_ASSIGN_OR_RETURN(
        MetricReport inner,
        DemographicDisparityFromStats(
            GroupStatsFromCounts(tallies, /*with_labels=*/false)));
    inner.metric_name = "demographic_disparity[" + stratum + "]";
    report.max_gap = std::max(report.max_gap, inner.max_gap);
    report.satisfied = report.satisfied && inner.satisfied;
    report.strata.push_back(StratumReport{stratum, std::move(inner)});
    ++evaluated;
  }
  if (evaluated == 0) {
    return Status::Invalid("conditional_demographic_disparity: no stratum "
                           "was large enough to evaluate");
  }
  if (!skipped.empty()) report.detail = "skipped strata: " + skipped;
  return report;
}

std::string RenderConditionalReport(const ConditionalReport& report) {
  std::string out = report.metric_name + ": " +
                    (report.satisfied ? "SATISFIED" : "VIOLATED") +
                    " (worst stratum gap " + FormatDouble(report.max_gap, 4) +
                    ")\n";
  for (const StratumReport& sr : report.strata) {
    out += "  stratum " + sr.stratum + ": " +
           (sr.report.satisfied ? "ok" : "VIOLATED") + " gap " +
           FormatDouble(sr.report.max_gap, 4) + "\n";
  }
  if (!report.detail.empty()) out += "  " + report.detail + "\n";
  return out;
}

}  // namespace fairlaw::metrics
