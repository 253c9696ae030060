#ifndef FAIRLAW_METRICS_CONDITIONAL_METRICS_H_
#define FAIRLAW_METRICS_CONDITIONAL_METRICS_H_

#include <string>
#include <vector>

#include "metrics/fairness_metric.h"
#include "stats/mergeable.h"

namespace fairlaw::metrics {

/// Per-stratum slice of a conditional metric report.
struct StratumReport {
  std::string stratum;  // value of the legitimate factor S
  MetricReport report;  // the unconditional metric within the stratum
};

/// Result of a conditional (stratified) fairness definition.
struct ConditionalReport {
  std::string metric_name;
  std::vector<StratumReport> strata;
  /// Worst stratum gap; the verdict aggregates across strata.
  double max_gap = 0.0;
  double tolerance = 0.0;
  bool satisfied = false;
  std::string detail;
};

/// §III-B Conditional statistical parity: demographic parity within every
/// stratum of the legitimate factor S. `strata[i]` is the S-value of row
/// i. Strata with fewer than `min_stratum_size` rows or fewer than two
/// groups are skipped (reported in detail) rather than failing the whole
/// audit — tiny strata say nothing reliable (§IV-F).
FAIRLAW_NODISCARD Result<ConditionalReport> ConditionalStatisticalParity(
    const MetricInput& input, const std::vector<std::string>& strata,
    double tolerance = 0.0, size_t min_stratum_size = 1);

/// §III-F Conditional demographic disparity: demographic disparity
/// (selection rate > 1/2 for every group) within every stratum.
FAIRLAW_NODISCARD Result<ConditionalReport> ConditionalDemographicDisparity(
    const MetricInput& input, const std::vector<std::string>& strata,
    size_t min_stratum_size = 1);

// Chunk-merged forms for the morsel-driven audit engine: the
// StratifiedCountsAccumulator holds per-stratum, per-group tallies merged
// in chunk order (strata and groups both in global first-seen row order).
// The row-wise forms above tally their rows into one such accumulator and
// call these, so both produce identical reports on the same rows.

FAIRLAW_NODISCARD Result<ConditionalReport> ConditionalStatisticalParityFromCounts(
    const stats::StratifiedCountsAccumulator& counts, double tolerance = 0.0,
    size_t min_stratum_size = 1);

FAIRLAW_NODISCARD Result<ConditionalReport> ConditionalDemographicDisparityFromCounts(
    const stats::StratifiedCountsAccumulator& counts,
    size_t min_stratum_size = 1);

/// Renders a ConditionalReport as a human-readable block.
std::string RenderConditionalReport(const ConditionalReport& report);

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_CONDITIONAL_METRICS_H_
