#ifndef FAIRLAW_METRICS_GROUP_METRICS_H_
#define FAIRLAW_METRICS_GROUP_METRICS_H_

#include "metrics/fairness_metric.h"

namespace fairlaw::metrics {

// The group fairness definitions of §III of the paper, plus the standard
// companions used by US disparate-impact practice. All of them take a
// gap `tolerance`: the report is satisfied when the largest pairwise gap
// of the constrained rate is <= tolerance (the paper's equalities, made
// testable on finite samples).
//
// Every metric has two forms: the MetricInput overload, which tallies
// the rows (ComputeGroupStats) and hands the statistics on, and a
// FromStats core that evaluates the definition on already-computed
// per-group statistics. The chunked audit engine and the serve window
// derive one std::vector<GroupStats> from chunk-merged integer tallies
// (GroupStatsFromCounts) and feed the FromStats cores directly, so both
// forms produce identical reports.

/// §III-A Demographic parity: P(R=+ | A=a) equal across groups
/// (equal-outcome family). Labels not required.
FAIRLAW_NODISCARD Result<MetricReport> DemographicParity(const MetricInput& input,
                                       double tolerance = 0.0);
FAIRLAW_NODISCARD Result<MetricReport> DemographicParityFromStats(
    std::vector<GroupStats> stats, double tolerance = 0.0);

/// §III-C Equal opportunity: P(R=+ | Y=+, A=a) equal across groups
/// (equal-treatment family). Requires labels.
FAIRLAW_NODISCARD Result<MetricReport> EqualOpportunity(const MetricInput& input,
                                      double tolerance = 0.0);
FAIRLAW_NODISCARD Result<MetricReport> EqualOpportunityFromStats(
    std::vector<GroupStats> stats, double tolerance = 0.0);

/// §III-D Equalized odds: both TPR and FPR equal across groups. The
/// reported gap is the worse of the two. Requires labels.
FAIRLAW_NODISCARD Result<MetricReport> EqualizedOdds(const MetricInput& input,
                                   double tolerance = 0.0);
FAIRLAW_NODISCARD Result<MetricReport> EqualizedOddsFromStats(
    std::vector<GroupStats> stats, double tolerance = 0.0);

/// §III-E Demographic disparity: for every group a,
/// P(R=+ | A=a) > P(R=- | A=a), i.e. the selection rate exceeds 1/2.
/// The report is satisfied when every group passes; max_gap carries the
/// largest shortfall below 1/2 (0 when satisfied). Labels not required.
FAIRLAW_NODISCARD Result<MetricReport> DemographicDisparity(const MetricInput& input);
FAIRLAW_NODISCARD Result<MetricReport> DemographicDisparityFromStats(
    std::vector<GroupStats> stats);

/// Disparate-impact ratio: min over groups of selection rate divided by
/// the highest group selection rate. `threshold` is the legal cut-off
/// (0.8 for the EEOC four-fifths rule); satisfied when the ratio >=
/// threshold. Labels not required.
FAIRLAW_NODISCARD Result<MetricReport> DisparateImpactRatio(const MetricInput& input,
                                          double threshold = 0.8);
FAIRLAW_NODISCARD Result<MetricReport> DisparateImpactRatioFromStats(
    std::vector<GroupStats> stats, double threshold = 0.8);

/// Predictive parity: P(Y=+ | R=+, A=a) (precision / PPV) equal across
/// groups. Requires labels.
FAIRLAW_NODISCARD Result<MetricReport> PredictiveParity(const MetricInput& input,
                                      double tolerance = 0.0);
FAIRLAW_NODISCARD Result<MetricReport> PredictiveParityFromStats(
    std::vector<GroupStats> stats, double tolerance = 0.0);

/// Overall accuracy equality: P(R=Y | A=a) equal across groups. Requires
/// labels.
FAIRLAW_NODISCARD Result<MetricReport> AccuracyEquality(const MetricInput& input,
                                      double tolerance = 0.0);
FAIRLAW_NODISCARD Result<MetricReport> AccuracyEqualityFromStats(
    std::vector<GroupStats> stats, double tolerance = 0.0);

}  // namespace fairlaw::metrics

#endif  // FAIRLAW_METRICS_GROUP_METRICS_H_
