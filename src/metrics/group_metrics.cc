#include "metrics/group_metrics.h"

#include <algorithm>

#include "base/string_util.h"

namespace fairlaw::metrics {
namespace {

Status CheckTolerance(double tolerance) {
  if (tolerance < 0.0) {
    return Status::Invalid("fairness metric: tolerance must be >= 0");
  }
  return Status::OK();
}

Status CheckMultipleGroups(const std::vector<GroupStats>& stats) {
  if (stats.size() < 2) {
    return Status::Invalid("fairness metric: need at least 2 protected "
                           "groups, got " + std::to_string(stats.size()));
  }
  return Status::OK();
}

}  // namespace

Result<MetricReport> DemographicParity(const MetricInput& input,
                                       double tolerance) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<GroupStats> stats,
                           ComputeGroupStats(input, /*with_labels=*/false));
  return DemographicParityFromStats(std::move(stats), tolerance);
}

Result<MetricReport> DemographicParityFromStats(std::vector<GroupStats> stats,
                                                double tolerance) {
  FAIRLAW_RETURN_NOT_OK(CheckTolerance(tolerance));
  FAIRLAW_RETURN_NOT_OK(CheckMultipleGroups(stats));
  std::vector<double> rates;
  rates.reserve(stats.size());
  for (const GroupStats& gs : stats) rates.push_back(gs.selection_rate);
  MetricReport report;
  report.metric_name = "demographic_parity";
  report.groups = std::move(stats);
  report.max_gap = MaxGap(rates);
  report.min_ratio = MinRatio(rates);
  report.tolerance = tolerance;
  report.satisfied = report.max_gap <= tolerance;
  return report;
}

Result<MetricReport> EqualOpportunity(const MetricInput& input,
                                      double tolerance) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<GroupStats> stats,
                           ComputeGroupStats(input, /*with_labels=*/true));
  return EqualOpportunityFromStats(std::move(stats), tolerance);
}

Result<MetricReport> EqualOpportunityFromStats(std::vector<GroupStats> stats,
                                               double tolerance) {
  FAIRLAW_RETURN_NOT_OK(CheckTolerance(tolerance));
  FAIRLAW_RETURN_NOT_OK(CheckMultipleGroups(stats));
  for (const GroupStats& gs : stats) {
    if (gs.actual_positives == 0) {
      return Status::Invalid("equal_opportunity: group '" + gs.group +
                             "' has no actual positives; TPR undefined");
    }
  }
  std::vector<double> rates;
  rates.reserve(stats.size());
  for (const GroupStats& gs : stats) rates.push_back(gs.tpr);
  MetricReport report;
  report.metric_name = "equal_opportunity";
  report.groups = std::move(stats);
  report.max_gap = MaxGap(rates);
  report.min_ratio = MinRatio(rates);
  report.tolerance = tolerance;
  report.satisfied = report.max_gap <= tolerance;
  return report;
}

Result<MetricReport> EqualizedOdds(const MetricInput& input,
                                   double tolerance) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<GroupStats> stats,
                           ComputeGroupStats(input, /*with_labels=*/true));
  return EqualizedOddsFromStats(std::move(stats), tolerance);
}

Result<MetricReport> EqualizedOddsFromStats(std::vector<GroupStats> stats,
                                            double tolerance) {
  FAIRLAW_RETURN_NOT_OK(CheckTolerance(tolerance));
  FAIRLAW_RETURN_NOT_OK(CheckMultipleGroups(stats));
  for (const GroupStats& gs : stats) {
    if (gs.actual_positives == 0 || gs.actual_negatives == 0) {
      return Status::Invalid("equalized_odds: group '" + gs.group +
                             "' lacks actual positives or negatives");
    }
  }
  std::vector<double> tprs;
  std::vector<double> fprs;
  for (const GroupStats& gs : stats) {
    tprs.push_back(gs.tpr);
    fprs.push_back(gs.fpr);
  }
  const double tpr_gap = MaxGap(tprs);
  const double fpr_gap = MaxGap(fprs);
  MetricReport report;
  report.metric_name = "equalized_odds";
  report.groups = std::move(stats);
  report.max_gap = std::max(tpr_gap, fpr_gap);
  report.min_ratio = std::min(MinRatio(tprs), MinRatio(fprs));
  report.tolerance = tolerance;
  report.satisfied = report.max_gap <= tolerance;
  report.detail = "tpr_gap=" + FormatDouble(tpr_gap, 4) +
                  " fpr_gap=" + FormatDouble(fpr_gap, 4);
  return report;
}

Result<MetricReport> DemographicDisparity(const MetricInput& input) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<GroupStats> stats,
                           ComputeGroupStats(input, /*with_labels=*/false));
  return DemographicDisparityFromStats(std::move(stats));
}

Result<MetricReport> DemographicDisparityFromStats(
    std::vector<GroupStats> stats) {
  MetricReport report;
  report.metric_name = "demographic_disparity";
  report.tolerance = 0.0;
  report.satisfied = true;
  double worst_shortfall = 0.0;
  std::string failing;
  for (const GroupStats& gs : stats) {
    // P(R=+|A=a) > P(R=-|A=a)  <=>  selection rate > 1/2.
    if (gs.selection_rate <= 0.5) {
      report.satisfied = false;
      worst_shortfall = std::max(worst_shortfall, 0.5 - gs.selection_rate);
      if (!failing.empty()) failing += ", ";
      failing += gs.group;
    }
  }
  report.max_gap = worst_shortfall;
  std::vector<double> rates;
  for (const GroupStats& gs : stats) rates.push_back(gs.selection_rate);
  report.min_ratio = MinRatio(rates);
  report.groups = std::move(stats);
  if (!report.satisfied) {
    report.detail = "groups with more rejections than acceptances: " + failing;
  }
  return report;
}

Result<MetricReport> DisparateImpactRatio(const MetricInput& input,
                                          double threshold) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<GroupStats> stats,
                           ComputeGroupStats(input, /*with_labels=*/false));
  return DisparateImpactRatioFromStats(std::move(stats), threshold);
}

Result<MetricReport> DisparateImpactRatioFromStats(
    std::vector<GroupStats> stats, double threshold) {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::Invalid("disparate_impact: threshold must lie in (0,1]");
  }
  FAIRLAW_RETURN_NOT_OK(CheckMultipleGroups(stats));
  std::vector<double> rates;
  rates.reserve(stats.size());
  for (const GroupStats& gs : stats) rates.push_back(gs.selection_rate);
  if (*std::max_element(rates.begin(), rates.end()) <= 0.0) {
    // 0/0 is undefined; a silent ratio of 1.0 would report a clean screen
    // for a selection process that admitted nobody.
    return Status::FailedPrecondition(
        "disparate_impact_ratio: no group has a positive selection rate; "
        "the ratio is undefined");
  }
  MetricReport report;
  report.metric_name = "disparate_impact_ratio";
  report.groups = std::move(stats);
  report.max_gap = MaxGap(rates);
  report.min_ratio = MinRatio(rates);
  report.tolerance = threshold;
  report.satisfied = report.min_ratio >= threshold;
  report.detail = "selection-rate ratio " + FormatDouble(report.min_ratio, 4) +
                  (report.satisfied ? " passes" : " fails") + " the " +
                  FormatDouble(threshold, 2) + " threshold";
  return report;
}

Result<MetricReport> PredictiveParity(const MetricInput& input,
                                      double tolerance) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<GroupStats> stats,
                           ComputeGroupStats(input, /*with_labels=*/true));
  return PredictiveParityFromStats(std::move(stats), tolerance);
}

Result<MetricReport> PredictiveParityFromStats(std::vector<GroupStats> stats,
                                               double tolerance) {
  FAIRLAW_RETURN_NOT_OK(CheckTolerance(tolerance));
  FAIRLAW_RETURN_NOT_OK(CheckMultipleGroups(stats));
  for (const GroupStats& gs : stats) {
    if (gs.positive_predictions == 0) {
      return Status::Invalid("predictive_parity: group '" + gs.group +
                             "' has no positive predictions; PPV undefined");
    }
  }
  std::vector<double> rates;
  for (const GroupStats& gs : stats) rates.push_back(gs.ppv);
  MetricReport report;
  report.metric_name = "predictive_parity";
  report.groups = std::move(stats);
  report.max_gap = MaxGap(rates);
  report.min_ratio = MinRatio(rates);
  report.tolerance = tolerance;
  report.satisfied = report.max_gap <= tolerance;
  return report;
}

Result<MetricReport> AccuracyEquality(const MetricInput& input,
                                      double tolerance) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<GroupStats> stats,
                           ComputeGroupStats(input, /*with_labels=*/true));
  return AccuracyEqualityFromStats(std::move(stats), tolerance);
}

Result<MetricReport> AccuracyEqualityFromStats(std::vector<GroupStats> stats,
                                               double tolerance) {
  FAIRLAW_RETURN_NOT_OK(CheckTolerance(tolerance));
  FAIRLAW_RETURN_NOT_OK(CheckMultipleGroups(stats));
  std::vector<double> rates;
  for (const GroupStats& gs : stats) {
    // accuracy = (TP + TN) / n, with TN = actual_negatives - FP.
    double correct = static_cast<double>(
        gs.true_positives + (gs.actual_negatives - gs.false_positives));
    rates.push_back(gs.count > 0 ? correct / static_cast<double>(gs.count)
                                 : 0.0);
  }
  MetricReport report;
  report.metric_name = "accuracy_equality";
  report.groups = std::move(stats);
  report.max_gap = MaxGap(rates);
  report.min_ratio = MinRatio(rates);
  report.tolerance = tolerance;
  report.satisfied = report.max_gap <= tolerance;
  return report;
}

}  // namespace fairlaw::metrics
