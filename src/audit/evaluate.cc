#include "audit/evaluate.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "data/table.h"
#include "metrics/calibration_metric.h"
#include "metrics/conditional_metrics.h"
#include "metrics/fairness_metric.h"
#include "metrics/group_metrics.h"
#include "obs/obs.h"
#include "stats/distance.h"
#include "stats/histogram.h"

namespace fairlaw::audit {
namespace {

/// Per-group score-distribution drift: each group's sorted scores against
/// the multiset difference of the sorted pooled scores (everyone else),
/// through the presorted W1/KS kernels — or the binned kernels when the
/// config asks for the O(n) fast path. `series` holds each group's
/// scores in global row order (the chunk-order merge guarantees that),
/// and `scores` is the full score column in row order, so the sorts see
/// exactly the sequences the old whole-table pass fed them.
Result<ScoreDistributionReport> ScoreDistributionAudit(
    const stats::GroupedSeries& series, std::span<const double> scores,
    const AuditConfig& config) {
  ScoreDistributionReport report;
  report.tolerance = config.score_distribution_tolerance;
  for (double s : scores) {
    if (!std::isfinite(s)) {
      return Status::Invalid("score distribution audit: non-finite score");
    }
  }
  std::vector<double> all_sorted(scores.begin(), scores.end());
  std::sort(all_sorted.begin(), all_sorted.end());
  const bool constant =
      !all_sorted.empty() && all_sorted.front() == all_sorted.back();
  for (size_t g = 0; g < series.num_keys(); ++g) {
    std::vector<double> group_scores = series.values(g);
    std::sort(group_scores.begin(), group_scores.end());
    // Everyone else = pooled minus this group, linear-time multiset
    // difference over the two sorted vectors.
    std::vector<double> rest;
    rest.reserve(all_sorted.size() - group_scores.size());
    std::set_difference(all_sorted.begin(), all_sorted.end(),
                        group_scores.begin(), group_scores.end(),
                        std::back_inserter(rest));
    GroupScoreDistance distance;
    distance.group = series.keys()[g];
    distance.count = group_scores.size();
    if (!rest.empty() && !group_scores.empty() && !constant) {
      if (config.score_distribution_bins > 0) {
        FAIRLAW_ASSIGN_OR_RETURN(
            stats::Histogram hp,
            stats::Histogram::Make(all_sorted.front(), all_sorted.back(),
                                   config.score_distribution_bins));
        FAIRLAW_ASSIGN_OR_RETURN(
            stats::Histogram hq,
            stats::Histogram::Make(all_sorted.front(), all_sorted.back(),
                                   config.score_distribution_bins));
        hp.AddAll(group_scores);
        hq.AddAll(rest);
        FAIRLAW_ASSIGN_OR_RETURN(distance.wasserstein1,
                                 stats::Wasserstein1Binned(hp, hq));
        FAIRLAW_ASSIGN_OR_RETURN(distance.ks,
                                 stats::KolmogorovSmirnovBinned(hp, hq));
      } else {
        FAIRLAW_ASSIGN_OR_RETURN(
            distance.wasserstein1,
            stats::Wasserstein1Presorted(group_scores, rest));
        FAIRLAW_ASSIGN_OR_RETURN(
            distance.ks,
            stats::KolmogorovSmirnovPresorted(group_scores, rest));
      }
    }
    report.max_wasserstein1 =
        std::max(report.max_wasserstein1, distance.wasserstein1);
    report.max_ks = std::max(report.max_ks, distance.ks);
    report.groups.push_back(std::move(distance));
  }
  report.satisfied = report.max_ks <= report.tolerance;
  return report;
}

}  // namespace

Result<AuditResult> EvaluateMetrics(const EvaluateInputs& inputs,
                                    const AuditConfig& config,
                                    const std::string& parent_path) {
  AuditResult result;
  Status first_error;
  // Runs one metric under its `metric/<name>` span and hands a passing
  // report to `keep`. Metrics after a failure still run, so the span
  // tree does not depend on which metric failed; the first failure is
  // the one returned.
  auto evaluate = [&](std::string_view name, auto compute, auto keep) {
    obs::TraceSpan span("metric/" + std::string(name), parent_path);
    auto report = compute();
    if (!report.ok()) {
      if (first_error.ok()) first_error = report.status();
      return;
    }
    result.all_satisfied = result.all_satisfied && report->satisfied;
    keep(std::move(report).ValueOrDie());
  };
  auto keep_metric = [&result](metrics::MetricReport report) {
    result.reports.push_back(std::move(report));
  };
  auto keep_conditional = [&result](metrics::ConditionalReport report) {
    result.conditional_reports.push_back(std::move(report));
  };

  const std::vector<metrics::GroupStats> selection =
      metrics::GroupStatsFromCounts(*inputs.counts, /*with_labels=*/false);
  evaluate("demographic_parity", [&] {
    return metrics::DemographicParityFromStats(selection, config.tolerance);
  }, keep_metric);
  evaluate("demographic_disparity", [&] {
    return metrics::DemographicDisparityFromStats(selection);
  }, keep_metric);
  evaluate("disparate_impact_ratio", [&] {
    return metrics::DisparateImpactRatioFromStats(selection,
                                                  config.di_threshold);
  }, keep_metric);
  if (inputs.has_labels) {
    const std::vector<metrics::GroupStats> labeled =
        metrics::GroupStatsFromCounts(*inputs.counts, /*with_labels=*/true);
    evaluate("equal_opportunity", [&] {
      return metrics::EqualOpportunityFromStats(labeled, config.tolerance);
    }, keep_metric);
    evaluate("equalized_odds", [&] {
      return metrics::EqualizedOddsFromStats(labeled, config.tolerance);
    }, keep_metric);
    evaluate("predictive_parity", [&] {
      return metrics::PredictiveParityFromStats(labeled, config.tolerance);
    }, keep_metric);
    evaluate("accuracy_equality", [&] {
      return metrics::AccuracyEqualityFromStats(labeled, config.tolerance);
    }, keep_metric);
  }
  if (inputs.score_series != nullptr && !config.score_column.empty()) {
    evaluate("calibration_within_groups", [&] {
      return metrics::CalibrationFromSeries(*inputs.score_series,
                                            config.calibration_bins,
                                            config.calibration_tolerance);
    }, [&result](metrics::CalibrationReport report) {
      result.calibration = std::move(report);
    });
  }
  if (inputs.strata_counts != nullptr &&
      inputs.strata_counts->num_strata() > 0) {
    evaluate("conditional_statistical_parity", [&] {
      return metrics::ConditionalStatisticalParityFromCounts(
          *inputs.strata_counts, config.tolerance, config.min_stratum_size);
    }, keep_conditional);
    evaluate("conditional_demographic_disparity", [&] {
      return metrics::ConditionalDemographicDisparityFromCounts(
          *inputs.strata_counts, config.min_stratum_size);
    }, keep_conditional);
  }
  if (!first_error.ok()) return first_error;
  return result;
}

Result<AuditResult> EvaluateMergedPartials(const MergedPartials& merged,
                                           const AuditConfig& config,
                                           const std::string& parent_path) {
  FAIRLAW_RETURN_NOT_OK(merged.FirstError());
  EvaluateInputs inputs;
  inputs.counts = &merged.counts();
  inputs.strata_counts =
      config.strata_columns.empty() ? nullptr : &merged.strata_counts();
  inputs.score_series =
      config.score_column.empty() ? nullptr : &merged.score_series();
  inputs.has_labels = !config.label_column.empty();
  FAIRLAW_ASSIGN_OR_RETURN(AuditResult result,
                           EvaluateMetrics(inputs, config, parent_path));
  if (config.audit_score_distribution) {
    obs::TraceSpan span("metric/score_distribution", parent_path);
    FAIRLAW_ASSIGN_OR_RETURN(
        result.score_distribution,
        ScoreDistributionAudit(merged.score_series(), merged.scores(),
                               config));
    result.all_satisfied =
        result.all_satisfied && result.score_distribution->satisfied;
  }
  return result;
}

Status EmptyAuditError(const data::Table& empty, const AuditConfig& config) {
  Status probe = MetricInputFromTable(empty, config.protected_column,
                                      config.prediction_column,
                                      config.label_column)
                     .status();
  if (!probe.ok()) return probe;
  return Status::Invalid("MetricInput: empty input");
}

}  // namespace fairlaw::audit
