#include "simulation/feedback_loop.h"

#include <algorithm>
#include <cmath>

#include "data/column.h"
#include "data/group_index.h"
#include "mitigation/reweighing.h"
#include "mitigation/threshold_optimizer.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "simulation/scenarios.h"
#include "stats/empirical.h"

namespace fairlaw::sim {
namespace {

struct Pool {
  std::vector<std::vector<double>> features;
  std::vector<std::string> genders;
  std::vector<int> historical_labels;
  std::vector<int> merit;
};

Result<Pool> DrawPool(size_t n, double female_share, double label_bias,
                      double proxy_strength, stats::Rng* rng) {
  HiringOptions options;
  options.n = n;
  options.female_share = female_share;
  options.label_bias = label_bias;
  options.proxy_strength = proxy_strength;
  FAIRLAW_ASSIGN_OR_RETURN(ScenarioData scenario,
                           MakeHiringScenario(options, rng));
  Pool pool;
  FAIRLAW_ASSIGN_OR_RETURN(
      pool.features,
      ml::FeaturesFromTable(scenario.table, scenario.feature_columns));
  FAIRLAW_ASSIGN_OR_RETURN(const data::Column* gender,
                           scenario.table.GetColumn("gender"));
  pool.genders.resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRLAW_ASSIGN_OR_RETURN(pool.genders[i], gender->GetString(i));
  }
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<uint8_t> hired,
                           data::BinaryValues(scenario.table, "hired"));
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<uint8_t> merit,
                           data::BinaryValues(scenario.table, "merit"));
  pool.historical_labels.assign(hired.begin(), hired.end());
  pool.merit.assign(merit.begin(), merit.end());
  return pool;
}

Result<ml::LogisticRegression> Train(
    const std::vector<std::vector<double>>& features,
    const std::vector<int>& labels, const std::vector<std::string>& genders,
    LoopMitigation mitigation) {
  ml::Dataset data;
  data.feature_names = {"university", "experience", "test_score"};
  data.features = features;
  data.labels = labels;
  if (mitigation == LoopMitigation::kReweighing) {
    FAIRLAW_RETURN_NOT_OK(mitigation::ApplyReweighing(genders, &data));
  }
  ml::LogisticRegressionOptions lr_options;
  lr_options.max_epochs = 200;
  ml::LogisticRegression model(lr_options);
  FAIRLAW_RETURN_NOT_OK(model.Fit(data));
  return model;
}

}  // namespace

Result<FeedbackLoopResult> RunFeedbackLoop(const FeedbackLoopOptions& options,
                                           stats::Rng* rng) {
  if (rng == nullptr) return Status::Invalid("RunFeedbackLoop: null rng");
  if (options.rounds < 1) {
    return Status::Invalid("RunFeedbackLoop: rounds must be >= 1");
  }
  if (options.selection_rate <= 0.0 || options.selection_rate >= 1.0) {
    return Status::Invalid("RunFeedbackLoop: selection_rate must lie in "
                           "(0,1)");
  }
  if (options.discouragement < 0.0) {
    return Status::Invalid("RunFeedbackLoop: discouragement must be >= 0");
  }

  // Round 0: historical, biased training data.
  FAIRLAW_ASSIGN_OR_RETURN(
      Pool history,
      DrawPool(options.initial_n, 0.5, options.label_bias,
               options.proxy_strength, rng));
  std::vector<std::vector<double>> train_features = history.features;
  std::vector<int> train_labels = history.historical_labels;
  std::vector<std::string> train_genders = history.genders;

  FAIRLAW_ASSIGN_OR_RETURN(
      ml::LogisticRegression model,
      Train(train_features, train_labels, train_genders, options.mitigation));

  FeedbackLoopResult result;
  double female_share = 0.5;
  for (int round = 0; round < options.rounds; ++round) {
    // Fresh applicants; labels in this pool are unused — the model's own
    // decisions become the labels (the feedback channel). Applicant pools
    // carry no decision bias knob of their own.
    FAIRLAW_ASSIGN_OR_RETURN(
        Pool applicants,
        DrawPool(options.applicants_per_round, female_share,
                 options.label_bias, options.proxy_strength, rng));

    FAIRLAW_ASSIGN_OR_RETURN(std::vector<double> scores,
                             model.PredictProbaBatch(applicants.features));
    std::vector<int> decisions;
    if (options.mitigation == LoopMitigation::kGroupThresholds) {
      mitigation::ThresholdOptimizerOptions to_options;
      to_options.target_rate = options.selection_rate;
      FAIRLAW_ASSIGN_OR_RETURN(
          mitigation::GroupThresholds thresholds,
          mitigation::OptimizeThresholds(
              applicants.genders, scores, {},
              mitigation::ThresholdCriterion::kDemographicParity,
              to_options));
      FAIRLAW_ASSIGN_OR_RETURN(decisions,
                               thresholds.Apply(applicants.genders, scores));
    } else {
      FAIRLAW_ASSIGN_OR_RETURN(stats::EmpiricalDistribution dist,
                               stats::EmpiricalDistribution::Make(scores));
      double threshold = dist.Quantile(1.0 - options.selection_rate);
      decisions.resize(scores.size());
      for (size_t i = 0; i < scores.size(); ++i) {
        decisions[i] = scores[i] >= threshold ? 1 : 0;
      }
    }

    // Round statistics.
    RoundStats stats;
    stats.round = round;
    size_t female_n = 0;
    size_t female_pos = 0;
    size_t male_n = 0;
    size_t male_pos = 0;
    size_t correct = 0;
    for (size_t i = 0; i < decisions.size(); ++i) {
      if (applicants.genders[i] == "female") {
        ++female_n;
        female_pos += decisions[i];
      } else {
        ++male_n;
        male_pos += decisions[i];
      }
      if (decisions[i] == applicants.merit[i]) ++correct;
    }
    stats.selection_rate_female =
        female_n > 0 ? static_cast<double>(female_pos) /
                           static_cast<double>(female_n)
                     : 0.0;
    stats.selection_rate_male =
        male_n > 0 ? static_cast<double>(male_pos) /
                         static_cast<double>(male_n)
                   : 0.0;
    stats.dp_gap =
        std::fabs(stats.selection_rate_male - stats.selection_rate_female);
    stats.female_applicant_share =
        static_cast<double>(female_n) /
        static_cast<double>(decisions.size());
    stats.accuracy_vs_merit = static_cast<double>(correct) /
                              static_cast<double>(decisions.size());
    result.rounds.push_back(stats);

    // Feedback channel 1: the model's decisions become training labels.
    train_features.insert(train_features.end(), applicants.features.begin(),
                          applicants.features.end());
    train_labels.insert(train_labels.end(), decisions.begin(),
                        decisions.end());
    train_genders.insert(train_genders.end(), applicants.genders.begin(),
                         applicants.genders.end());
    FAIRLAW_ASSIGN_OR_RETURN(
        model, Train(train_features, train_labels, train_genders,
                     options.mitigation));

    // Feedback channel 2: discouragement shifts the applicant pool.
    double gap =
        std::max(0.0, stats.selection_rate_male - stats.selection_rate_female);
    female_share *= 1.0 - options.discouragement * gap;
    female_share = std::clamp(female_share, 0.05, 0.95);
  }

  result.gap_drift =
      result.rounds.back().dp_gap - result.rounds.front().dp_gap;
  return result;
}

}  // namespace fairlaw::sim
