// Integration: the one-call fairness suite over a full synthetic
// pipeline (generate -> train -> predict -> audit everything).
#include <gtest/gtest.h>

#include "core/json.h"
#include "core/suite.h"
#include "ml/logistic_regression.h"
#include "simulation/scenarios.h"

namespace fairlaw {
namespace {

using fairlaw::stats::Rng;

/// Generates biased hiring data, trains an unaware model on it, and
/// appends the model's predictions as a "pred" column.
data::Table PipelineTable(double label_bias, double proxy_strength,
                          uint64_t seed) {
  Rng rng(seed);
  sim::HiringOptions options;
  options.n = 5000;
  options.label_bias = label_bias;
  options.proxy_strength = proxy_strength;
  sim::ScenarioData scenario =
      sim::MakeHiringScenario(options, &rng).ValueOrDie();
  ml::Dataset dataset =
      ml::DatasetFromTable(scenario.table, scenario.feature_columns,
                           scenario.label_column)
          .ValueOrDie();
  ml::LogisticRegression model;
  EXPECT_TRUE(model.Fit(dataset).ok());
  std::vector<int> predictions =
      model.PredictBatch(dataset.features).ValueOrDie();
  std::vector<int64_t> prediction_column(predictions.begin(),
                                         predictions.end());
  return scenario.table
      .AddColumn("pred", data::Column::FromInt64s(prediction_column))
      .ValueOrDie();
}

SuiteConfig FullConfig() {
  SuiteConfig config;
  config.audit.protected_column = "gender";
  config.audit.prediction_column = "pred";
  config.audit.label_column = "merit";  // audit against gender-blind merit
  config.audit.tolerance = 0.05;
  config.proxy_candidates = {"university", "experience", "test_score"};
  config.subgroup_columns = {"gender"};
  config.subgroup_options.max_depth = 1;
  return config;
}

TEST(SuiteTest, BiasedPipelineFailsAcrossTheBoard) {
  data::Table table = PipelineTable(1.5, 1.5, 3);
  SuiteReport report = RunFairnessSuite(table, FullConfig()).ValueOrDie();
  EXPECT_FALSE(report.all_clear);
  EXPECT_FALSE(report.audit.all_satisfied);
  // The university proxy is flagged.
  bool proxy_flagged = false;
  for (const audit::ProxyFinding& finding : report.proxies) {
    if (finding.feature == "university" && finding.flagged) {
      proxy_flagged = true;
    }
  }
  EXPECT_TRUE(proxy_flagged);
  ASSERT_TRUE(report.four_fifths.has_value());
  EXPECT_FALSE(report.four_fifths->passed);
  ASSERT_TRUE(report.sampling.has_value());
  EXPECT_TRUE(report.sampling->all_adequate);  // 5000 rows is plenty

  std::string text = report.Render();
  EXPECT_NE(text.find("issues found"), std::string::npos);
  EXPECT_NE(text.find("PROXY"), std::string::npos);
}

TEST(SuiteTest, UnbiasedPipelineMostlyClear) {
  data::Table table = PipelineTable(0.0, 0.0, 5);
  SuiteConfig config = FullConfig();
  SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
  // Demographic parity against merit-fair predictions.
  const metrics::MetricReport* dp =
      report.audit.Find("demographic_parity").ValueOrDie();
  EXPECT_TRUE(dp->satisfied);
  for (const audit::ProxyFinding& finding : report.proxies) {
    EXPECT_FALSE(finding.flagged) << finding.feature;
  }
  ASSERT_TRUE(report.four_fifths.has_value());
  EXPECT_TRUE(report.four_fifths->passed);
}

TEST(SuiteTest, OptionalStagesCanBeDisabled) {
  data::Table table = PipelineTable(1.0, 1.0, 7);
  SuiteConfig config = FullConfig();
  config.proxy_candidates.clear();
  config.subgroup_columns.clear();
  config.check_sampling = false;
  config.check_four_fifths = false;
  SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
  EXPECT_TRUE(report.proxies.empty());
  EXPECT_FALSE(report.subgroups.has_value());
  EXPECT_FALSE(report.sampling.has_value());
  EXPECT_FALSE(report.four_fifths.has_value());
}

TEST(SuiteTest, RepresentationAuditFlagsSkewedComposition) {
  data::Table table = PipelineTable(0.5, 0.5, 11);
  SuiteConfig config = FullConfig();
  // Population is 50/50 but the hiring pool is ~1/3 female: flagged.
  config.population_shares = {{"female", 0.5}, {"male", 0.5}};
  SuiteReport report = RunFairnessSuite(table, config).ValueOrDie();
  ASSERT_TRUE(report.representation.has_value());
  EXPECT_FALSE(report.representation->composition_ok);
  EXPECT_FALSE(report.all_clear);
  EXPECT_NE(report.Render().find("UNDER-REPRESENTED"), std::string::npos);

  // The JSON export carries the failed check that flipped all_clear.
  const std::string json = SuiteReportToJson(report).ValueOrDie();
  EXPECT_NE(json.find("\"all_clear\":false"), std::string::npos);
  const size_t block =
      json.find("\"representation\":{\"composition_ok\":false");
  ASSERT_NE(block, std::string::npos);
  EXPECT_NE(json.find("\"group\":\"female\"", block), std::string::npos);
  EXPECT_NE(json.find("\"under_represented\":true", block),
            std::string::npos);

  // Matching reference passes.
  config.population_shares = {{"female", 1.0 / 3.0}, {"male", 2.0 / 3.0}};
  SuiteReport matched = RunFairnessSuite(table, config).ValueOrDie();
  ASSERT_TRUE(matched.representation.has_value());
  EXPECT_TRUE(matched.representation->composition_ok);
  EXPECT_NE(SuiteReportToJson(matched).ValueOrDie().find(
                "\"representation\":{\"composition_ok\":true"),
            std::string::npos);

  // Without population shares the block is absent.
  config.population_shares.clear();
  EXPECT_EQ(SuiteReportToJson(RunFairnessSuite(table, config).ValueOrDie())
                .ValueOrDie()
                .find("\"representation\""),
            std::string::npos);
}

TEST(SuiteTest, BadConfigSurfacesError) {
  data::Table table = PipelineTable(1.0, 1.0, 9);
  SuiteConfig config = FullConfig();
  config.audit.protected_column = "missing";
  EXPECT_FALSE(RunFairnessSuite(table, config).ok());
}

}  // namespace
}  // namespace fairlaw
