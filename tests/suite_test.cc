// Integration: the one-call fairness suite over a full synthetic
// pipeline (generate -> train -> predict -> audit everything), and the
// same report from a CSV read of only the columns the suite names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "audit/report_io.h"
#include "audit/source.h"
#include "core/json.h"
#include "core/suite.h"
#include "data/csv.h"
#include "ml/logistic_regression.h"
#include "obs/obs.h"
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

// ---------------------------------------------------------------------------
// A read projected onto SuiteConfig::ColumnsRead() gives the same report
// as the full read.

/// Promotion decisions plus a score column and an unused note column
/// whose cells carry delimiters, quotes and newlines, as CSV text.
std::string PromotionCsv(uint64_t seed) {
  Rng rng(seed);
  sim::PromotionOptions options;
  options.n = 3000;
  data::Table table =
      sim::MakePromotionScenario(options, &rng).ValueOrDie().table;
  std::vector<double> scores(table.num_rows());
  std::vector<std::string> notes(table.num_rows());
  const data::Column& promoted = *table.GetColumn("promoted").ValueOrDie();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const double base = promoted.GetInt64(r).ValueOrDie() == 1 ? 0.5 : 0.0;
    scores[r] = base + 0.5 * rng.Uniform();
    notes[r] = r % 3 == 0 ? "a,\"b\"\nc" : "plain";
  }
  table = table.AddColumn("score", data::Column::FromDoubles(scores))
              .ValueOrDie()
              .AddColumn("note", data::Column::FromStrings(notes))
              .ValueOrDie();
  return data::WriteCsvString(table).ValueOrDie();
}

template <size_t N>
std::vector<std::string> Subset(Rng* rng, const char* const (&names)[N]) {
  std::vector<std::string> out;
  for (const char* name : names) {
    if (rng->Bernoulli(0.4)) out.push_back(name);
  }
  return out;
}

/// A random suite over the promotion columns; now and then it names a
/// column the file lacks, so error paths are compared too.
SuiteConfig RandomConfig(Rng* rng) {
  static const char* const kProxies[] = {"performance", "tenure", "race",
                                         "note"};
  static const char* const kSubgroups[] = {"gender", "race"};
  SuiteConfig config;
  const bool by_gender = rng->Bernoulli(0.6);
  config.audit.protected_column = by_gender ? "gender" : "race";
  config.audit.prediction_column = rng->Bernoulli(0.95) ? "promoted" : "absent";
  if (rng->Bernoulli(0.7)) config.audit.label_column = "merit";
  if (!config.audit.label_column.empty() && rng->Bernoulli(0.4)) {
    config.audit.score_column = "score";
  }
  if (rng->Bernoulli(0.4)) {
    config.audit.strata_columns.push_back(by_gender ? "race" : "gender");
  }
  if (rng->Bernoulli(0.05)) config.audit.strata_columns.push_back("absent");
  config.proxy_candidates = Subset(rng, kProxies);
  config.subgroup_columns = Subset(rng, kSubgroups);
  config.subgroup_options.max_depth = 2;
  config.check_sampling = rng->Bernoulli(0.7);
  config.check_four_fifths = rng->Bernoulli(0.7);
  if (rng->Bernoulli(0.3)) {
    const double share = rng->Uniform(0.2, 0.8);
    config.population_shares =
        by_gender ? std::map<std::string, double>{{"female", share},
                                                  {"male", 1 - share}}
                  : std::map<std::string, double>{{"caucasian", share},
                                                  {"non_caucasian",
                                                   1 - share}};
  }
  return config;
}

std::string SuiteOutcome(const data::Table& table, const SuiteConfig& config) {
  Result<SuiteReport> report = RunFairnessSuite(table, config);
  if (!report.ok()) return report.status().ToString();
  return SuiteReportToJson(*report).ValueOrDie();
}

/// How many of the file's columns `include` names.
uint64_t ColumnsNamed(const data::Table& full,
                      const std::vector<std::string>& include) {
  uint64_t named = 0;
  for (const data::Field& field : full.schema().fields()) {
    named += std::count(include.begin(), include.end(), field.name) > 0;
  }
  return named;
}

TEST(SuiteTest, ProjectedReadGivesTheFullReadsReport) {
  const std::string text = PromotionCsv(21);
  const data::Table full = data::ReadCsvString(text).ValueOrDie();
  ASSERT_EQ(full.num_columns(), 8u);
  const std::string path =
      ::testing::TempDir() + "/fairlaw_suite_projection.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  size_t clean_runs = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const SuiteConfig config = RandomConfig(&rng);
    data::CsvOptions options;
    options.include_columns = config.ColumnsRead();
    const uint64_t parsed = ColumnsNamed(full, options.include_columns);
    [[maybe_unused]] const uint64_t skipped = full.num_columns() - parsed;

    obs::ResetAll();
    const data::Table projected =
        data::ReadCsvString(text, options).ValueOrDie();
    EXPECT_EQ(projected.num_columns(), parsed) << "seed " << seed;
#ifndef FAIRLAW_OBS_DISABLED
    EXPECT_EQ(obs::GetCounter("csv.columns_parsed")->Value(), parsed);
    EXPECT_EQ(obs::GetCounter("csv.columns_skipped")->Value(), skipped);
#endif
    const std::string want = SuiteOutcome(full, config);
    EXPECT_EQ(SuiteOutcome(projected, config), want) << "seed " << seed;
    clean_runs += want.front() == '{' ? 1 : 0;

    // The streaming audit reads the same projection, and its counters
    // do not depend on threads or chunk size.
    audit::AuditConfig audit_config = config.audit;
    const Result<audit::AuditResult> in_memory =
        audit::RunAudit(full, audit_config);
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      for (const size_t chunk_rows : {size_t{0}, size_t{500}}) {
        audit_config.num_threads = threads;
        audit_config.chunk_rows = chunk_rows;
        obs::ResetAll();
        const Result<audit::AuditResult> streamed = audit::Auditor::Run(
            audit::AuditSource::FromCsv(path, options), audit_config);
        const std::string where = "seed " + std::to_string(seed) +
                                  " threads " + std::to_string(threads) +
                                  " chunk_rows " + std::to_string(chunk_rows);
        ASSERT_EQ(streamed.ok(), in_memory.ok()) << where;
        if (in_memory.ok()) {
          EXPECT_EQ(audit::AuditResultToJson(*streamed).ValueOrDie(),
                    audit::AuditResultToJson(*in_memory).ValueOrDie())
              << where;
        } else {
          EXPECT_EQ(streamed.status().ToString(),
                    in_memory.status().ToString())
              << where;
        }
#ifndef FAIRLAW_OBS_DISABLED
        if (!audit_config.Validate().ok()) continue;  // no file was read
        EXPECT_EQ(obs::GetCounter("csv.columns_parsed")->Value(), parsed)
            << where;
        EXPECT_EQ(obs::GetCounter("csv.columns_skipped")->Value(), skipped)
            << where;
#endif
      }
    }
  }
  obs::ResetAll();
  std::remove(path.c_str());
  // Most draws must reach a full report, not only errors.
  EXPECT_GT(clean_runs, 20u);
}

}  // namespace
}  // namespace fairlaw
