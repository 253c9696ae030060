// §III-B and §III-F worked examples plus conditional-metric edge cases.
#include <gtest/gtest.h>

#include "metrics/conditional_metrics.h"
#include "metrics/group_metrics.h"

namespace fairlaw::metrics {
namespace {

void AddRows(MetricInput* input, std::vector<std::string>* strata,
             const std::string& group, const std::string& stratum,
             int prediction, int count) {
  for (int i = 0; i < count; ++i) {
    input->groups.push_back(group);
    input->predictions.push_back(prediction);
    strata->push_back(stratum);
  }
}

// ---- §III-B conditional statistical parity: 10 F / 20 M; 10 young
// males (5 hired, 50%), 6 young females; fair iff 3 young females hired.
// Old applicants: keep their rates equal so only the young stratum
// drives the verdict.

struct CspExample {
  MetricInput input;
  std::vector<std::string> strata;
};

CspExample MakeCspExample(int young_females_hired) {
  CspExample example;
  // Young males: 10, 5 hired.
  AddRows(&example.input, &example.strata, "male", "young", 1, 5);
  AddRows(&example.input, &example.strata, "male", "young", 0, 5);
  // Young females: 6.
  AddRows(&example.input, &example.strata, "female", "young", 1,
          young_females_hired);
  AddRows(&example.input, &example.strata, "female", "young", 0,
          6 - young_females_hired);
  // Old males: 10, 4 hired (40%). Old females: 4 applicants; 40% would
  // be 1.6, use 2/5... keep old rates equal: hire 2 of 4 females? 2/4=0.5
  // != 0.4. Use 10 old males with 4 hired and 5 old females with 2 hired
  // (both 40%).
  AddRows(&example.input, &example.strata, "male", "old", 1, 4);
  AddRows(&example.input, &example.strata, "male", "old", 0, 6);
  AddRows(&example.input, &example.strata, "female", "old", 1, 2);
  AddRows(&example.input, &example.strata, "female", "old", 0, 3);
  return example;
}

TEST(PaperExampleB, ThreeYoungFemalesHiredIsFair) {
  CspExample example = MakeCspExample(3);
  ConditionalReport report =
      ConditionalStatisticalParity(example.input, example.strata)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_NEAR(report.max_gap, 0.0, 1e-12);
  ASSERT_EQ(report.strata.size(), 2u);
}

TEST(PaperExampleB, FewerYoungFemalesHiredIsUnfair) {
  CspExample example = MakeCspExample(1);
  ConditionalReport report =
      ConditionalStatisticalParity(example.input, example.strata)
          .ValueOrDie();
  EXPECT_FALSE(report.satisfied);
  // Young stratum gap: 0.5 - 1/6.
  EXPECT_NEAR(report.max_gap, 0.5 - 1.0 / 6.0, 1e-12);
  // The old stratum individually is fine.
  for (const StratumReport& sr : report.strata) {
    if (sr.stratum == "old") {
      EXPECT_TRUE(sr.report.satisfied);
    }
    if (sr.stratum == "young") {
      EXPECT_FALSE(sr.report.satisfied);
    }
  }
}

TEST(PaperExampleB, MarginalParityCanHideStratumDisparity) {
  // Simpson-style: each stratum is biased but the marginal rates are
  // equal — conditioning is what reveals it (the reason §III-B exists).
  MetricInput input;
  std::vector<std::string> strata;
  // Stratum s1: males 8/10 hired, females 6/10 hired (male favored).
  AddRows(&input, &strata, "male", "s1", 1, 8);
  AddRows(&input, &strata, "male", "s1", 0, 2);
  AddRows(&input, &strata, "female", "s1", 1, 6);
  AddRows(&input, &strata, "female", "s1", 0, 4);
  // Stratum s2: males 2/10, females 4/10 (female favored) -> marginals
  // both 50%.
  AddRows(&input, &strata, "male", "s2", 1, 2);
  AddRows(&input, &strata, "male", "s2", 0, 8);
  AddRows(&input, &strata, "female", "s2", 1, 4);
  AddRows(&input, &strata, "female", "s2", 0, 6);

  MetricReport marginal = DemographicParity(input).ValueOrDie();
  EXPECT_TRUE(marginal.satisfied);  // marginals hide it
  ConditionalReport conditional =
      ConditionalStatisticalParity(input, strata).ValueOrDie();
  EXPECT_FALSE(conditional.satisfied);
  EXPECT_NEAR(conditional.max_gap, 0.2, 1e-12);
}

// ---- §III-F conditional demographic disparity: 100 females over 5
// jobs; 40 hired overall (unfair under plain DD) but jobs 1-4 hire all
// and job 5 rejects all: fair conditioned on jobs 1-4, unfair on job 5.

TEST(PaperExampleF, PerJobVerdictsMatchPaper) {
  MetricInput input;
  std::vector<std::string> strata;
  for (int job = 1; job <= 4; ++job) {
    AddRows(&input, &strata, "female", "job" + std::to_string(job), 1, 10);
  }
  AddRows(&input, &strata, "female", "job5", 0, 60);

  // Plain demographic disparity: 40 hires vs 60 rejections -> unfair.
  EXPECT_FALSE(DemographicDisparity(input).ValueOrDie().satisfied);

  ConditionalReport report =
      ConditionalDemographicDisparity(input, strata).ValueOrDie();
  EXPECT_FALSE(report.satisfied);  // job5 still fails
  ASSERT_EQ(report.strata.size(), 5u);
  for (const StratumReport& sr : report.strata) {
    if (sr.stratum == "job5") {
      EXPECT_FALSE(sr.report.satisfied);
    } else {
      EXPECT_TRUE(sr.report.satisfied);
    }
  }
}

// ---- structural behavior ----

TEST(ConditionalMetricsTest, SmallStrataAreSkippedNotFailed) {
  MetricInput input;
  std::vector<std::string> strata;
  AddRows(&input, &strata, "male", "big", 1, 30);
  AddRows(&input, &strata, "female", "big", 1, 30);
  // Tiny biased stratum below min size.
  AddRows(&input, &strata, "male", "tiny", 1, 2);
  AddRows(&input, &strata, "female", "tiny", 0, 2);
  ConditionalReport report =
      ConditionalStatisticalParity(input, strata, 0.0,
                                   /*min_stratum_size=*/10)
          .ValueOrDie();
  EXPECT_TRUE(report.satisfied);
  EXPECT_EQ(report.strata.size(), 1u);
  EXPECT_NE(report.detail.find("tiny"), std::string::npos);
}

TEST(ConditionalMetricsTest, AllStrataSkippedIsAnError) {
  MetricInput input;
  std::vector<std::string> strata;
  AddRows(&input, &strata, "male", "s", 1, 2);
  AddRows(&input, &strata, "female", "s", 1, 2);
  EXPECT_FALSE(ConditionalStatisticalParity(input, strata, 0.0,
                                            /*min_stratum_size=*/100)
                   .ok());
}

TEST(ConditionalMetricsTest, NegativeToleranceRejectedWhenEveryStratumSkipped) {
  MetricInput input;
  std::vector<std::string> strata;
  AddRows(&input, &strata, "male", "s", 1, 2);
  AddRows(&input, &strata, "female", "s", 0, 2);
  const std::string expected = "fairness metric: tolerance must be >= 0";
  Result<ConditionalReport> rowwise = ConditionalStatisticalParity(
      input, strata, -0.1, /*min_stratum_size=*/100);
  ASSERT_FALSE(rowwise.ok());
  EXPECT_EQ(rowwise.status().message(), expected);

  stats::StratifiedCountsAccumulator counts;
  stats::GroupCountsAccumulator* stratum = counts.Stratum("s");
  stratum->AddRow(stratum->KeyIndex("male"), 1);
  stratum->AddRow(stratum->KeyIndex("female"), 0);
  Result<ConditionalReport> from_counts =
      ConditionalStatisticalParityFromCounts(counts, -0.1,
                                             /*min_stratum_size=*/100);
  ASSERT_FALSE(from_counts.ok());
  EXPECT_EQ(from_counts.status().message(), expected);
}

TEST(ConditionalMetricsTest, StrataLengthMismatchRejected) {
  MetricInput input;
  std::vector<std::string> strata;
  AddRows(&input, &strata, "male", "s", 1, 4);
  strata.pop_back();
  EXPECT_FALSE(ConditionalStatisticalParity(input, strata).ok());
  EXPECT_FALSE(ConditionalDemographicDisparity(input, strata).ok());
}

TEST(ConditionalMetricsTest, RenderMentionsStrata) {
  CspExample example = MakeCspExample(1);
  ConditionalReport report =
      ConditionalStatisticalParity(example.input, example.strata)
          .ValueOrDie();
  std::string text = RenderConditionalReport(report);
  EXPECT_NE(text.find("young"), std::string::npos);
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
}

}  // namespace
}  // namespace fairlaw::metrics
