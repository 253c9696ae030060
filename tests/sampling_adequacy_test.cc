#include <gtest/gtest.h>

#include <vector>

#include "audit/sampling_adequacy.h"

namespace fairlaw::audit {
namespace {

metrics::MetricInput MakeInput(int big_n, int small_n) {
  metrics::MetricInput input;
  for (int i = 0; i < big_n; ++i) {
    input.groups.push_back("majority");
    input.predictions.push_back(i % 2);
  }
  for (int i = 0; i < small_n; ++i) {
    input.groups.push_back("minority");
    input.predictions.push_back(i % 2);
  }
  return input;
}

TEST(SamplingAdequacyTest, SmallGroupFlagged) {
  metrics::MetricInput input = MakeInput(2000, 8);
  SamplingReport report = AssessSamplingAdequacy(input).ValueOrDie();
  ASSERT_EQ(report.groups.size(), 2u);
  EXPECT_FALSE(report.all_adequate);
  for (const GroupSupport& support : report.groups) {
    if (support.group == "majority") {
      EXPECT_TRUE(support.adequate);
      EXPECT_LT(support.ci_halfwidth, 0.03);
    } else {
      EXPECT_FALSE(support.adequate);
      EXPECT_GT(support.ci_halfwidth, 0.3);
    }
  }
  EXPECT_NE(report.detail.find("minority"), std::string::npos);
}

TEST(SamplingAdequacyTest, BalancedLargeGroupsPass) {
  metrics::MetricInput input = MakeInput(1000, 1000);
  SamplingReport report = AssessSamplingAdequacy(input).ValueOrDie();
  EXPECT_TRUE(report.all_adequate);
  EXPECT_TRUE(report.detail.empty());
}

TEST(SamplingAdequacyTest, HalfwidthMatchesNormalFormula) {
  metrics::MetricInput input = MakeInput(400, 400);
  SamplingReport report = AssessSamplingAdequacy(input).ValueOrDie();
  // p = 0.5, n = 400, z(0.95) = 1.96: hw = 1.96*sqrt(.25/400) = 0.049.
  EXPECT_NEAR(report.groups[0].ci_halfwidth, 0.049, 0.001);
}

TEST(SamplingAdequacyTest, Validation) {
  metrics::MetricInput input = MakeInput(10, 10);
  SamplingAdequacyOptions options;
  options.confidence = 1.5;
  EXPECT_FALSE(AssessSamplingAdequacy(input, options).ok());
  options.confidence = 0.95;
  options.max_ci_halfwidth = 0.0;
  EXPECT_FALSE(AssessSamplingAdequacy(input, options).ok());
}

/// AssessSamplingAdequacyFromStats(ComputeGroupStats(x)) equals
/// AssessSamplingAdequacy(x): the same report, or the same error.
void ExpectSameReport(const metrics::MetricInput& input,
                      const SamplingAdequacyOptions& options) {
  const Result<SamplingReport> rowwise =
      AssessSamplingAdequacy(input, options);
  Result<std::vector<metrics::GroupStats>> stats =
      metrics::ComputeGroupStats(input, /*with_labels=*/false);
  const Result<SamplingReport> from_stats =
      stats.ok() ? AssessSamplingAdequacyFromStats(*stats, options)
                 : Result<SamplingReport>(stats.status());
  ASSERT_EQ(from_stats.ok(), rowwise.ok());
  if (!rowwise.ok()) {
    EXPECT_EQ(from_stats.status().message(), rowwise.status().message());
    return;
  }
  EXPECT_EQ(from_stats->all_adequate, rowwise->all_adequate);
  EXPECT_EQ(from_stats->detail, rowwise->detail);
  ASSERT_EQ(from_stats->groups.size(), rowwise->groups.size());
  for (size_t i = 0; i < rowwise->groups.size(); ++i) {
    const GroupSupport& a = from_stats->groups[i];
    const GroupSupport& b = rowwise->groups[i];
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.share, b.share);
    EXPECT_EQ(a.selection_rate, b.selection_rate);
    EXPECT_EQ(a.ci_halfwidth, b.ci_halfwidth);
    EXPECT_EQ(a.adequate, b.adequate);
  }
}

TEST(SamplingAdequacyTest, FromStatsMatchesTheMetricInputForm) {
  SamplingAdequacyOptions options;
  ExpectSameReport(MakeInput(2000, 8), options);
  ExpectSameReport(MakeInput(1000, 1000), options);
  ExpectSameReport(MakeInput(400, 3), options);
  options.min_count = 5;
  options.max_ci_halfwidth = 0.3;
  options.confidence = 0.9;
  ExpectSameReport(MakeInput(37, 11), options);
  // Errors: bad confidence, bad half-width, empty and non-binary input.
  options.confidence = 1.5;
  ExpectSameReport(MakeInput(10, 10), options);
  // With both bad options and a bad input, the MetricInput form still
  // reports the options first.
  EXPECT_EQ(AssessSamplingAdequacy(metrics::MetricInput{}, options)
                .status()
                .message(),
            "AssessSamplingAdequacy: confidence must lie in (0,1)");
  options.confidence = 0.95;
  options.max_ci_halfwidth = 0.0;
  ExpectSameReport(MakeInput(10, 10), options);
  options.max_ci_halfwidth = 0.1;
  ExpectSameReport(metrics::MetricInput{}, options);
  metrics::MetricInput bad = MakeInput(3, 3);
  bad.predictions[1] = 2;
  ExpectSameReport(bad, options);
}

TEST(RequiredSampleSizeTest, MatchesClosedForm) {
  // Worst case p=.5, hw=.05, 95%: n = 1.96^2*.25/.0025 ~ 384.
  size_t n = RequiredSampleSize(0.5, 0.05, 0.95).ValueOrDie();
  EXPECT_NEAR(static_cast<double>(n), 384.0, 2.0);
  // Smaller halfwidth quadruples the requirement when halved.
  size_t n2 = RequiredSampleSize(0.5, 0.025, 0.95).ValueOrDie();
  EXPECT_NEAR(static_cast<double>(n2), 4.0 * static_cast<double>(n), 8.0);
  // Degenerate rate needs 1 sample.
  EXPECT_EQ(RequiredSampleSize(0.0, 0.05, 0.95).ValueOrDie(), 1u);
}

TEST(RequiredSampleSizeTest, Validation) {
  EXPECT_FALSE(RequiredSampleSize(1.5, 0.05, 0.95).ok());
  EXPECT_FALSE(RequiredSampleSize(0.5, 0.0, 0.95).ok());
  EXPECT_FALSE(RequiredSampleSize(0.5, 0.05, 0.0).ok());
}

}  // namespace
}  // namespace fairlaw::audit
