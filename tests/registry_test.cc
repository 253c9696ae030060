#include <gtest/gtest.h>

#include "core/registry.h"
#include "metrics/group_metrics.h"

namespace fairlaw {
namespace {

metrics::MetricInput SampleInput() {
  metrics::MetricInput input;
  for (int i = 0; i < 10; ++i) {
    input.groups.push_back(i < 5 ? "a" : "b");
    input.predictions.push_back(i % 2);
    input.labels.push_back(i % 2);
  }
  return input;
}

TEST(RegistryTest, DefaultHasSevenMetrics) {
  const MetricRegistry& registry = MetricRegistry::Default();
  EXPECT_EQ(registry.size(), 7u);
  std::vector<std::string> names = registry.Names();
  EXPECT_EQ(names[0], "demographic_parity");
  EXPECT_TRUE(registry.Get("equalized_odds").ok());
  EXPECT_FALSE(registry.Get("zzz").ok());
}

TEST(RegistryTest, EntriesDeclareLabelRequirements) {
  const MetricRegistry& registry = MetricRegistry::Default();
  EXPECT_FALSE(
      registry.Get("demographic_parity").ValueOrDie()->requires_labels);
  EXPECT_TRUE(
      registry.Get("equal_opportunity").ValueOrDie()->requires_labels);
}

TEST(RegistryTest, EntriesAreInvocable) {
  const MetricRegistry& registry = MetricRegistry::Default();
  metrics::MetricInput input = SampleInput();
  for (const std::string& name : registry.Names()) {
    const MetricEntry* entry = registry.Get(name).ValueOrDie();
    Result<metrics::MetricReport> report = entry->fn(input, 0.1);
    ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
    EXPECT_FALSE(report->metric_name.empty());
  }
}

TEST(RegistryTest, EveryRegisteredMetricIsPinnedByName) {
  // The lint pass requires each name registered in core/registry.cc to be
  // referenced by a test; this test pins the full set, so adding a metric
  // without naming it in a test fails both lint and this expectation.
  const std::vector<std::string> expected = {
      "demographic_parity",     "equal_opportunity", "equalized_odds",
      "demographic_disparity",  "disparate_impact_ratio",
      "predictive_parity",      "accuracy_equality",
  };
  EXPECT_EQ(MetricRegistry::Default().Names(), expected);
}

TEST(RegistryTest, CompanionMetricsComputeOnBalancedInput) {
  const MetricRegistry& registry = MetricRegistry::Default();
  metrics::MetricInput input = SampleInput();
  Result<metrics::MetricReport> ppv =
      registry.Get("predictive_parity").ValueOrDie()->fn(input, 0.1);
  ASSERT_TRUE(ppv.ok()) << ppv.status().ToString();
  EXPECT_EQ(ppv->metric_name, "predictive_parity");
  Result<metrics::MetricReport> acc =
      registry.Get("accuracy_equality").ValueOrDie()->fn(input, 0.1);
  ASSERT_TRUE(acc.ok()) << acc.status().ToString();
  EXPECT_EQ(acc->metric_name, "accuracy_equality");
}

TEST(RegistryTest, RegisterRejectsDuplicatesAndBadEntries) {
  MetricRegistry registry;
  MetricEntry entry;
  entry.name = "custom";
  entry.fn = [](const metrics::MetricInput& input, double tolerance) {
    return metrics::DemographicParity(input, tolerance);
  };
  EXPECT_TRUE(registry.Register(entry).ok());
  EXPECT_TRUE(registry.Register(entry).IsAlreadyExists());
  MetricEntry nameless;
  nameless.fn = entry.fn;
  EXPECT_FALSE(registry.Register(nameless).ok());
  MetricEntry functionless;
  functionless.name = "empty";
  EXPECT_FALSE(registry.Register(functionless).ok());
}

}  // namespace
}  // namespace fairlaw
