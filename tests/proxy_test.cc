#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "audit/proxy.h"
#include "data/column.h"
#include "data/schema.h"
#include "stats/empirical.h"
#include "stats/rng.h"

namespace fairlaw::audit {
namespace {

using fairlaw::stats::Rng;

/// gender with one strong numeric proxy, one weak proxy, one independent
/// feature, and one categorical proxy.
data::Table ProxyTable(size_t n, double strong, double weak) {
  Rng rng(13);
  std::vector<std::string> gender(n);
  std::vector<double> strong_proxy(n);
  std::vector<double> weak_proxy(n);
  std::vector<double> independent(n);
  std::vector<std::string> district(n);
  for (size_t i = 0; i < n; ++i) {
    bool female = rng.Bernoulli(0.5);
    gender[i] = female ? "female" : "male";
    strong_proxy[i] = (female ? -strong : strong) + rng.Normal(0.0, 1.0);
    weak_proxy[i] = (female ? -weak : weak) + rng.Normal(0.0, 1.0);
    independent[i] = rng.Normal(0.0, 1.0);
    // Categorical proxy: females mostly in district "north".
    district[i] = rng.Bernoulli(female ? 0.85 : 0.15) ? "north" : "south";
  }
  data::Schema schema =
      data::Schema::Make({{"gender", data::DataType::kString},
                          {"strong_proxy", data::DataType::kDouble},
                          {"weak_proxy", data::DataType::kDouble},
                          {"independent", data::DataType::kDouble},
                          {"district", data::DataType::kString}})
          .ValueOrDie();
  return data::Table::Make(
             schema, {data::Column::FromStrings(gender),
                      data::Column::FromDoubles(strong_proxy),
                      data::Column::FromDoubles(weak_proxy),
                      data::Column::FromDoubles(independent),
                      data::Column::FromStrings(district)})
      .ValueOrDie();
}

TEST(ProxyDetectionTest, RanksProxiesByAssociation) {
  data::Table table = ProxyTable(4000, 2.0, 0.5);
  std::vector<ProxyFinding> findings =
      DetectProxies(table, "gender",
                    {"strong_proxy", "weak_proxy", "independent",
                     "district"})
          .ValueOrDie();
  ASSERT_EQ(findings.size(), 4u);
  // Sorted by Cramér's V; the strong proxy or district leads, the
  // independent feature is last.
  EXPECT_EQ(findings.back().feature, "independent");
  EXPECT_LT(findings.back().cramers_v, 0.1);
  // Find the named entries.
  auto find = [&](const std::string& name) -> const ProxyFinding& {
    for (const ProxyFinding& f : findings) {
      if (f.feature == name) return f;
    }
    ADD_FAILURE() << name << " missing";
    return findings[0];
  };
  EXPECT_GT(find("strong_proxy").cramers_v, 0.5);
  EXPECT_TRUE(find("strong_proxy").flagged);
  EXPECT_GT(find("district").cramers_v, 0.5);
  EXPECT_TRUE(find("district").flagged);
  EXPECT_FALSE(find("independent").flagged);
  EXPECT_GT(find("strong_proxy").cramers_v, find("weak_proxy").cramers_v);
  // Mutual information is ordered consistently.
  EXPECT_GT(find("strong_proxy").mutual_information,
            find("independent").mutual_information);
  // Predictability gain: strong proxy predicts gender well above the
  // majority baseline.
  EXPECT_GT(find("strong_proxy").predictability_gain, 0.2);
  EXPECT_LT(find("independent").predictability_gain, 0.05);
}

TEST(ProxyDetectionTest, NoProxiesWhenIndependent) {
  data::Table table = ProxyTable(2000, 0.0, 0.0);
  std::vector<ProxyFinding> findings =
      DetectProxies(table, "gender", {"strong_proxy", "weak_proxy"})
          .ValueOrDie();
  for (const ProxyFinding& finding : findings) {
    EXPECT_FALSE(finding.flagged);
    EXPECT_LT(finding.cramers_v, 0.1);
  }
}

TEST(ProxyContingencyTest, ShapeMatchesBinsAndGroups) {
  data::Table table = ProxyTable(500, 1.0, 0.0);
  auto contingency =
      ProxyContingencyTable(table, "strong_proxy", "gender", 10)
          .ValueOrDie();
  EXPECT_EQ(contingency.size(), 10u);  // 10 quantile bins
  EXPECT_EQ(contingency[0].size(), 2u);  // two genders
  int64_t total = 0;
  for (const auto& row : contingency) {
    for (int64_t cell : row) total += cell;
  }
  EXPECT_EQ(total, 500);
}

TEST(ProxyDetectionTest, Validation) {
  data::Table table = ProxyTable(100, 1.0, 0.0);
  EXPECT_FALSE(DetectProxies(table, "gender", {}).ok());
  EXPECT_FALSE(
      DetectProxies(table, "gender", {"gender"}).ok());  // self-proxy
  EXPECT_FALSE(DetectProxies(table, "gender", {"missing"}).ok());
  ProxyDetectionOptions options;
  options.flag_threshold = 2.0;
  EXPECT_FALSE(
      DetectProxies(table, "gender", {"strong_proxy"}, options).ok());
}

TEST(ProxyDetectionTest, NonFiniteNumericColumnIsInvalid) {
  const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (double bad : kNonFinite) {
    std::vector<double> values(200);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = i % 7 == 3 ? bad : static_cast<double>(i);
    }
    data::Table table =
        ProxyTable(200, 1.0, 0.0)
            .AddColumn("tainted", data::Column::FromDoubles(values))
            .ValueOrDie();
    Status status =
        DetectProxies(table, "gender", {"strong_proxy", "tainted"}).status();
    EXPECT_TRUE(status.IsInvalid());
    EXPECT_EQ(status.message(),
              "DetectProxies: column 'tainted' has non-finite values");
    EXPECT_FALSE(ProxyContingencyTable(table, "tainted", "gender", 10).ok());
    // The bins check still comes first.
    EXPECT_EQ(
        ProxyContingencyTable(table, "tainted", "gender", 1).status().message(),
        "DetectProxies: bins must be >= 2");
  }
}

// The cut path before one-sort discretization: nine copy-and-sort type-7
// quantiles per numeric column, copied here as the oracle.
namespace nine_sort {

double Quantile(std::span<const double> values, double q) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = static_cast<size_t>(std::ceil(position));
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[upper] - sorted[lower]);
}

std::vector<double> Cuts(const std::vector<double>& values, size_t bins) {
  std::vector<double> cuts;
  for (size_t b = 1; b < bins; ++b) {
    cuts.push_back(Quantile(values, static_cast<double>(b) /
                                        static_cast<double>(bins)));
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

std::vector<std::vector<int64_t>> Contingency(
    const std::vector<double>& feature, const std::vector<std::string>& group,
    size_t bins) {
  const std::vector<double> cuts = Cuts(feature, bins);
  std::vector<std::string> distinct;
  for (const std::string& g : group) {
    if (std::find(distinct.begin(), distinct.end(), g) == distinct.end()) {
      distinct.push_back(g);
    }
  }
  std::vector<std::vector<int64_t>> contingency(
      cuts.size() + 1, std::vector<int64_t>(distinct.size(), 0));
  for (size_t i = 0; i < feature.size(); ++i) {
    const auto bin = static_cast<size_t>(
        std::upper_bound(cuts.begin(), cuts.end(), feature[i]) -
        cuts.begin());
    const auto column = static_cast<size_t>(
        std::find(distinct.begin(), distinct.end(), group[i]) -
        distinct.begin());
    ++contingency[bin][column];
  }
  return contingency;
}

}  // namespace nine_sort

TEST(ProxyTest, OneSortCutsMatchTheNineSortPath) {
  Rng rng(29);
  const size_t n = 257;
  std::vector<std::string> group(n);
  for (std::string& g : group) {
    g = rng.Bernoulli(0.4) ? "a" : (rng.Bernoulli(0.5) ? "b" : "c");
  }
  // Ties, a constant column, 2- and 3-valued columns, a continuous one.
  std::vector<std::vector<double>> features(5, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    features[0][i] = static_cast<double>(rng.UniformInt(6)) * 0.5;
    features[1][i] = 3.25;
    features[2][i] = rng.Bernoulli(0.3) ? 1.0 : 0.0;
    features[3][i] = static_cast<double>(rng.UniformInt(3)) - 1.0;
    features[4][i] = rng.Normal(0.0, 2.0);
  }
  for (size_t f = 0; f < features.size(); ++f) {
    for (size_t bins : {2u, 3u, 10u, 64u}) {
      SCOPED_TRACE("feature " + std::to_string(f) + " bins " +
                   std::to_string(bins));
      const std::vector<double>& values = features[f];
      stats::EmpiricalDistribution distribution =
          stats::EmpiricalDistribution::Make(values).ValueOrDie();
      std::vector<double> cuts;
      for (size_t b = 1; b < bins; ++b) {
        cuts.push_back(distribution.Quantile(static_cast<double>(b) /
                                             static_cast<double>(bins)));
      }
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      const std::vector<double> oracle_cuts = nine_sort::Cuts(values, bins);
      ASSERT_EQ(cuts.size(), oracle_cuts.size());
      for (size_t c = 0; c < cuts.size(); ++c) {
        EXPECT_EQ(std::bit_cast<uint64_t>(cuts[c]),
                  std::bit_cast<uint64_t>(oracle_cuts[c]));
      }

      data::Schema schema =
          data::Schema::Make({{"group", data::DataType::kString},
                              {"feature", data::DataType::kDouble}})
              .ValueOrDie();
      data::Table table =
          data::Table::Make(schema, {data::Column::FromStrings(group),
                                     data::Column::FromDoubles(values)})
              .ValueOrDie();
      EXPECT_EQ(ProxyContingencyTable(table, "feature", "group", bins)
                    .ValueOrDie(),
                nine_sort::Contingency(values, group, bins));
    }
  }
}

TEST(ProxyTest, EmptyNumericColumnStillFailsAsAnEmptyQuantile) {
  data::Schema schema =
      data::Schema::Make({{"group", data::DataType::kString},
                          {"feature", data::DataType::kDouble}})
          .ValueOrDie();
  data::Table table = data::Table::Make(schema, {data::Column::FromStrings({}),
                                                 data::Column::FromDoubles({})})
                          .ValueOrDie();
  EXPECT_EQ(
      ProxyContingencyTable(table, "feature", "group", 10).status().message(),
      "Quantile of empty sample");
}

}  // namespace
}  // namespace fairlaw::audit
