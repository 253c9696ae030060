// Contract tests for the chunk-mergeable accumulators (stats/mergeable.h):
// keys keep first-seen order, MergeFrom over chunk partials in chunk
// order equals one sequential pass over the same rows, and FindKey on an
// absent key returns the key count. GroupedSketches has its own case in
// kll_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "stats/mergeable.h"
#include "stats/rng.h"

namespace fairlaw::stats {
namespace {

struct Row {
  std::string stratum;
  std::string group;
  int prediction = 0;
  int label = 0;
  double score = 0.0;
};

std::vector<Row> RandomRows(uint64_t seed, size_t n) {
  const std::vector<std::string> groups = {"c", "a", "d", "b"};
  const std::vector<std::string> strata = {"young", "old", "mid"};
  Rng rng(seed);
  std::vector<Row> rows(n);
  for (Row& row : rows) {
    row.stratum = strata[rng.UniformInt(strata.size())];
    row.group = groups[rng.UniformInt(groups.size())];
    row.prediction = rng.Bernoulli(0.4) ? 1 : 0;
    row.label = rng.Bernoulli(0.5) ? 1 : 0;
    row.score = rng.Uniform(0.0, 1.0);
  }
  return rows;
}

/// Chunk boundaries of uneven sizes, including an empty chunk.
std::vector<size_t> ChunkEnds(size_t n) {
  return {0, 1, 7, 7, n / 3, n / 2 + 5, n};
}

void Fold(const Row& row, GroupCountsAccumulator* counts,
          StratifiedCountsAccumulator* strata, GroupedSeries* series) {
  counts->AddRow(counts->KeyIndex(row.group), row.prediction, row.label);
  GroupCountsAccumulator* stratum = strata->Stratum(row.stratum);
  stratum->AddRow(stratum->KeyIndex(row.group), row.prediction);
  series->Append(series->KeyIndex(row.group), row.score,
                 static_cast<uint8_t>(row.label));
}

void ExpectSameCounts(const GroupCountsAccumulator& a,
                      const GroupCountsAccumulator& b) {
  ASSERT_EQ(a.keys(), b.keys());
  for (size_t i = 0; i < a.num_keys(); ++i) {
    EXPECT_EQ(a.counts(i), b.counts(i)) << "key " << a.keys()[i];
  }
}

TEST(GroupCountsAccumulatorTest, KeysKeepFirstSeenOrder) {
  GroupCountsAccumulator counts;
  counts.AddRow(counts.KeyIndex("beta"), 1, 1);
  counts.AddRow(counts.KeyIndex("alpha"), 0, 1);
  counts.AddRow(counts.KeyIndex("beta"), 1, 0);
  counts.AddRow(counts.KeyIndex("gamma"), 0, 0);
  ASSERT_EQ(counts.keys(), (std::vector<std::string>{"beta", "alpha",
                                                     "gamma"}));
  const GroupCounts& beta = counts.counts(0);
  EXPECT_EQ(beta.count, 2);
  EXPECT_EQ(beta.positive_predictions, 2);
  EXPECT_EQ(beta.actual_positives, 1);
  EXPECT_EQ(beta.true_positives, 1);
  const GroupCounts& alpha = counts.counts(1);
  EXPECT_EQ(alpha.count, 1);
  EXPECT_EQ(alpha.positive_predictions, 0);
  EXPECT_EQ(alpha.actual_positives, 1);
  EXPECT_EQ(alpha.true_positives, 0);
  EXPECT_EQ(counts.KeyIndex("alpha"), 1u);
  EXPECT_EQ(counts.num_keys(), 3u);
}

TEST(GroupCountsAccumulatorTest, FindKeyOnAbsentKeyReturnsNumKeys) {
  GroupCountsAccumulator counts;
  EXPECT_EQ(counts.FindKey("missing"), 0u);
  counts.AddRow(counts.KeyIndex("a"), 1);
  counts.AddRow(counts.KeyIndex("b"), 0);
  EXPECT_EQ(counts.FindKey("b"), 1u);
  EXPECT_EQ(counts.FindKey("missing"), counts.num_keys());
  EXPECT_EQ(counts.num_keys(), 2u);  // the probe inserted nothing
}

TEST(StratifiedCountsAccumulatorTest, KeysKeepFirstSeenOrder) {
  StratifiedCountsAccumulator strata;
  for (const auto& [stratum, group, prediction] :
       {std::tuple{"s2", "m", 1}, std::tuple{"s1", "f", 0},
        std::tuple{"s2", "f", 1}}) {
    GroupCountsAccumulator* counts = strata.Stratum(stratum);
    counts->AddRow(counts->KeyIndex(group), prediction);
  }
  ASSERT_EQ(strata.keys(), (std::vector<std::string>{"s2", "s1"}));
  EXPECT_EQ(strata.stratum(0).keys(), (std::vector<std::string>{"m", "f"}));
  EXPECT_EQ(strata.stratum(1).keys(), (std::vector<std::string>{"f"}));
  EXPECT_EQ(strata.FindKey("s1"), 1u);
  EXPECT_EQ(strata.FindKey("missing"), strata.num_strata());
  EXPECT_EQ(strata.num_strata(), 2u);
}

TEST(GroupedSeriesTest, KeysKeepFirstSeenOrder) {
  GroupedSeries series;
  series.Append(series.KeyIndex("y"), 0.5, 1);
  series.Append(series.KeyIndex("x"), 0.25, 0);
  series.Append(series.KeyIndex("y"), 0.75, 0);
  ASSERT_EQ(series.keys(), (std::vector<std::string>{"y", "x"}));
  EXPECT_EQ(series.values(0), (std::vector<double>{0.5, 0.75}));
  EXPECT_EQ(series.tags(0), (std::vector<uint8_t>{1, 0}));
  EXPECT_EQ(series.values(1), (std::vector<double>{0.25}));
  EXPECT_EQ(series.FindKey("x"), 1u);
  EXPECT_EQ(series.FindKey("missing"), series.num_keys());
  EXPECT_EQ(series.num_keys(), 2u);
}

TEST(MergeableContractTest, ChunkOrderMergeEqualsSequentialPass) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<Row> rows = RandomRows(seed, 500);

    GroupCountsAccumulator seq_counts;
    StratifiedCountsAccumulator seq_strata;
    GroupedSeries seq_series;
    for (const Row& row : rows) {
      Fold(row, &seq_counts, &seq_strata, &seq_series);
    }

    GroupCountsAccumulator merged_counts;
    StratifiedCountsAccumulator merged_strata;
    GroupedSeries merged_series;
    const std::vector<size_t> ends = ChunkEnds(rows.size());
    for (size_t c = 1; c < ends.size(); ++c) {
      GroupCountsAccumulator counts;
      StratifiedCountsAccumulator strata;
      GroupedSeries series;
      for (size_t i = ends[c - 1]; i < ends[c]; ++i) {
        Fold(rows[i], &counts, &strata, &series);
      }
      merged_counts.MergeFrom(counts);
      merged_strata.MergeFrom(strata);
      merged_series.MergeFrom(series);
    }

    ExpectSameCounts(merged_counts, seq_counts);

    ASSERT_EQ(merged_strata.keys(), seq_strata.keys());
    for (size_t s = 0; s < seq_strata.num_strata(); ++s) {
      ExpectSameCounts(merged_strata.stratum(s), seq_strata.stratum(s));
    }

    ASSERT_EQ(merged_series.keys(), seq_series.keys());
    for (size_t k = 0; k < seq_series.num_keys(); ++k) {
      EXPECT_EQ(merged_series.values(k), seq_series.values(k));
      EXPECT_EQ(merged_series.tags(k), seq_series.tags(k));
    }
  }
}

}  // namespace
}  // namespace fairlaw::stats
