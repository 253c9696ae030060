#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/group_index.h"
#include "stats/rng.h"

namespace fairlaw::data {
namespace {

Table MakeTable() {
  return ReadCsvString(
             "gender,dept,hired\n"
             "f,eng,1\n"
             "m,eng,1\n"
             "f,sales,0\n"
             "m,eng,0\n"
             "f,eng,1\n")
      .ValueOrDie();
}

const Column& ColumnOf(const Table& table, const std::string& name) {
  return *table.GetColumn(name).ValueOrDie();
}

TEST(KeyCodesTest, SingleColumn) {
  Table table = MakeTable();
  KeyCodes keys = EncodeKeys(ColumnOf(table, "gender"));
  EXPECT_EQ(keys.dictionary.keys(), (std::vector<std::string>{"f", "m"}));
  EXPECT_EQ(keys.codes, (std::vector<uint32_t>{0, 1, 0, 1, 0}));
}

TEST(KeyCodesTest, NonStringColumnsGroupByRenderedValue) {
  Table table = MakeTable();
  KeyCodes keys = EncodeKeys(ColumnOf(table, "hired"));
  EXPECT_EQ(keys.dictionary.keys(), (std::vector<std::string>{"1", "0"}));
  EXPECT_EQ(keys.codes, (std::vector<uint32_t>{0, 0, 1, 1, 0}));
}

TEST(KeyCodesTest, FirstSeenOrder) {
  Table table = MakeTable();
  KeyCodes keys = EncodeKeys(ColumnOf(table, "dept"));
  EXPECT_EQ(keys.dictionary.keys(),
            (std::vector<std::string>{"eng", "sales"}));
  EXPECT_EQ(keys.codes, (std::vector<uint32_t>{0, 0, 1, 0, 0}));
}

TEST(KeyCodesTest, MissingColumnIsAnErrorAtTheTableLevel) {
  Table table = MakeTable();
  EXPECT_FALSE(GroupIndex::Build(table, {}).ok());
  EXPECT_FALSE(GroupIndex::Build(table, {"missing"}).ok());
  EXPECT_FALSE(GroupIndex::Build(table, {"gender", "missing"}).ok());
}

TEST(KeyCodesTest, NullSharesTheSlotOfALiteralNullString) {
  Column column(DataType::kString);
  column.AppendString("null");
  column.AppendNull();
  column.AppendString("a");
  column.AppendNull();
  KeyCodes keys = EncodeKeys(column);
  EXPECT_EQ(keys.dictionary.keys(), (std::vector<std::string>{"null", "a"}));
  EXPECT_EQ(keys.codes, (std::vector<uint32_t>{0, 0, 1, 0}));
}

TEST(KeyCodesTest, DoublesGroupAtTheirSixDigitRendering) {
  Column column = Column::FromDoubles({1.0, 1.0000001, 0.0, -0.0, 1e-9,
                                       -1e-9, std::nan("")});
  KeyCodes keys = EncodeKeys(column);
  // 1.0000001 renders as 1.000000; -0.0 keeps its sign; +-1e-9 round to
  // the zero of their sign.
  EXPECT_EQ(keys.codes, (std::vector<uint32_t>{0, 0, 1, 2, 1, 2, 3}));
  EXPECT_EQ(keys.dictionary.keys()[0], "1.000000");
  EXPECT_EQ(keys.dictionary.keys()[2], "-0.000000");
}

// ---------------------------------------------------------------------------
// Differential test: GroupBy/DistinctValues/ValueCounts, the group-by
// that EncodeKeys replaced, copied verbatim as the oracle (less the
// multi-column key renderer, which nothing called).

namespace oracle {

struct Group {
  std::vector<std::string> key;
  std::vector<size_t> rows;
};

Result<std::vector<Group>> GroupBy(const Table& table,
                                   const std::vector<std::string>& columns) {
  if (columns.empty()) return Status::Invalid("GroupBy: no grouping columns");
  std::vector<const Column*> group_columns;
  group_columns.reserve(columns.size());
  for (const std::string& name : columns) {
    FAIRLAW_ASSIGN_OR_RETURN(const Column* column, table.GetColumn(name));
    group_columns.push_back(column);
  }

  std::vector<Group> groups;
  std::map<std::vector<std::string>, size_t> index_of;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    std::vector<std::string> key(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
      key[c] = group_columns[c]->ValueToString(row);
    }
    auto [it, inserted] = index_of.try_emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{key, {}});
    }
    groups[it->second].rows.push_back(row);
  }
  return groups;
}

Result<std::vector<std::string>> DistinctValues(const Table& table,
                                                const std::string& column) {
  FAIRLAW_ASSIGN_OR_RETURN(auto groups, GroupBy(table, {column}));
  std::vector<std::string> values;
  values.reserve(groups.size());
  for (const Group& group : groups) values.push_back(group.key[0]);
  return values;
}

Result<std::vector<int64_t>> ValueCounts(const Table& table,
                                         const std::string& column) {
  FAIRLAW_ASSIGN_OR_RETURN(auto groups, GroupBy(table, {column}));
  std::vector<int64_t> counts;
  counts.reserve(groups.size());
  for (const Group& group : groups) {
    counts.push_back(static_cast<int64_t>(group.rows.size()));
  }
  return counts;
}

}  // namespace oracle

/// A column of `n` rows of `type` drawn from a small pool of values that
/// collide by rendering (the literal "null", doubles equal at 6 digits,
/// signed zeros, NaN), with nulls at rate `null_rate`.
Column RandomColumn(stats::Rng* rng, DataType type, size_t n,
                    double null_rate) {
  static const std::vector<double> kDoubles = {
      0.0,  -0.0, 1e-9, -1e-9, 1.0, 1.0000001, 0.999999, 2.5, -2.5,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  static const std::vector<int64_t> kInts = {
      0, 1, -1, 42, std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};
  static const std::vector<std::string> kStrings = {"a", "b", "null", "",
                                                    "A", "nan", "0"};
  Column column(type);
  for (size_t row = 0; row < n; ++row) {
    if (rng->Bernoulli(null_rate)) {
      column.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kDouble:
        column.AppendDouble(kDoubles[rng->UniformInt(kDoubles.size())]);
        break;
      case DataType::kInt64:
        column.AppendInt64(kInts[rng->UniformInt(kInts.size())]);
        break;
      case DataType::kString:
        column.AppendString(kStrings[rng->UniformInt(kStrings.size())]);
        break;
      case DataType::kBool:
        column.AppendBool(rng->Bernoulli(0.5));
        break;
    }
  }
  return column;
}

TEST(KeyCodesTest, MatchesOldGroupByOnRandomColumns) {
  const DataType kTypes[] = {DataType::kDouble, DataType::kInt64,
                             DataType::kString, DataType::kBool};
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    stats::Rng rng(seed);
    const DataType type = kTypes[rng.UniformInt(4)];
    const size_t n = rng.UniformInt(300);
    const double null_rate = rng.Bernoulli(0.5) ? 0.0 : 0.15;
    Schema schema = Schema::Make({{"c", type}}).ValueOrDie();
    Table table =
        Table::Make(schema, {RandomColumn(&rng, type, n, null_rate)})
            .ValueOrDie();
    const Column& column = ColumnOf(table, "c");

    KeyCodes keys = EncodeKeys(column);
    std::vector<oracle::Group> groups =
        oracle::GroupBy(table, {"c"}).ValueOrDie();
    ASSERT_EQ(keys.codes.size(), n);
    ASSERT_EQ(keys.dictionary.keys(),
              oracle::DistinctValues(table, "c").ValueOrDie());
    std::vector<int64_t> counts(keys.dictionary.size(), 0);
    for (uint32_t code : keys.codes) ++counts[code];
    EXPECT_EQ(counts, oracle::ValueCounts(table, "c").ValueOrDie());
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t row : groups[g].rows) ASSERT_EQ(keys.codes[row], g);
    }

    // GroupIndex::Build partitions rows by exactly these codes.
    GroupIndex index = GroupIndex::Build(table, {"c"}).ValueOrDie();
    const AttributeIndex& attribute = index.attributes()[0];
    ASSERT_EQ(attribute.values, keys.dictionary.keys());
    ASSERT_EQ(attribute.bitmaps.size(), keys.dictionary.size());
    for (size_t v = 0; v < attribute.bitmaps.size(); ++v) {
      EXPECT_EQ(attribute.bitmaps[v].ToIndices(), groups[v].rows);
    }
  }
}

}  // namespace
}  // namespace fairlaw::data
