// Tests for the chunked columnar substrate and the morsel-driven audit
// engine (DESIGN.md §14): chunk-boundary edges, nulls straddling chunk
// edges, byte-identical audit output across chunk sizes / thread counts /
// ingestion paths, the chunked subgroup walk against the row-wise oracle,
// and the radix/presorted tiers of the distance path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/report_io.h"
#include "audit/source.h"
#include "audit/subgroup.h"
#include "base/string_util.h"
#include "data/bitmap.h"
#include "data/chunked.h"
#include "data/csv.h"
#include "data/table.h"
#include "metrics/calibration_metric.h"
#include "metrics/conditional_metrics.h"
#include "metrics/fairness_metric.h"
#include "metrics/group_metrics.h"
#include "stats/distance.h"
#include "stats/rng.h"
#include "stats/sort.h"
#include "tests/read_csv_chunked.h"

namespace fairlaw {
namespace {

using audit::AuditConfig;
using audit::AuditResult;
using audit::SubgroupAuditOptions;
using audit::SubgroupAuditResult;
using data::ChunkedTable;
using data::Column;
using data::Table;
using stats::Rng;

/// Deterministic decisions CSV: group, stratum, prediction, label, score.
std::string MakeAuditCsv(size_t rows, uint64_t seed) {
  const char* groups[] = {"a", "b", "c"};
  const double rates[] = {0.3, 0.5, 0.7};
  Rng rng(seed);
  std::string text = "g,st,p,y,s\n";
  for (size_t i = 0; i < rows; ++i) {
    const size_t g = static_cast<size_t>(rng.UniformInt(3));
    text += groups[g];
    text += ",s";
    text += std::to_string(rng.UniformInt(2));
    text += ',';
    text += rng.Bernoulli(rates[g]) ? '1' : '0';
    text += ',';
    text += rng.Bernoulli(0.5) ? '1' : '0';
    text += ',';
    text += FormatDouble(rng.Uniform(), 6);
    text += '\n';
  }
  return text;
}

AuditConfig FullAuditConfig() {
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "p";
  config.label_column = "y";
  config.score_column = "s";
  config.strata_columns = {"st"};
  config.min_stratum_size = 5;
  config.audit_score_distribution = true;
  return config;
}

bool SameCells(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (a.column(c).IsValid(r) != b.column(c).IsValid(r)) return false;
      if (a.column(c).ValueToString(r) != b.column(c).ValueToString(r)) {
        return false;
      }
    }
  }
  return true;
}

/// The chunks of `chunked`, read in row order, hold the cells of `whole`.
bool SameCells(const Table& whole, const ChunkedTable& chunked) {
  if (!(chunked.schema() == whole.schema()) ||
      chunked.num_rows() != whole.num_rows()) {
    return false;
  }
  size_t offset = 0;
  for (size_t c = 0; c < chunked.num_chunks(); ++c) {
    const Table& chunk = chunked.chunk(c);
    if (!SameCells(whole.Slice(offset, chunk.num_rows()).ValueOrDie(),
                   chunk)) {
      return false;
    }
    offset += chunk.num_rows();
  }
  return true;
}

// ---------------------------------------------------------------------------
// ChunkedTable substrate.

TEST(ChunkedTableTest, BoundarySizesSplitAndRoundTrip) {
  // 0, 1, chunk-1, chunk, chunk+1, and 3*chunk+7 rows at chunk size 8.
  const size_t kChunk = 8;
  for (size_t rows : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                      size_t{31}}) {
    Table table = data::ReadCsvString(MakeAuditCsv(rows, 11)).ValueOrDie();
    ChunkedTable chunked = ChunkedTable::FromTable(table, kChunk).ValueOrDie();
    EXPECT_EQ(chunked.num_rows(), rows);
    EXPECT_EQ(chunked.num_chunks(), (rows + kChunk - 1) / kChunk);
    size_t total = 0;
    for (size_t c = 0; c < chunked.num_chunks(); ++c) {
      EXPECT_GE(chunked.chunk(c).num_rows(), 1u);
      EXPECT_LE(chunked.chunk(c).num_rows(), kChunk);
      total += chunked.chunk(c).num_rows();
    }
    EXPECT_EQ(total, rows);
    EXPECT_TRUE(SameCells(table, chunked)) << "rows=" << rows;
  }
}

TEST(ChunkedTableTest, ZeroRowTableKeepsSchemaWithZeroChunks) {
  Table table = data::ReadCsvString("g,p\n").ValueOrDie();
  ChunkedTable chunked = ChunkedTable::FromTable(table, 4).ValueOrDie();
  EXPECT_EQ(chunked.num_chunks(), 0u);
  EXPECT_EQ(chunked.num_rows(), 0u);
  EXPECT_TRUE(chunked.schema().HasField("g"));
  EXPECT_EQ(chunked.schema().num_fields(), 2u);
  EXPECT_TRUE(SameCells(table, chunked));
}

TEST(ChunkedTableTest, NullsStraddlingChunkEdgesSurvive) {
  // Nulls at rows 6..9 straddle the 8-row chunk boundary: the last two
  // rows of chunk 0 and the first two of chunk 1.
  std::string text = "x,t\n";
  for (size_t i = 0; i < 12; ++i) {
    const bool null_row = i >= 6 && i <= 9;
    text += null_row ? "" : std::to_string(i);
    text += ",r" + std::to_string(i) + "\n";
  }
  Table table = data::ReadCsvString(text).ValueOrDie();
  ASSERT_EQ(table.GetColumn("x").ValueOrDie()->null_count(), 4u);
  ChunkedTable chunked = ChunkedTable::FromTable(table, 8).ValueOrDie();
  ASSERT_EQ(chunked.num_chunks(), 2u);
  EXPECT_EQ(chunked.chunk(0).GetColumn("x").ValueOrDie()->null_count(), 2u);
  EXPECT_EQ(chunked.chunk(1).GetColumn("x").ValueOrDie()->null_count(), 2u);
  EXPECT_FALSE(chunked.chunk(0).GetColumn("x").ValueOrDie()->IsValid(7));
  EXPECT_FALSE(chunked.chunk(1).GetColumn("x").ValueOrDie()->IsValid(1));
  EXPECT_TRUE(chunked.chunk(1).GetColumn("x").ValueOrDie()->IsValid(2));
  EXPECT_TRUE(SameCells(table, chunked));
}

TEST(ChunkedBitmapTest, KernelCountsMatchContiguousBitmap) {
  const size_t n = 100;
  data::Bitmap whole_a(n);
  data::Bitmap whole_b(n);
  std::vector<data::Bitmap> parts_a;
  std::vector<data::Bitmap> parts_b;
  parts_a.emplace_back(64);
  parts_a.emplace_back(36);
  parts_b.emplace_back(64);
  parts_b.emplace_back(36);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    const size_t chunk = i < 64 ? 0 : 1;
    const size_t offset = i < 64 ? i : i - 64;
    if (rng.Bernoulli(0.4)) {
      whole_a.Set(i);
      parts_a[chunk].Set(offset);
    }
    if (rng.Bernoulli(0.6)) {
      whole_b.Set(i);
      parts_b[chunk].Set(offset);
    }
  }
  data::ChunkedBitmap chunked_a(std::move(parts_a));
  data::ChunkedBitmap chunked_b(std::move(parts_b));
  EXPECT_EQ(chunked_a.size(), n);
  EXPECT_EQ(chunked_a.Count(), whole_a.Count());
  EXPECT_EQ(data::ChunkedBitmap::AndCount(chunked_a, chunked_b),
            data::Bitmap::AndCount(whole_a, whole_b));
  data::ChunkedBitmap narrowed;
  data::Bitmap whole_narrowed;
  EXPECT_EQ(data::ChunkedBitmap::AndInto(chunked_a, chunked_b, &narrowed),
            data::Bitmap::AndInto(whole_a, whole_b, &whole_narrowed));
  EXPECT_EQ(narrowed.Count(), whole_narrowed.Count());
}

// ---------------------------------------------------------------------------
// Streaming CSV reader.

TEST(CsvChunkReaderTest, MatchesWholeFileReadOnAwkwardFixtures) {
  // Quoted delimiters/escapes, CRLF line endings, and null tokens — the
  // cases where a chunk-at-a-time re-scan could drift from the one-shot
  // parse.
  const std::string text =
      "name,score,tag\r\n"
      "\"x,y\",1.5,\"he said \"\"hi\"\"\"\r\n"
      ",2.5,plain\r\n"
      "NA,,third\r\n"
      "dora,4.5,\"multi\nline\"\r\n"
      "eve,5.5,last\r\n";
  const std::string path = "chunked_test_fixture.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
  }
  Table whole = data::ReadCsvFile(path).ValueOrDie();
  for (size_t chunk_rows : {size_t{1}, size_t{2}, size_t{3}, size_t{100}}) {
    data::CsvChunkReader::Options options;
    options.chunk_rows = chunk_rows;
    ChunkedTable chunked =
        data::ReadCsvFileChunked(path, options).ValueOrDie();
    EXPECT_TRUE(chunked.schema() == whole.schema());
    EXPECT_EQ(chunked.num_rows(), whole.num_rows());
    for (size_t c = 0; c < chunked.num_chunks(); ++c) {
      EXPECT_LE(chunked.chunk(c).num_rows(), chunk_rows);
    }
    EXPECT_TRUE(SameCells(whole, chunked)) << "chunk_rows=" << chunk_rows;
  }
  std::remove(path.c_str());
}

TEST(CsvChunkReaderTest, ReportsRowCountBeforeStreamingAndDrains) {
  const std::string path = "chunked_test_drain.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << MakeAuditCsv(10, 5);
    ASSERT_TRUE(out.good());
  }
  data::CsvChunkReader::Options options;
  options.chunk_rows = 4;
  data::CsvChunkReader reader =
      data::CsvChunkReader::Make(path, options).ValueOrDie();
  EXPECT_EQ(reader.num_rows(), 10u);
  size_t chunks = 0;
  size_t rows = 0;
  while (true) {
    auto chunk = reader.Next().ValueOrDie();
    if (!chunk.has_value()) break;
    ++chunks;
    rows += chunk->num_rows();
  }
  EXPECT_EQ(chunks, 3u);  // 4 + 4 + 2
  EXPECT_EQ(rows, 10u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Morsel-driven audit engine.

TEST(ChunkedAuditTest, ByteIdenticalAcrossChunkSizesAndThreads) {
  Table table = data::ReadCsvString(MakeAuditCsv(300, 23)).ValueOrDie();
  const AuditConfig reference_config = FullAuditConfig();
  const std::string reference =
      audit::RunAudit(table, reference_config).ValueOrDie().Render();
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      AuditConfig config = FullAuditConfig();
      config.chunk_rows = chunk_rows;
      config.num_threads = threads;
      const std::string render =
          audit::RunAudit(table, config).ValueOrDie().Render();
      EXPECT_EQ(render, reference)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
    }
  }
}

TEST(ChunkedAuditTest, StreamingCsvMatchesInMemoryAudit) {
  const std::string path = "chunked_test_stream.csv";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << MakeAuditCsv(200, 29);
    ASSERT_TRUE(out.good());
  }
  Table table = data::ReadCsvFile(path).ValueOrDie();
  const std::string reference =
      audit::RunAudit(table, FullAuditConfig()).ValueOrDie().Render();
  for (size_t chunk_rows : {size_t{9}, size_t{64}, size_t{100000}}) {
    for (size_t threads : {size_t{1}, size_t{3}}) {
      AuditConfig config = FullAuditConfig();
      config.chunk_rows = chunk_rows;
      config.num_threads = threads;
      const std::string streamed =
          audit::Auditor::Run(audit::AuditSource::FromCsv(path), config)
              .ValueOrDie()
              .Render();
      EXPECT_EQ(streamed, reference)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

TEST(ChunkedAuditTest, ErrorsMatchContiguousPathForEveryChunkSize) {
  // A non-binary prediction value in the last row: whichever chunk holds
  // it, the engine must surface the same row-independent message the
  // contiguous path produces.
  std::string text = "g,p\n";
  for (size_t i = 0; i < 20; ++i) text += "a,1\n";
  text += "b,2\n";
  Table table = data::ReadCsvString(text).ValueOrDie();
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "p";
  const std::string reference =
      audit::RunAudit(table, config).status().message();
  ASSERT_FALSE(reference.empty());
  for (size_t chunk_rows : {size_t{3}, size_t{8}, size_t{21}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      AuditConfig chunked = config;
      chunked.chunk_rows = chunk_rows;
      chunked.num_threads = threads;
      EXPECT_EQ(audit::RunAudit(table, chunked).status().message(),
                reference)
          << "chunk_rows=" << chunk_rows << " threads=" << threads;
    }
  }
  // Empty input: the zero-chunk path reports the same error as the
  // contiguous extractor.
  Table empty = data::ReadCsvString("g,p\n").ValueOrDie();
  const std::string empty_reference =
      audit::RunAudit(empty, config).status().message();
  AuditConfig chunked = config;
  chunked.chunk_rows = 4;
  EXPECT_EQ(audit::RunAudit(empty, chunked).status().message(),
            empty_reference);
}

// ---------------------------------------------------------------------------
// The codes fold against the row-wise metric forms.

Column RandomFlagColumn(Rng* rng, size_t rows, double rate) {
  const uint64_t type = rng->UniformInt(3);
  std::vector<int64_t> ints(rows);
  std::vector<uint8_t> bools(rows);
  std::vector<double> doubles(rows);
  for (size_t row = 0; row < rows; ++row) {
    const bool one = rng->Bernoulli(rate);
    ints[row] = one ? 1 : 0;
    bools[row] = one ? 1 : 0;
    doubles[row] = one ? 1.0 : (rng->Bernoulli(0.5) ? -0.0 : 0.0);
  }
  if (type == 0) return Column::FromInt64s(std::move(ints));
  if (type == 1) return Column::FromBools(std::move(bools));
  return Column::FromDoubles(std::move(doubles));
}

/// A seeded table: protected column `g` of `type` (values that render
/// alike, -0.0/0.0, NaN and a literal "null" string included), string
/// strata `s1`/`s2` whose values contain '|' ("a|b","c" and "a","b|c"
/// join alike), 0/1 columns `p`/`y` of random binary types, score `s`.
Table RandomFoldTable(uint64_t seed, data::DataType type, size_t rows) {
  Rng rng(seed);
  const char* strings[] = {"a", "b", "null", "a|b", "B"};
  const int64_t ints[] = {-3, 0, 1, 42};
  const double doubles[] = {0.0, -0.0, 1.5, 1.0, 1.0000001,
                            std::numeric_limits<double>::quiet_NaN()};
  const char* s1_values[] = {"a|b", "a", "x"};
  const char* s2_values[] = {"c", "b|c", ""};
  Column g(type);
  std::vector<std::string> s1(rows);
  std::vector<std::string> s2(rows);
  std::vector<double> scores(rows);
  for (size_t row = 0; row < rows; ++row) {
    switch (type) {
      case data::DataType::kString:
        g.AppendString(strings[rng.UniformInt(5)]);
        break;
      case data::DataType::kInt64:
        g.AppendInt64(ints[rng.UniformInt(4)]);
        break;
      case data::DataType::kBool:
        g.AppendBool(rng.Bernoulli(0.4));
        break;
      case data::DataType::kDouble:
        g.AppendDouble(doubles[rng.UniformInt(6)]);
        break;
    }
    s1[row] = s1_values[rng.UniformInt(3)];
    s2[row] = s2_values[rng.UniformInt(3)];
    scores[row] = rng.Uniform();
  }
  Column p = RandomFlagColumn(&rng, rows, 0.5);
  Column y = RandomFlagColumn(&rng, rows, 0.5);
  data::Schema schema = data::Schema::Make({{"g", type},
                                            {"s1", data::DataType::kString},
                                            {"s2", data::DataType::kString},
                                            {"p", p.type()},
                                            {"y", y.type()},
                                            {"s", data::DataType::kDouble}})
                            .ValueOrDie();
  return Table::Make(schema, {std::move(g), Column::FromStrings(std::move(s1)),
                              Column::FromStrings(std::move(s2)),
                              std::move(p), std::move(y),
                              Column::FromDoubles(std::move(scores))})
      .ValueOrDie();
}

/// The audit rebuilt from the row-wise MetricInput metric forms over
/// MetricInputFromTable and StrataFromTable: extraction first, then the
/// metrics in report order, the first error winning.
Result<AuditResult> RowwiseAudit(const Table& table,
                                 const AuditConfig& config) {
  FAIRLAW_ASSIGN_OR_RETURN(
      metrics::MetricInput input,
      audit::MetricInputFromTable(table, config.protected_column,
                                  config.prediction_column,
                                  config.label_column));
  std::vector<double> scores;
  if (!config.score_column.empty()) {
    FAIRLAW_ASSIGN_OR_RETURN(const Column* column,
                             table.GetColumn(config.score_column));
    FAIRLAW_ASSIGN_OR_RETURN(scores, column->ToDoubles());
  }
  std::vector<std::string> strata;
  if (!config.strata_columns.empty()) {
    FAIRLAW_ASSIGN_OR_RETURN(
        strata, audit::StrataFromTable(table, config.strata_columns));
  }
  std::vector<Result<metrics::MetricReport>> reports;
  reports.push_back(metrics::DemographicParity(input, config.tolerance));
  reports.push_back(metrics::DemographicDisparity(input));
  reports.push_back(
      metrics::DisparateImpactRatio(input, config.di_threshold));
  if (!config.label_column.empty()) {
    reports.push_back(metrics::EqualOpportunity(input, config.tolerance));
    reports.push_back(metrics::EqualizedOdds(input, config.tolerance));
    reports.push_back(metrics::PredictiveParity(input, config.tolerance));
    reports.push_back(metrics::AccuracyEquality(input, config.tolerance));
  }
  AuditResult result;
  for (Result<metrics::MetricReport>& report : reports) {
    FAIRLAW_ASSIGN_OR_RETURN(metrics::MetricReport value, std::move(report));
    result.all_satisfied = result.all_satisfied && value.satisfied;
    result.reports.push_back(std::move(value));
  }
  if (!config.score_column.empty()) {
    FAIRLAW_ASSIGN_OR_RETURN(
        result.calibration,
        metrics::CalibrationWithinGroups(input.groups, input.labels, scores,
                                         config.calibration_bins,
                                         config.calibration_tolerance));
    result.all_satisfied =
        result.all_satisfied && result.calibration->satisfied;
  }
  if (!config.strata_columns.empty()) {
    FAIRLAW_ASSIGN_OR_RETURN(
        metrics::ConditionalReport parity,
        metrics::ConditionalStatisticalParity(
            input, strata, config.tolerance, config.min_stratum_size));
    FAIRLAW_ASSIGN_OR_RETURN(
        metrics::ConditionalReport disparity,
        metrics::ConditionalDemographicDisparity(input, strata,
                                                 config.min_stratum_size));
    for (metrics::ConditionalReport* report : {&parity, &disparity}) {
      result.all_satisfied = result.all_satisfied && report->satisfied;
      result.conditional_reports.push_back(std::move(*report));
    }
  }
  return result;
}

/// RunAudit at chunk_rows 0/1/7/64 against RowwiseAudit: equal JSON, or
/// the same error message. Returns whether the oracle produced a report.
bool ExpectFoldMatchesRowwise(const Table& table, AuditConfig config) {
  const Result<AuditResult> oracle = RowwiseAudit(table, config);
  for (size_t chunk_rows : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    config.chunk_rows = chunk_rows;
    const Result<AuditResult> folded = audit::RunAudit(table, config);
    EXPECT_EQ(folded.ok(), oracle.ok());
    if (!folded.ok() || !oracle.ok()) {
      EXPECT_EQ(folded.status().message(), oracle.status().message());
      continue;
    }
    EXPECT_EQ(audit::AuditResultToJson(*folded).ValueOrDie(),
              audit::AuditResultToJson(*oracle).ValueOrDie());
  }
  return oracle.ok();
}

TEST(ChunkedAuditTest, CodesFoldMatchesRowwiseMetricForms) {
  const data::DataType kTypes[] = {data::DataType::kString,
                                   data::DataType::kInt64,
                                   data::DataType::kBool,
                                   data::DataType::kDouble};
  size_t compared = 0;
  size_t reports = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    for (data::DataType type : kTypes) {
      const Table table = RandomFoldTable(seed, type, 40 + seed * 7);
      SCOPED_TRACE("seed=" + std::to_string(seed) + " type=" +
                   std::string(data::DataTypeToString(type)));
      // The keys are the old per-row renderings: a row's group is its
      // ValueToString, a stratum the '|'-join of its columns' renderings.
      const metrics::MetricInput input =
          audit::MetricInputFromTable(table, "g", "p", "").ValueOrDie();
      const std::vector<std::string> strata =
          audit::StrataFromTable(table, {"s1", "s2"}).ValueOrDie();
      const Column& g = *table.GetColumn("g").ValueOrDie();
      const Column& s1 = *table.GetColumn("s1").ValueOrDie();
      const Column& s2 = *table.GetColumn("s2").ValueOrDie();
      for (size_t row = 0; row < table.num_rows(); ++row) {
        ASSERT_EQ(input.groups[row], g.ValueToString(row)) << "row " << row;
        ASSERT_EQ(strata[row],
                  s1.ValueToString(row) + "|" + s2.ValueToString(row))
            << "row " << row;
      }
      for (int variant = 0; variant < 3; ++variant) {
        AuditConfig config;
        config.protected_column = "g";
        config.prediction_column = "p";
        if (variant >= 1) config.label_column = "y";
        if (variant == 2) config.score_column = "s";
        const size_t num_strata = (seed + static_cast<uint64_t>(variant)) % 3;
        for (size_t c = 0; c < num_strata; ++c) {
          config.strata_columns.push_back(c == 0 ? "s1" : "s2");
        }
        config.min_stratum_size = 3;
        config.tolerance = 0.1;
        if (ExpectFoldMatchesRowwise(table, config)) ++reports;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 24u * 4u * 3u);
  // Most configurations must yield a full report, not a shared error.
  EXPECT_GT(reports, compared * 3 / 4) << reports << " of " << compared;
}

TEST(ChunkedAuditTest, TuplesThatRenderAlikeShareOneStratum) {
  // ("a|b","c") and ("a","b|c") both join to "a|b|c": one stratum.
  data::Schema schema = data::Schema::Make({{"g", data::DataType::kString},
                                            {"s1", data::DataType::kString},
                                            {"s2", data::DataType::kString},
                                            {"p", data::DataType::kInt64}})
                            .ValueOrDie();
  const Table table =
      Table::Make(schema,
                  {Column::FromStrings({"m", "f", "m", "f"}),
                   Column::FromStrings({"a|b", "a", "a", "a|b"}),
                   Column::FromStrings({"c", "b|c", "b|c", "c"}),
                   Column::FromInt64s({1, 0, 1, 1})})
          .ValueOrDie();
  EXPECT_EQ(audit::StrataFromTable(table, {"s1", "s2"}).ValueOrDie(),
            std::vector<std::string>(4, "a|b|c"));
  AuditConfig config;
  config.protected_column = "g";
  config.prediction_column = "p";
  config.strata_columns = {"s1", "s2"};
  config.min_stratum_size = 1;
  EXPECT_TRUE(ExpectFoldMatchesRowwise(table, config));
  const AuditResult result = audit::RunAudit(table, config).ValueOrDie();
  ASSERT_FALSE(result.conditional_reports.empty());
  ASSERT_EQ(result.conditional_reports[0].strata.size(), 1u);
  EXPECT_EQ(result.conditional_reports[0].strata[0].stratum, "a|b|c");
}

TEST(ChunkedAuditTest, NullAndNonBinaryCellsKeepTheirMessagesAtEveryChunkSize) {
  // Each case breaks one cell of a clean 30-row table; every message
  // names the column it rejects.
  struct Case {
    const char* what;
    size_t bad_row;
    const char* message;
  };
  const Case kCases[] = {
      {"null group", 29,
       "column 'g' has nulls; audits require explicit missing-value "
       "handling upstream"},
      {"null prediction", 12,
       "column 'p' has nulls; audits require explicit missing-value "
       "handling upstream"},
      {"non-binary prediction", 0, "column 'p' must be binary 0/1"},
      {"string prediction", 5,
       "column 'p' is a string column; 0/1 columns must be numeric or bool"},
      {"non-binary label", 20, "column 'y' must be binary 0/1"},
      {"null stratum", 7,
       "column 's2' has nulls; audits require explicit missing-value "
       "handling upstream"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.what);
    const std::string what = c.what;
    Column g(data::DataType::kString);
    Column s1(data::DataType::kString);
    Column s2(data::DataType::kString);
    Column p(what == "string prediction" ? data::DataType::kString
                                         : data::DataType::kInt64);
    Column y(data::DataType::kDouble);
    for (size_t row = 0; row < 30; ++row) {
      const bool bad = row == c.bad_row;
      if (bad && what == "null group") {
        g.AppendNull();
      } else {
        g.AppendString(row % 3 == 0 ? "m" : "f");
      }
      s1.AppendString(row % 2 == 0 ? "x" : "y");
      if (bad && what == "null stratum") {
        s2.AppendNull();
      } else {
        s2.AppendString("z");
      }
      if (p.type() == data::DataType::kString) {
        p.AppendString("1");
      } else if (bad && what == "null prediction") {
        p.AppendNull();
      } else {
        p.AppendInt64(bad && what == "non-binary prediction" ? 2 : row % 2);
      }
      y.AppendDouble(bad && what == "non-binary label" ? 0.5 : 1.0);
    }
    data::Schema schema = data::Schema::Make({{"g", g.type()},
                                              {"s1", s1.type()},
                                              {"s2", s2.type()},
                                              {"p", p.type()},
                                              {"y", y.type()}})
                              .ValueOrDie();
    const Table table =
        Table::Make(schema, {std::move(g), std::move(s1), std::move(s2),
                             std::move(p), std::move(y)})
            .ValueOrDie();
    AuditConfig config;
    config.protected_column = "g";
    config.prediction_column = "p";
    config.label_column = "y";
    config.strata_columns = {"s1", "s2"};
    for (size_t chunk_rows : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
      config.chunk_rows = chunk_rows;
      EXPECT_EQ(audit::RunAudit(table, config).status().message(), c.message)
          << "chunk_rows=" << chunk_rows;
    }
    EXPECT_EQ(RowwiseAudit(table, config).status().message(), c.message);
  }
}

// ---------------------------------------------------------------------------
// Chunked subgroup audit.

std::string MakeSubgroupCsv(size_t rows, uint64_t seed) {
  const char* values[] = {"x", "y", "z"};
  Rng rng(seed);
  std::string text = "a1,a2,a3,pred\n";
  for (size_t i = 0; i < rows; ++i) {
    for (size_t a = 0; a < 3; ++a) {
      text += values[rng.UniformInt(3)];
      text += ',';
    }
    text += rng.Bernoulli(0.4) ? '1' : '0';
    text += '\n';
  }
  return text;
}

void ExpectSameFindings(const SubgroupAuditResult& got,
                        const SubgroupAuditResult& want) {
  EXPECT_EQ(got.subgroups_examined, want.subgroups_examined);
  EXPECT_EQ(got.subgroups_skipped_small, want.subgroups_skipped_small);
  EXPECT_EQ(got.any_violation, want.any_violation);
  ASSERT_EQ(got.findings.size(), want.findings.size());
  for (size_t i = 0; i < got.findings.size(); ++i) {
    EXPECT_EQ(got.findings[i].subgroup.conditions,
              want.findings[i].subgroup.conditions) << "finding " << i;
    EXPECT_EQ(got.findings[i].count, want.findings[i].count);
    EXPECT_EQ(got.findings[i].selection_rate,
              want.findings[i].selection_rate);
    EXPECT_EQ(got.findings[i].gap, want.findings[i].gap);
    EXPECT_EQ(got.findings[i].weighted_gap, want.findings[i].weighted_gap);
  }
}

TEST(ChunkedSubgroupTest, MatchesRowwiseOracleForEveryChunkLayout) {
  Table table = data::ReadCsvString(MakeSubgroupCsv(400, 41)).ValueOrDie();
  const std::vector<std::string> attrs = {"a1", "a2", "a3"};
  SubgroupAuditOptions options;
  options.max_depth = 3;
  options.min_support = 5;
  const SubgroupAuditResult oracle =
      audit::AuditSubgroupsRowwise(table, attrs, "pred", options)
          .ValueOrDie();
  for (size_t chunk_rows :
       {size_t{0}, size_t{7}, size_t{13}, size_t{64}, size_t{1000}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SubgroupAuditOptions chunked = options;
      chunked.chunk_rows = chunk_rows;
      chunked.num_threads = threads;
      SubgroupAuditResult result =
          audit::AuditSubgroups(table, attrs, "pred", chunked).ValueOrDie();
      ExpectSameFindings(result, oracle);
      // Every chunk layout reports the contiguous error strings too.
      EXPECT_EQ(audit::AuditSubgroups(table, {}, "pred", chunked)
                    .status()
                    .message(),
                "AuditSubgroups: no attribute columns");
    }
  }
}

// ---------------------------------------------------------------------------
// Radix sort tier and the unsorted distance paths.

TEST(RadixSortTest, MatchesStdSortIncludingEdgeValues) {
  Rng rng(57);
  std::vector<double> values;
  // Above kRadixSortMinSize so SortDoubles takes the radix tier.
  for (size_t i = 0; i < 3000; ++i) {
    values.push_back(rng.Normal() * 1e6);
  }
  const double kEdges[] = {0.0, -0.0, 1e-310, -1e-310,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(), 42.0,
                           42.0, 42.0};
  values.insert(values.end(), std::begin(kEdges), std::end(kEdges));
  std::vector<double> expected = values;
  std::sort(expected.begin(), expected.end());
  std::vector<double> radix = values;
  stats::RadixSortDoubles(radix);
  std::vector<double> tiered = values;
  stats::SortDoubles(tiered);
  ASSERT_EQ(radix.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // Bitwise-compatible comparison: -0.0 and 0.0 are interchangeable for
    // std::sort, so compare by value not by bits.
    EXPECT_EQ(radix[i], expected[i]) << "index " << i;
    EXPECT_EQ(tiered[i], expected[i]) << "index " << i;
  }
}

TEST(RadixSortTest, NansLandDeterministicallyAtTheEnds) {
  std::vector<double> values = {3.0,
                                std::copysign(
                                    std::numeric_limits<double>::quiet_NaN(),
                                    -1.0),
                                -1.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                2.0};
  stats::RadixSortDoubles(values);
  EXPECT_TRUE(std::isnan(values.front()));
  EXPECT_TRUE(std::signbit(values.front()));
  EXPECT_TRUE(std::isnan(values.back()));
  EXPECT_FALSE(std::signbit(values.back()));
  EXPECT_EQ(values[1], -1.0);
  EXPECT_EQ(values[2], 2.0);
  EXPECT_EQ(values[3], 3.0);
}

TEST(DistanceTierTest, UnsortedW1AndKsEqualPresortedOracle) {
  Rng rng(61);
  // n above the radix threshold so the unsorted path exercises the new
  // tier; the presorted calls are the equality oracle.
  std::vector<double> x;
  std::vector<double> y;
  for (size_t i = 0; i < 3000; ++i) x.push_back(rng.Normal());
  for (size_t i = 0; i < 2500; ++i) y.push_back(rng.Normal(0.3, 1.2));
  std::vector<double> xs = x;
  std::vector<double> ys = y;
  std::sort(xs.begin(), xs.end());
  std::sort(ys.begin(), ys.end());
  EXPECT_EQ(stats::Wasserstein1Samples(x, y).ValueOrDie(),
            stats::Wasserstein1Presorted(xs, ys).ValueOrDie());
  EXPECT_EQ(stats::KolmogorovSmirnov(x, y).ValueOrDie(),
            stats::KolmogorovSmirnovPresorted(xs, ys).ValueOrDie());
}

}  // namespace
}  // namespace fairlaw
