#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "tests/read_csv_chunked.h"

namespace fairlaw::data {
namespace {

TEST(CsvTest, ParsesTypesFromHeaderedText) {
  std::string text =
      "name,age,score,active\n"
      "ann,30,1.5,true\n"
      "bob,40,2.5,false\n";
  Table table = ReadCsvString(text).ValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.schema().field(0).type, DataType::kString);
  EXPECT_EQ(table.schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(table.schema().field(2).type, DataType::kDouble);
  EXPECT_EQ(table.schema().field(3).type, DataType::kBool);
  EXPECT_EQ(table.GetColumn("name").ValueOrDie()->GetString(1).ValueOrDie(),
            "bob");
  EXPECT_EQ(table.GetColumn("age").ValueOrDie()->GetInt64(0).ValueOrDie(),
            30);
}

TEST(CsvTest, HeaderlessGetsGeneratedNames) {
  Table table = ReadCsvString("1,2\n3,4\n", {.has_header = false})
                    .ValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_TRUE(table.schema().HasField("c0"));
  EXPECT_TRUE(table.schema().HasField("c1"));
}

TEST(CsvTest, NullTokensBecomeNulls) {
  std::string text = "x,y\n1.5,a\n,b\nNA,c\n";
  Table table = ReadCsvString(text).ValueOrDie();
  const Column* x = table.GetColumn("x").ValueOrDie();
  EXPECT_EQ(x->type(), DataType::kDouble);
  EXPECT_EQ(x->null_count(), 2u);
  EXPECT_DOUBLE_EQ(x->GetDouble(0).ValueOrDie(), 1.5);
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndEscapes) {
  std::string text =
      "a,b\n"
      "\"x,y\",\"he said \"\"hi\"\"\"\n";
  Table table = ReadCsvString(text).ValueOrDie();
  EXPECT_EQ(table.GetColumn("a").ValueOrDie()->GetString(0).ValueOrDie(),
            "x,y");
  EXPECT_EQ(table.GetColumn("b").ValueOrDie()->GetString(0).ValueOrDie(),
            "he said \"hi\"");
}

TEST(CsvTest, CrLfLineEndings) {
  Table table = ReadCsvString("a\r\n1\r\n2\r\n").ValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(CsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());          // ragged row
  EXPECT_FALSE(ReadCsvString("a\n\"unterminated\n").ok());  // open quote
}

TEST(CsvTest, MixedIntAndDoubleColumnBecomesDouble) {
  Table table = ReadCsvString("x\n1\n2.5\n").ValueOrDie();
  EXPECT_EQ(table.schema().field(0).type, DataType::kDouble);
}

TEST(CsvTest, CustomDelimiter) {
  Table table =
      ReadCsvString("a;b\n1;2\n", {.delimiter = ';'}).ValueOrDie();
  EXPECT_EQ(table.num_columns(), 2u);
  EXPECT_EQ(table.GetColumn("b").ValueOrDie()->GetInt64(0).ValueOrDie(), 2);
}

TEST(CsvTest, RoundTripPreservesData) {
  std::string text =
      "name,score,ok\n"
      "ann,1.500000,true\n"
      "\"b,ob\",2.250000,false\n";
  Table table = ReadCsvString(text).ValueOrDie();
  std::string written = WriteCsvString(table).ValueOrDie();
  Table reparsed = ReadCsvString(written).ValueOrDie();
  EXPECT_EQ(reparsed.num_rows(), table.num_rows());
  EXPECT_EQ(
      reparsed.GetColumn("name").ValueOrDie()->GetString(1).ValueOrDie(),
      "b,ob");
  EXPECT_DOUBLE_EQ(
      reparsed.GetColumn("score").ValueOrDie()->GetDouble(1).ValueOrDie(),
      2.25);
}

TEST(CsvTest, RoundTripPreservesNulls) {
  Table table = ReadCsvString("x,y\n1,a\n,b\n").ValueOrDie();
  std::string written = WriteCsvString(table).ValueOrDie();
  Table reparsed = ReadCsvString(written).ValueOrDie();
  EXPECT_EQ(reparsed.GetColumn("x").ValueOrDie()->null_count(), 1u);
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/fairlaw_csv_test.csv";
  Table table = ReadCsvString("a,b\n1,x\n2,y\n").ValueOrDie();
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  Table read = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(read.num_rows(), 2u);
  std::remove(path.c_str());
  EXPECT_TRUE(ReadCsvFile("/nonexistent/nope.csv").status().IsIOError());
}

TEST(CsvTest, DirectoryIsAReadErrorOnEveryPath) {
  const std::string dir = ::testing::TempDir() + "/fairlaw_csv_dir";
  std::filesystem::create_directories(dir);
  const std::string expected = "error reading '" + dir + "'";

  const Result<Table> whole = ReadCsvFile(dir);
  ASSERT_TRUE(whole.status().IsIOError()) << whole.status().ToString();
  EXPECT_EQ(whole.status().message(), expected);

  const Result<CsvChunkReader> reader = CsvChunkReader::Make(dir);
  ASSERT_TRUE(reader.status().IsIOError()) << reader.status().ToString();
  EXPECT_EQ(reader.status().message(), expected);

  const Result<ChunkedTable> chunked = ReadCsvFileChunked(dir);
  ASSERT_TRUE(chunked.status().IsIOError()) << chunked.status().ToString();
  EXPECT_EQ(chunked.status().message(), expected);
  std::filesystem::remove(dir);
}

TEST(CsvTest, OpenQuoteAnywhereWinsOverRaggedRowInWholeText) {
  // The ragged row comes first, but the whole-text reader reports the
  // quote left open at the end, as the byte-at-a-time reader did.
  const Result<Table> table = ReadCsvString("a,b\n1\n2,\"open\n");
  EXPECT_EQ(table.status().message(), "CSV: unterminated quoted field");
  EXPECT_EQ(ReadCsvString("a,b\n1\n2,3\n").status().message(),
            "CSV: row 1 has 1 fields, expected 2");
}

TEST(CsvTest, QuotedFieldsAndTypesSurviveTheArena) {
  // Quotes opened mid-field, "" escapes, and a quoted number that still
  // types its column as int64.
  const Table table =
      ReadCsvString("s,n\nab\"c,d\"e,\"7\"\n\"x\"\"y\",-0\n").ValueOrDie();
  EXPECT_EQ(table.schema().field(1).type, DataType::kInt64);
  const Column* s = table.GetColumn("s").ValueOrDie();
  EXPECT_EQ(s->GetString(0).ValueOrDie(), "abc,de");
  EXPECT_EQ(s->GetString(1).ValueOrDie(), "x\"y");
  EXPECT_EQ(table.GetColumn("n").ValueOrDie()->GetInt64(0).ValueOrDie(), 7);
}

TEST(CsvTest, NegativeZeroKeepsItsSignInDoubleColumns) {
  const Table table = ReadCsvString("x\n-0\n0.5\n").ValueOrDie();
  ASSERT_EQ(table.schema().field(0).type, DataType::kDouble);
  const double zero = table.column(0).GetDouble(0).ValueOrDie();
  EXPECT_EQ(zero, 0.0);
  EXPECT_TRUE(std::signbit(zero));
}

TEST(CsvProjectionTest, KeepsRequestedColumnsInFileOrder) {
  const std::string text = "a,b,c,d\nx,1,2.5,true\ny,,3.5,false\n";
  CsvOptions options;
  options.include_columns = {"d", "absent", "b", "d"};
  const Table table = ReadCsvString(text, options).ValueOrDie();
  ASSERT_EQ(table.num_columns(), 2u);
  EXPECT_EQ(table.schema().field(0).name, "b");
  EXPECT_EQ(table.schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(table.schema().field(1).name, "d");
  EXPECT_EQ(table.schema().field(1).type, DataType::kBool);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_FALSE(table.column(0).IsValid(1));
  EXPECT_EQ(table.GetColumn("absent").status().ToString(),
            ReadCsvString(text).ValueOrDie().GetColumn("absent")
                .status().ToString());

  // Without a header the names are c0, c1, ...
  options.has_header = false;
  options.include_columns = {"c2", "c0"};
  const Table unnamed = ReadCsvString(text, options).ValueOrDie();
  ASSERT_EQ(unnamed.num_columns(), 2u);
  EXPECT_EQ(unnamed.schema().field(0).name, "c0");
  EXPECT_EQ(unnamed.schema().field(1).name, "c2");
  EXPECT_EQ(unnamed.num_rows(), 3u);
  EXPECT_EQ(unnamed.column(1).GetString(0).ValueOrDie(), "c");
}

/// The status of reading `text` whole and of streaming it from `path`
/// to the end, as "<whole> | <stream>".
std::string ReadStatuses(const std::string& text, const std::string& path,
                         const CsvOptions& options) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  CsvChunkReader::Options stream_options;
  stream_options.csv = options;
  stream_options.chunk_rows = 1;
  return ReadCsvString(text, options).status().ToString() + " | " +
         ReadCsvFileChunked(path, stream_options).status().ToString();
}

TEST(CsvProjectionTest, ErrorsMatchTheFullRead) {
  const std::string path = ::testing::TempDir() + "/fairlaw_csv_project.csv";
  const struct {
    const char* text;
    const char* error;
  } kCases[] = {
      {"a,b,c\n1,2,3\n4,5\n", "CSV: row 2 has 2 fields, expected 3"},
      {"a,b,c\n1,2,3\n4,5,6,7\n", "CSV: row 2 has 4 fields, expected 3"},
      // The quote left open sits in a column no projection keeps.
      {"a,b,c\n1,\"open,3\n", "CSV: unterminated quoted field"},
      {"a,b,b\n1,2,3\n", "Schema: duplicate field name 'b'"},
      {"a, ,c\n1,2,3\n", "Schema: field name must be non-empty"},
      {"\n\r\n", "CSV: input has no rows"},
  };
  for (const auto& c : kCases) {
    const std::string want = "invalid argument: " + std::string(c.error);
    EXPECT_EQ(ReadStatuses(c.text, path, CsvOptions{}), want + " | " + want)
        << c.text;
    for (const std::vector<std::string>& include :
         {std::vector<std::string>{"a"}, std::vector<std::string>{"c", "a"},
          std::vector<std::string>{"absent"}}) {
      CsvOptions options;
      options.include_columns = include;
      EXPECT_EQ(ReadStatuses(c.text, path, options), want + " | " + want)
          << c.text << " keeping " << include.size() << " names";
    }
  }
  std::remove(path.c_str());

  const std::string dir = ::testing::TempDir() + "/fairlaw_csv_project_dir";
  std::filesystem::create_directories(dir);
  CsvOptions options;
  options.include_columns = {"a"};
  EXPECT_EQ(ReadCsvFile(dir, options).status().ToString(),
            ReadCsvFile(dir).status().ToString());
  CsvChunkReader::Options stream_options;
  stream_options.csv = options;
  EXPECT_EQ(CsvChunkReader::Make(dir, stream_options).status().ToString(),
            "io error: error reading '" + dir + "'");
  std::filesystem::remove(dir);
}

}  // namespace
}  // namespace fairlaw::data
