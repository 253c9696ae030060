// Seeded differential fuzzing of the CSV readers. The oracle is the
// byte-at-a-time reader the library used before its structural-scan
// tokenizer (RowScanner, ColumnTypeFlags, ParseCell and the old
// ReadCsvString body, copied unchanged apart from the obs probes). Every
// generated text must read the same through ReadCsvString as through
// the oracle: schema, every value, the null mask, the sign bit of -0.0,
// and on failure the same status code and message. The streaming reader
// (ReadCsvFileChunked at chunk sizes 1, 7 and 65536) must then equal
// ReadCsvString, and a read of both readers projected onto random
// include_columns must equal the full read's selected columns or fail
// with its error. Texts mix quotes opened mid-field, "" escapes,
// delimiters and newlines inside quotes, CR/LF/CRLF, blank lines,
// trailing delimiters, missing final newlines, ragged rows, unterminated
// quotes, padded null tokens, -0, integers beyond int64 and every bool
// spelling; some run past the streaming read block with a quoted field,
// a CRLF and a "" split by the block edge. Each case draws from its own
// stats::Rng seed, which every failure prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/string_util.h"
#include "data/chunked.h"
#include "data/csv.h"
#include "stats/rng.h"
#include "tests/read_csv_chunked.h"

namespace fairlaw::data {
namespace {

using stats::Rng;

// ---------------------------------------------------------------------------
// Oracle: the previous reader.

class RowScanner {
 public:
  RowScanner(std::istream* input, char delimiter)
      : input_(input), delimiter_(delimiter) {}

  /// Scans the next row into *row (cleared first). Returns true when a
  /// row was produced, false at clean end of input; Invalid on an
  /// unterminated quote, IOError on a read failure.
  FAIRLAW_NODISCARD Result<bool> NextRow(std::vector<std::string>* row) {
    row->clear();
    std::string field;
    bool in_quotes = false;
    bool row_has_content = false;
    for (;;) {
      const int ci = TakeByte();
      if (ci < 0) {
        if (input_->bad()) return Status::IOError("error reading CSV stream");
        if (in_quotes) return Status::Invalid("CSV: unterminated quoted field");
        if (row_has_content || !field.empty()) {
          row->push_back(std::move(field));
          return true;
        }
        return false;
      }
      const char c = static_cast<char>(ci);
      if (in_quotes) {
        if (c == '"') {
          if (PeekByte() == '"') {
            field += '"';
            (void)TakeByte();
            continue;
          }
          in_quotes = false;
          continue;
        }
        field += c;
        continue;
      }
      if (c == '"') {
        in_quotes = true;
        row_has_content = true;
        continue;
      }
      if (c == delimiter_) {
        row->push_back(std::move(field));
        field.clear();
        row_has_content = true;
        continue;
      }
      if (c == '\n' || c == '\r') {
        if (c == '\r' && PeekByte() == '\n') (void)TakeByte();
        if (row_has_content || !field.empty()) {
          row->push_back(std::move(field));
          return true;
        }
        continue;  // blank line: keep scanning
      }
      field += c;
      row_has_content = true;
    }
  }

  /// Bytes consumed from the stream so far.
  size_t bytes_consumed() const { return bytes_consumed_; }

 private:
  static constexpr size_t kBufferSize = size_t{1} << 16;

  int TakeByte() {
    if (pos_ >= len_ && !Fill()) return -1;
    ++bytes_consumed_;
    return static_cast<unsigned char>(buffer_[pos_++]);
  }

  int PeekByte() {
    if (pos_ >= len_ && !Fill()) return -1;
    return static_cast<unsigned char>(buffer_[pos_]);
  }

  bool Fill() {
    if (at_end_) return false;
    input_->read(buffer_.data(), static_cast<std::streamsize>(kBufferSize));
    len_ = static_cast<size_t>(input_->gcount());
    pos_ = 0;
    if (len_ == 0) {
      at_end_ = true;
      return false;
    }
    return true;
  }

  std::istream* input_;
  char delimiter_;
  std::vector<char> buffer_ = std::vector<char>(kBufferSize);
  size_t pos_ = 0;
  size_t len_ = 0;
  size_t bytes_consumed_ = 0;
  bool at_end_ = false;
};

/// Scans every row of `input` (used by the whole-table readers; the
/// streaming reader drives RowScanner chunk by chunk instead).
Result<std::vector<std::vector<std::string>>> ScanAllRows(std::istream* input,
                                                          char delimiter) {
  RowScanner scanner(input, delimiter);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  for (;;) {
    FAIRLAW_ASSIGN_OR_RETURN(bool has_row, scanner.NextRow(&row));
    if (!has_row) break;
    rows.push_back(std::move(row));
  }
  return rows;
}

bool IsNullToken(const std::string& raw, const CsvOptions& options) {
  std::string stripped(StripWhitespace(raw));
  for (const std::string& token : options.null_tokens) {
    if (stripped == token) return true;
  }
  return false;
}

/// O(1)-memory column type tracker: the streaming inference pass keeps one
/// of these per column instead of the token matrix, and the whole-table
/// reader folds its rows through the same flags, so both ingestion paths
/// infer identical schemas by construction. Priority: int64 > double >
/// bool > string; a column with no non-null values is string.
struct ColumnTypeFlags {
  bool all_int = true;
  bool all_double = true;
  bool all_bool = true;
  bool any_value = false;

  void Observe(const std::string& raw) {
    any_value = true;
    if (all_int && !ParseInt64(raw).ok()) all_int = false;
    if (all_double && !ParseDouble(raw).ok()) all_double = false;
    if (all_bool && !ParseBool(raw).ok()) all_bool = false;
  }

  DataType Resolve() const {
    if (!any_value) return DataType::kString;
    if (all_int) return DataType::kInt64;
    if (all_double) return DataType::kDouble;
    if (all_bool) return DataType::kBool;
    return DataType::kString;
  }
};

DataType InferColumnType(const std::vector<std::vector<std::string>>& rows,
                         size_t column, size_t first_data_row,
                         const CsvOptions& options) {
  ColumnTypeFlags flags;
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    if (column >= rows[r].size()) continue;
    const std::string& raw = rows[r][column];
    if (IsNullToken(raw, options)) continue;
    flags.Observe(raw);
    if (!flags.all_int && !flags.all_double && !flags.all_bool) break;
  }
  return flags.Resolve();
}

Result<std::optional<Cell>> ParseCell(const std::string& raw, DataType type,
                                      const CsvOptions& options) {
  if (IsNullToken(raw, options)) return std::optional<Cell>();
  switch (type) {
    case DataType::kDouble: {
      FAIRLAW_ASSIGN_OR_RETURN(double v, ParseDouble(raw));
      return std::optional<Cell>(Cell(v));
    }
    case DataType::kInt64: {
      FAIRLAW_ASSIGN_OR_RETURN(int64_t v, ParseInt64(raw));
      return std::optional<Cell>(Cell(v));
    }
    case DataType::kBool: {
      FAIRLAW_ASSIGN_OR_RETURN(bool v, ParseBool(raw));
      return std::optional<Cell>(Cell(v));
    }
    case DataType::kString:
      return std::optional<Cell>(Cell(raw));
  }
  return Status::Internal("ParseCell: unknown type");
}

Result<Table> OracleReadCsvString(const std::string& text,
                                  const CsvOptions& options) {
  std::istringstream input(text);
  FAIRLAW_ASSIGN_OR_RETURN(auto rows,
                           ScanAllRows(&input, options.delimiter));
  if (rows.empty()) return Status::Invalid("CSV: input has no rows");

  const size_t num_columns = rows[0].size();
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != num_columns) {
      return Status::Invalid("CSV: row " + std::to_string(r) + " has " +
                             std::to_string(rows[r].size()) +
                             " fields, expected " +
                             std::to_string(num_columns));
    }
  }

  std::vector<std::string> names(num_columns);
  size_t first_data_row = 0;
  if (options.has_header) {
    for (size_t c = 0; c < num_columns; ++c) {
      names[c] = std::string(StripWhitespace(rows[0][c]));
    }
    first_data_row = 1;
  } else {
    for (size_t c = 0; c < num_columns; ++c) {
      names[c] = std::string("c").append(std::to_string(c));
    }
  }

  std::vector<Field> fields(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    fields[c] = Field{names[c],
                      InferColumnType(rows, c, first_data_row, options)};
  }
  FAIRLAW_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));

  TableBuilder builder(schema);
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    std::vector<std::optional<Cell>> cells(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      FAIRLAW_ASSIGN_OR_RETURN(
          cells[c], ParseCell(rows[r][c], schema.field(c).type, options));
    }
    FAIRLAW_RETURN_NOT_OK(builder.AppendRowWithNulls(cells));
  }
  return builder.Finish();
}

// ---------------------------------------------------------------------------
// Generator.

constexpr uint64_t kBaseSeed = 0xc5f0a11;
constexpr int kCases = 2000;
// The streaming reader's first read ends here.
constexpr size_t kBlockEdge = size_t{1} << 16;

template <size_t N>
std::string Pick(Rng* rng, const char* const (&options)[N]) {
  return options[rng->UniformInt(N)];
}

enum Kind { kIntKind, kDoubleKind, kBoolKind, kStringKind, kAnyKind };

std::string Value(Rng* rng, Kind kind) {
  static const char* const kNulls[] = {"", "NA", "null", "NULL", " NA",
                                       "\tnull ", " ", "-", "n/a"};
  static const char* const kInts[] = {
      "0", "1", "-0", "42", " 42 ", "-7", "+5", "007",
      "9223372036854775807", "-9223372036854775808",
      "9223372036854775808", "-9223372036854775809", "1_0"};
  static const char* const kDoubles[] = {
      "1.5", "-0.0", "-0", "0.000001", "1e300", "1e400", "inf", "-inf",
      "nan", ".5", "5.", "1e5", " 2.25\t", "1.5.2", "0x10", "-1e-320"};
  static const char* const kBools[] = {"true", "false", "TRUE", "False",
                                       "tRuE", "1", "0", " true ", "yes"};
  static const char* const kStrings[] = {
      "ann", "b c", "x,y", "he said \"hi\"", "x\ny", "x\r\ny", "a;b",
      "tab\there", "\"", "caf\xc3\xa9", "  pad  ", "a|b"};
  if (rng->Bernoulli(0.15)) return Pick(rng, kNulls);
  if (kind == kAnyKind) kind = static_cast<Kind>(rng->UniformInt(4));
  switch (kind) {
    case kIntKind:
      return rng->Bernoulli(0.5) ? std::to_string(
                                       static_cast<int64_t>(rng->UniformInt(
                                           2001)) - 1000)
                                 : Pick(rng, kInts);
    case kDoubleKind:
      return rng->Bernoulli(0.5) ? FormatDouble(rng->Uniform(-5, 5), 4)
                                 : Pick(rng, kDoubles);
    case kBoolKind:
      return Pick(rng, kBools);
    default:
      return Pick(rng, kStrings);
  }
}

std::string Quote(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

/// The raw bytes of one field holding `value`, quoted in one of the ways
/// the grammar allows, or now and then plain garbage.
std::string RawField(Rng* rng, const std::string& value, char delimiter) {
  const bool needs_quotes =
      value.find_first_of(std::string("\"\r\n") + delimiter) !=
      std::string::npos;
  if (value.empty() && rng->Bernoulli(0.3)) return "\"\"";
  const uint64_t mode = rng->UniformInt(20);
  if (mode < 11) return needs_quotes ? Quote(value) : value;
  if (mode < 15) return Quote(value);
  if (mode < 17) {  // quote opened mid-field
    const size_t split = rng->UniformInt(value.size() + 1);
    return value.substr(0, split).find_first_of(std::string("\"\r\n") +
                                                delimiter) ==
                   std::string::npos
               ? value.substr(0, split) + Quote(value.substr(split))
               : Quote(value);
  }
  if (mode < 18) return Quote(value) + "x";  // bytes after the close
  std::string garbage;
  const char alphabet[] = {'a', '"', delimiter, '\n', '\r', ' ', '1', '"'};
  for (uint64_t i = rng->UniformInt(6); i > 0; --i) {
    garbage += alphabet[rng->UniformInt(sizeof(alphabet))];
  }
  return garbage;
}

std::string Terminator(Rng* rng) {
  static const char* const kTerminators[] = {"\n", "\r\n", "\r"};
  std::string out = Pick(rng, kTerminators);
  if (rng->Bernoulli(0.1)) out += Pick(rng, kTerminators);  // blank line
  return out;
}

struct Case {
  std::string text;
  CsvOptions options;
};

Case Generate(Rng* rng, size_t rows) {
  Case c;
  static const char kDelimiters[] = {',', ',', ',', ',', ',', ',', ';',
                                     '\t', '|', '"', '\n', ' '};
  c.options.delimiter = rng->Bernoulli(0.9)
                            ? kDelimiters[rng->UniformInt(6)]
                            : kDelimiters[rng->UniformInt(12)];
  c.options.has_header = rng->Bernoulli(0.85);
  if (rng->Bernoulli(0.1)) c.options.null_tokens = {"-", "n/a", ""};
  if (rng->Bernoulli(0.03)) c.options.null_tokens.clear();
  const char delimiter = c.options.delimiter;

  const size_t columns = rng->Bernoulli(0.3) ? 1 : 1 + rng->UniformInt(4);
  std::vector<Kind> kinds(columns);
  for (Kind& kind : kinds) kind = static_cast<Kind>(rng->UniformInt(5));
  if (rng->Bernoulli(0.2)) c.text += Terminator(rng);  // leading blank line
  std::vector<std::string> lines;
  if (c.options.has_header) {
    std::vector<std::string> names;
    for (size_t i = 0; i < columns; ++i) {
      std::string name = "c" + std::to_string(i);
      if (rng->Bernoulli(0.05)) name = " " + name + " ";
      if (rng->Bernoulli(0.03)) name = "dup";
      names.push_back(RawField(rng, name, delimiter));
    }
    lines.push_back(names.empty() ? "" : names[0]);
    for (size_t i = 1; i < names.size(); ++i) {
      lines.back() += delimiter + names[i];
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    size_t fields = columns;
    if (rng->Bernoulli(0.03)) {
      fields = rng->Bernoulli(0.5) ? columns + 1 : columns - 1;
    }
    std::string line;
    for (size_t i = 0; i < fields; ++i) {
      if (i > 0) line += delimiter;
      line += RawField(rng, Value(rng, kinds[std::min(i, columns - 1)]),
                       delimiter);
    }
    lines.push_back(line);
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    c.text += lines[i];
    if (i + 1 < lines.size() || rng->Bernoulli(0.7)) {
      c.text += Terminator(rng);
    }
  }
  if (rng->Bernoulli(0.04)) c.text += delimiter;  // trailing delimiter
  if (rng->Bernoulli(0.03)) {                     // unterminated quote
    const size_t at = rng->UniformInt(c.text.size() + 1);
    c.text.insert(at, "\"open");
  }
  return c;
}

/// A two-column text longer than the streaming read block in which the
/// row `special` starts `split` bytes before the block edge.
std::string StraddleText(const std::string& special, size_t split) {
  std::string text = "id,note\n";
  size_t row = 0;
  const size_t start = kBlockEdge - split;
  while (text.size() + 40 < start) {
    text += std::to_string(row++) + ",pad\n";
  }
  std::string pad = std::to_string(row++) + ",";
  pad += std::string(start - text.size() - pad.size() - 1, 'x') + "\n";
  text += pad + special;
  for (int i = 0; i < 50; ++i) text += std::to_string(row++) + ",tail\n";
  return text;
}

// ---------------------------------------------------------------------------
// Comparison.

std::string Escaped(const std::string& text) {
  std::string out;
  for (const char c : text.substr(0, 400)) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out += c;
    }
  }
  return text.size() > 400 ? out + "..." : out;
}

/// The first difference between two tables, or "" when they are equal.
std::string TableDiff(const Table& got, const Table& want) {
  if (!(got.schema() == want.schema())) return "schema differs";
  if (got.num_rows() != want.num_rows()) {
    return "rows " + std::to_string(got.num_rows()) + " vs " +
           std::to_string(want.num_rows());
  }
  for (size_t c = 0; c < got.num_columns(); ++c) {
    const Column& a = got.column(c);
    const Column& b = want.column(c);
    for (size_t r = 0; r < got.num_rows(); ++r) {
      const std::string where =
          " at column " + std::to_string(c) + " row " + std::to_string(r);
      if (a.IsValid(r) != b.IsValid(r)) return "null mask differs" + where;
      if (!a.IsValid(r)) continue;
      bool same = false;
      switch (a.type()) {
        case DataType::kInt64:
          same = a.GetInt64(r).ValueOrDie() == b.GetInt64(r).ValueOrDie();
          break;
        case DataType::kDouble: {
          // Bit patterns, so -0.0 and 0.0 (and NaN payloads) differ.
          const double x = a.GetDouble(r).ValueOrDie();
          const double y = b.GetDouble(r).ValueOrDie();
          same = std::memcmp(&x, &y, sizeof(double)) == 0;
          break;
        }
        case DataType::kBool:
          same = a.GetBool(r).ValueOrDie() == b.GetBool(r).ValueOrDie();
          break;
        case DataType::kString:
          same = a.GetString(r).ValueOrDie() == b.GetString(r).ValueOrDie();
          break;
      }
      if (!same) return "value differs" + where;
    }
  }
  return "";
}

std::string ResultDiff(const Result<Table>& got, const Result<Table>& want) {
  if (got.ok() && want.ok()) return TableDiff(*got, *want);
  const std::string a = got.ok() ? "a table" : got.status().ToString();
  const std::string b = want.ok() ? "a table" : want.status().ToString();
  return a == b ? "" : "got " + a + ", want " + b;
}

bool IsRaggedRowError(const Status& status) {
  return status.IsInvalid() &&
         status.message().find(" fields, expected ") != std::string::npos;
}

/// Checks the streaming reader against ReadCsvString's result.
std::string StreamingDiff(const std::string& path, const CsvOptions& options,
                          const Result<Table>& whole) {
  for (const size_t chunk_rows : {size_t{1}, size_t{7}, size_t{65536}}) {
    CsvChunkReader::Options stream_options;
    stream_options.csv = options;
    stream_options.chunk_rows = chunk_rows;
    const Result<ChunkedTable> chunked =
        ReadCsvFileChunked(path, stream_options);
    const std::string at = " (chunk_rows " + std::to_string(chunk_rows) + ")";
    if (!chunked.ok()) {
      // The one allowed difference: the streaming reader meets a ragged
      // row before the end of the file, where the whole-text reader first
      // reports the quote left open at the end.
      const bool ragged_first =
          !whole.ok() &&
          whole.status().message() == "CSV: unterminated quoted field" &&
          IsRaggedRowError(chunked.status());
      if (!ragged_first && (whole.ok() || chunked.status().ToString() !=
                                              whole.status().ToString())) {
        return "stream failed: " + chunked.status().ToString() + at;
      }
      continue;
    }
    if (!whole.ok()) {
      return "stream read what ReadCsvString rejected: " +
             whole.status().ToString() + at;
    }
    if (!(chunked->schema() == whole->schema())) {
      return "stream schema differs" + at;
    }
    if (chunked->num_rows() != whole->num_rows()) {
      return "stream rows " + std::to_string(chunked->num_rows()) + " vs " +
             std::to_string(whole->num_rows()) + at;
    }
    size_t offset = 0;
    for (size_t c = 0; c < chunked->num_chunks(); ++c) {
      const Table& chunk = chunked->chunk(c);
      const std::string diff = TableDiff(
          chunk, whole->Slice(offset, chunk.num_rows()).ValueOrDie());
      if (!diff.empty()) {
        return "stream chunk " + std::to_string(c) + " " + diff + at;
      }
      offset += chunk.num_rows();
    }
  }
  return "";
}

std::string CheckCase(const Case& c, const std::string& path) {
  const Result<Table> whole = ReadCsvString(c.text, c.options);
  std::string diff = ResultDiff(whole, OracleReadCsvString(c.text, c.options));
  if (!diff.empty()) return "vs oracle: " + diff;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << c.text;
  }
  return StreamingDiff(path, c.options, whole);
}

TEST(CsvFuzzTest, ReadersMatchTheOracleAndEachOther) {
  const std::string path = ::testing::TempDir() + "/fairlaw_csv_fuzz.csv";
  size_t tables = 0;
  for (int i = 0; i < kCases; ++i) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(i);
    Rng rng(seed);
    // Every 100th text runs past the streaming read block.
    const Case c = Generate(&rng, i % 100 == 99 ? 2500 : rng.UniformInt(12));
    const std::string diff = CheckCase(c, path);
    ASSERT_TRUE(diff.empty()) << "seed " << seed << ": " << diff
                              << "\ntext: " << Escaped(c.text);
    tables += ReadCsvString(c.text, c.options).ok() ? 1 : 0;
  }
  std::remove(path.c_str());
  // The generator must reach the success path often, not only errors.
  EXPECT_GT(tables, static_cast<size_t>(kCases) / 3);
}

// ---------------------------------------------------------------------------
// Projection: a read that keeps some columns must equal the full read's
// selected columns, and fail exactly as the full read fails.

/// A random include_columns list: empty (every column), every column by
/// name, or a few names that may repeat, miss the file, carry unstripped
/// spaces or name a duplicated header.
std::vector<std::string> DrawProjection(Rng* rng, size_t max_columns) {
  static const char* const kNames[] = {"c0",    "c1",     "c2", "c3", "c4",
                                       "dup",   " c0 ",   "",   "absent"};
  std::vector<std::string> include;
  const uint64_t mode = rng->UniformInt(6);
  if (mode == 0) return include;
  if (mode == 1) {
    for (size_t i = 0; i < max_columns; ++i) {
      include.push_back("c" + std::to_string(i));
    }
    return include;
  }
  for (uint64_t k = 1 + rng->UniformInt(4); k > 0; --k) {
    include.push_back(Pick(rng, kNames));
  }
  return include;
}

bool Keeps(const std::vector<std::string>& include, const std::string& name) {
  return include.empty() ||
         std::find(include.begin(), include.end(), name) != include.end();
}

/// The fields of `schema` that `include` keeps, in schema order.
Schema SelectSchema(const Schema& schema,
                    const std::vector<std::string>& include) {
  std::vector<Field> fields;
  for (const Field& field : schema.fields()) {
    if (Keeps(include, field.name)) fields.push_back(field);
  }
  return Schema::Make(std::move(fields)).ValueOrDie();
}

/// The columns of `table` that `include` keeps, in table order.
Table Select(const Table& table, const std::vector<std::string>& include) {
  std::vector<Column> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (Keeps(include, table.schema().field(c).name)) {
      columns.push_back(table.column(c));
    }
  }
  return Table::Make(SelectSchema(table.schema(), include),
                     std::move(columns))
      .ValueOrDie();
}

std::string StatusDiff(const Status& got, const Status& want) {
  return got.ToString() == want.ToString()
             ? ""
             : "got " + got.ToString() + ", want " + want.ToString();
}

/// Steps a full and a projected streaming reader in lockstep: every
/// status must match the full reader's, and each projected chunk must
/// equal the full chunk's selected columns.
std::string ProjectedStreamDiff(const std::string& path,
                                const CsvOptions& options,
                                const std::vector<std::string>& include,
                                size_t chunk_rows) {
  CsvChunkReader::Options full_options;
  full_options.csv = options;
  full_options.chunk_rows = chunk_rows;
  CsvChunkReader::Options projected_options = full_options;
  projected_options.csv.include_columns = include;
  Result<CsvChunkReader> full = CsvChunkReader::Make(path, full_options);
  Result<CsvChunkReader> projected =
      CsvChunkReader::Make(path, projected_options);
  std::string diff = StatusDiff(projected.status(), full.status());
  if (!diff.empty() || !full.ok()) return diff;
  if (projected->num_rows() != full->num_rows()) return "row counts differ";
  if (!(projected->schema() == SelectSchema(full->schema(), include))) {
    return "schema differs";
  }
  for (size_t c = 0;; ++c) {
    Result<std::optional<Table>> want = full->Next();
    Result<std::optional<Table>> got = projected->Next();
    diff = StatusDiff(got.status(), want.status());
    if (!diff.empty() || !want.ok()) return diff;
    if (got->has_value() != want->has_value()) return "chunk counts differ";
    if (!want->has_value()) return "";
    diff = TableDiff(**got, Select(**want, include));
    if (!diff.empty()) return "chunk " + std::to_string(c) + " " + diff;
  }
}

std::string CheckProjection(const Case& c, const std::string& path,
                            const std::vector<std::string>& include) {
  CsvOptions projected = c.options;
  projected.include_columns = include;
  const Result<Table> full = ReadCsvString(c.text, c.options);
  const Result<Table> got = ReadCsvString(c.text, projected);
  if (!full.ok() || !got.ok()) {
    const std::string diff = StatusDiff(got.status(), full.status());
    if (!diff.empty()) return "whole text: " + diff;
  } else {
    const std::string diff = TableDiff(*got, Select(*full, include));
    if (!diff.empty()) return "whole text: " + diff;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << c.text;
  }
  for (const size_t chunk_rows : {size_t{1}, size_t{7}, size_t{65536}}) {
    const std::string diff =
        ProjectedStreamDiff(path, c.options, include, chunk_rows);
    if (!diff.empty()) {
      return "stream (chunk_rows " + std::to_string(chunk_rows) + "): " + diff;
    }
  }
  return "";
}

std::string Joined(const std::vector<std::string>& names) {
  std::string out = "[";
  for (const std::string& name : names) out += "'" + name + "'";
  return out + "]";
}

TEST(CsvFuzzTest, ProjectedReadsMatchTheFullRead) {
  const std::string path = ::testing::TempDir() + "/fairlaw_csv_project.csv";
  size_t projected_tables = 0;
  for (int i = 0; i < kCases; ++i) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(i);
    Rng rng(seed);
    const Case c = Generate(&rng, i % 100 == 99 ? 2500 : rng.UniformInt(12));
    // Drawn after the text, so each seed reads the text of the test
    // above.
    const std::vector<std::string> include = DrawProjection(&rng, 5);
    const std::string diff = CheckProjection(c, path, include);
    ASSERT_TRUE(diff.empty()) << "seed " << seed << " include "
                              << Joined(include) << ": " << diff
                              << "\ntext: " << Escaped(c.text);
    CsvOptions projected = c.options;
    projected.include_columns = include;
    const Result<Table> table = ReadCsvString(c.text, projected);
    if (table.ok() && table->num_columns() > 0) ++projected_tables;
  }
  std::remove(path.c_str());
  // The draws must reach non-empty projected tables often.
  EXPECT_GT(projected_tables, static_cast<size_t>(kCases) / 5);
}

TEST(CsvFuzzTest, BlockEdgeSplitsQuotesCrLfAndEscapes) {
  const std::string path = ::testing::TempDir() + "/fairlaw_csv_edge.csv";
  const struct {
    const char* row;
    size_t split;  // bytes of the row before the block edge
  } kSpecials[] = {
      {"7,\"ab,c\r\nd\"\n", 5},  // quoted field spans the edge
      {"7,plain\r\n", 8},        // '\r' before the edge, '\n' after
      {"7,\"x\"\"y\"\n", 5},     // the "" escape split in two
      {"7,\"x\"\"y\"\n", 4},
      {"7,\"x\"\"y\"\n", 6},
  };
  for (const auto& special : kSpecials) {
    Case c;
    c.text = StraddleText(special.row, special.split);
    ASSERT_GT(c.text.size(), kBlockEdge);
    ASSERT_EQ(c.text.substr(kBlockEdge - special.split,
                            std::strlen(special.row)),
              special.row);
    const std::string diff = CheckCase(c, path);
    EXPECT_TRUE(diff.empty()) << "row " << Escaped(special.row) << " split "
                              << special.split << ": " << diff;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fairlaw::data
