#include "data/csv.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <system_error>

#include "base/simd.h"
#include "base/string_util.h"
#include "obs/obs.h"

namespace fairlaw::data {
namespace {

/// Bytes per file read. A streaming read grows past it only to finish a
/// row or a chunk that does not fit.
constexpr size_t kReadBlockBytes = size_t{1} << 16;

/// Field offsets are 32-bit, so one tokenized text is at most 4 GiB.
constexpr size_t kMaxTextBytes = std::numeric_limits<uint32_t>::max();

constexpr size_t kAllRows = std::numeric_limits<size_t>::max();

Status TooLargeError() {
  return Status::Invalid("CSV: input larger than 4 GiB");
}

Status UnterminatedQuoteError() {
  return Status::Invalid("CSV: unterminated quoted field");
}

Status FileShrankError() {
  return Status::IOError("CSV: file shrank between inference and read passes");
}

/// One field as 32-bit offsets. A field taken straight from the text is
/// text[begin, end), begin <= end. A field that held a quote is unescaped
/// into the tokenizer's arena and stored swapped, as arena[end, begin);
/// an empty field reads the same from either side, so no flag bit is
/// needed.
struct FieldSpan {
  uint32_t begin;
  uint32_t end;
};

/// The one CSV tokenizer, behind both the whole-text readers and the
/// streaming CsvChunkReader. It walks the structural-byte mask of
/// simd::StructuralMask 64 bytes at a time and stores the fields of each
/// complete row column-major, one FieldSpan vector per column, so a
/// per-column pass reads one dense vector instead of a cache line per
/// cell.
///
/// Projection: once the first row is stored, Project() names the
/// columns to keep. Every field is still scanned and counted, so quote
/// state and ragged rows come out as in a full read, but only a kept
/// column stores spans and unescapes its quoted fields.
///
/// Grammar: a quote may open anywhere in a field; inside quotes "" is a
/// literal quote and delimiters and newlines are field bytes; CR, LF and
/// CRLF each end a row; a row with no bytes (a blank line) is skipped; a
/// trailing delimiter at EOF ends in an empty last field. Since "" flips
/// the quote state twice, being inside quotes is exactly the parity of
/// the quotes seen so far, so one bit of state per text suffices.
class Tokenizer {
 public:
  struct Ragged {
    size_t row;     // index among all rows, header included
    size_t fields;  // its field count
  };

  /// `num_columns` fixes the column count up front; 0 takes it from the
  /// first row.
  Tokenizer(char delimiter, size_t num_columns)
      : delimiter_(delimiter),
        columns_(num_columns),
        keep_(num_columns, 1),
        learned_(num_columns > 0) {}

  /// Tokenizes rows of text[pos, size), where `pos` is a row boundary,
  /// until `max_rows` more rows are stored or the text ends. Returns the
  /// offset of the first byte not consumed: the start of a row the end of
  /// the text cut off (unless `at_eof`), the start of a ragged row, or
  /// the byte after the last stored row. A last row that ends inside
  /// quotes at EOF sets unterminated_quote().
  size_t Tokenize(const char* text, size_t size, size_t pos, bool at_eof,
                  size_t max_rows);

  size_t num_columns() const { return columns_.size(); }
  /// Rows stored since the last ClearRows().
  size_t num_rows() const { return num_rows_; }
  std::span<const FieldSpan> column(size_t c) const { return columns_[c]; }

  /// The field's bytes; valid until the next Tokenize or ClearRows.
  std::string_view View(FieldSpan field) const {
    return field.begin <= field.end
               ? std::string_view(text_ + field.begin, field.end - field.begin)
               : std::string_view(arena_.data() + field.end,
                                  field.begin - field.end);
  }

  void Reserve(size_t rows) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (keep_[c] != 0) columns_[c].reserve(rows);
    }
  }

  /// From now on stores only the columns whose `keep` entry is nonzero,
  /// and frees the spans of the others. Call once the column count is
  /// known; `keep` has one entry per column.
  void Project(const std::vector<uint8_t>& keep) {
    keep_ = keep;
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (keep_[c] == 0) ReleaseColumn(c);
    }
  }

  /// Frees a column's spans once it has been parsed.
  void ReleaseColumn(size_t c) { std::vector<FieldSpan>().swap(columns_[c]); }

  void ClearRows() {
    for (std::vector<FieldSpan>& column : columns_) column.clear();
    arena_.clear();
    num_rows_ = 0;
  }

  bool unterminated_quote() const { return unterminated_quote_; }

  /// The first row whose field count differs from the first row's. It is
  /// not stored; Tokenize stopped at its start.
  const std::optional<Ragged>& ragged() const { return ragged_; }

 private:
  void BeginRow(size_t pos) {
    row_start_ = pos;
    row_arena_start_ = arena_.size();
    field_index_ = 0;
  }

  void EmitField(size_t begin, size_t end, bool quoted) {
    const size_t c = field_index_++;
    if (c >= columns_.size()) {
      if (learned_) return;  // extra field of a ragged row
      columns_.emplace_back();
      keep_.push_back(1);
    }
    if (keep_[c] == 0) return;
    columns_[c].push_back(quoted ? Unescape(begin, end)
                                 : FieldSpan{static_cast<uint32_t>(begin),
                                             static_cast<uint32_t>(end)});
  }

  /// Copies text[begin, end) into the arena without its quoting.
  FieldSpan Unescape(size_t begin, size_t end) {
    if (arena_.capacity() < text_size_) arena_.reserve(text_size_);
    const size_t start = arena_.size();
    bool in_quotes = false;
    for (size_t i = begin; i < end; ++i) {
      if (text_[i] != '"') {
        arena_ += text_[i];
      } else if (in_quotes && i + 1 < end && text_[i + 1] == '"') {
        arena_ += '"';
        ++i;
      } else {
        in_quotes = !in_quotes;
      }
    }
    return FieldSpan{static_cast<uint32_t>(arena_.size()),
                     static_cast<uint32_t>(start)};
  }

  /// Stores the finished row, or records it as ragged and drops it.
  bool EndRow() {
    if (!learned_) {
      learned_ = true;
    } else if (field_index_ != columns_.size()) {
      ragged_ = Ragged{rows_seen_, field_index_};
      DropRow();
      return false;
    }
    ++rows_seen_;
    ++num_rows_;
    return true;
  }

  /// Removes the fields of the row being tokenized.
  void DropRow() {
    if (!learned_) {
      columns_.clear();
      keep_.clear();
    } else {
      const size_t stored = std::min(field_index_, columns_.size());
      for (size_t c = 0; c < stored; ++c) {
        if (keep_[c] != 0) columns_[c].pop_back();
      }
    }
    arena_.resize(row_arena_start_);
    field_index_ = 0;
  }

  char delimiter_;
  std::vector<std::vector<FieldSpan>> columns_;
  std::vector<uint8_t> keep_;  // 1 for a column whose spans are stored
  bool learned_;
  // Unescaped quoted fields, reserved to the text size when first needed
  // so appends never reallocate while a text is tokenized.
  std::string arena_;
  const char* text_ = nullptr;
  size_t text_size_ = 0;
  size_t num_rows_ = 0;
  size_t rows_seen_ = 0;  // complete rows over the tokenizer's life
  size_t row_start_ = 0;
  size_t row_arena_start_ = 0;
  size_t field_index_ = 0;
  bool unterminated_quote_ = false;
  std::optional<Ragged> ragged_;
};

size_t Tokenizer::Tokenize(const char* text, size_t size, size_t pos,
                           bool at_eof, size_t max_rows) {
  text_ = text;
  text_size_ = size;
  size_t stored = 0;
  size_t field_start = pos;
  bool quoted = false;  // the current field holds a quote
  bool in_quotes = false;
  BeginRow(pos);
  size_t block = pos;
  while (block < size) {
    uint64_t mask =
        size - block >= 64
            ? simd::StructuralMask(text + block, delimiter_)
            : simd::scalar::StructuralMask(text + block, size - block,
                                           delimiter_);
    size_t next_block = block + 64;
    for (; mask != 0; mask &= mask - 1) {
      const size_t at = block + static_cast<size_t>(std::countr_zero(mask));
      const char c = text[at];
      if (c == '"') {
        in_quotes = !in_quotes;
        quoted = true;
        continue;
      }
      if (in_quotes) continue;
      if (c == delimiter_) {
        EmitField(field_start, at, quoted);
        field_start = at + 1;
        quoted = false;
        continue;
      }
      // '\n' or '\r' ends the row; a row without a byte is a blank line.
      // CRLF is one terminator, which shows only when LF is the
      // delimiter: then the LF is skipped, and a CR that ends the text
      // before EOF waits for the next byte.
      size_t row_end = at + 1;
      if (c == '\r' && delimiter_ == '\n') {
        if (row_end == size && !at_eof) break;
        if (row_end < size && text[row_end] == '\n') ++row_end;
      }
      if (field_index_ > 0 || at > field_start) {
        EmitField(field_start, at, quoted);
        if (!EndRow()) return row_start_;
        if (++stored == max_rows) return row_end;
      }
      field_start = row_end;
      quoted = false;
      BeginRow(row_end);
      if (row_end > at + 1) {  // rescan past the skipped LF
        next_block = row_end;
        break;
      }
    }
    block = next_block;
  }
  if (in_quotes && at_eof) unterminated_quote_ = true;
  if (!at_eof || in_quotes) {
    DropRow();
    return row_start_;
  }
  if (field_index_ > 0 || size > field_start) {
    EmitField(field_start, size, quoted);
    if (!EndRow()) return row_start_;
  }
  return size;
}

Status RaggedRowError(const Tokenizer::Ragged& ragged, size_t expected) {
  return Status::Invalid("CSV: row " + std::to_string(ragged.row) + " has " +
                         std::to_string(ragged.fields) +
                         " fields, expected " + std::to_string(expected));
}

/// A file read into one buffer, in reads of a requested size. The buffer
/// holds every byte read and not yet dropped.
class FileReader {
 public:
  FAIRLAW_NODISCARD static Result<FileReader> Open(const std::string& path) {
    FileReader reader;
    reader.file_.reset(std::fopen(path.c_str(), "rb"));
    if (!reader.file_) {
      return Status::IOError("cannot open '" + path + "' for reading");
    }
    reader.path_ = path;
    return reader;
  }

  /// Appends up to `bytes` more bytes of the file; a short read is the
  /// end of the file. A directory opens but fails here.
  FAIRLAW_NODISCARD Status Fill(size_t bytes) {
    if (capacity_ - size_ < bytes) {
      const size_t capacity = std::max(size_ + bytes, 2 * capacity_);
      std::unique_ptr<char[]> grown(new char[capacity]);
      if (size_ > 0) std::memcpy(grown.get(), buffer_.get(), size_);
      buffer_ = std::move(grown);
      capacity_ = capacity;
    }
    const size_t got = std::fread(buffer_.get() + size_, 1, bytes, file_.get());
    size_ += got;
    bytes_read_ += got;
    if (got < bytes) {
      if (std::ferror(file_.get())) {
        return Status::IOError("error reading '" + path_ + "'");
      }
      eof_ = true;
    }
    return Status::OK();
  }

  /// Drops the first `bytes` buffered bytes.
  void Drop(size_t bytes) {
    std::memmove(buffer_.get(), buffer_.get() + bytes, size_ - bytes);
    size_ -= bytes;
  }

  const char* data() const { return buffer_.get(); }
  size_t size() const { return size_; }
  bool eof() const { return eof_; }
  size_t bytes_read() const { return bytes_read_; }

 private:
  struct Closer {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };

  FileReader() = default;

  std::unique_ptr<std::FILE, Closer> file_;
  std::string path_;
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t bytes_read_ = 0;
  bool eof_ = false;
};

/// The tokenizer over a file read block by block. Stored rows point into
/// the buffer, which keeps their bytes until Release(); a row cut off by
/// the end of a read is carried into the next one and tokenized again.
class CsvStream {
 public:
  CsvStream(FileReader file, Tokenizer tokenizer)
      : file_(std::move(file)), tokenizer_(std::move(tokenizer)) {}

  /// Tokenizes until `max_rows` rows are stored, reading as needed. Stops
  /// early at the end of the file, a ragged row or an unterminated quote.
  FAIRLAW_NODISCARD Status Advance(size_t max_rows) {
    while (tokenizer_.num_rows() < max_rows) {
      pos_ = tokenizer_.Tokenize(file_.data(), file_.size(), pos_,
                                 file_.eof(),
                                 max_rows - tokenizer_.num_rows());
      if (tokenizer_.num_rows() == max_rows || file_.eof() ||
          tokenizer_.ragged()) {
        break;
      }
      // Reading at least the carried bytes again keeps re-tokenizing a
      // long row linear overall.
      const size_t bytes = std::max(kReadBlockBytes, file_.size() - pos_);
      if (file_.size() + bytes > kMaxTextBytes) return TooLargeError();
      FAIRLAW_RETURN_NOT_OK(file_.Fill(bytes));
    }
    return Status::OK();
  }

  void Project(const std::vector<uint8_t>& keep) { tokenizer_.Project(keep); }

  /// Drops the stored rows and the bytes they came from.
  void Release() {
    tokenizer_.ClearRows();
    file_.Drop(pos_);
    pos_ = 0;
  }

  const Tokenizer& tokenizer() const { return tokenizer_; }
  size_t bytes_read() const { return file_.bytes_read(); }

 private:
  FileReader file_;
  Tokenizer tokenizer_;
  size_t pos_ = 0;
};

/// The bytes std::isspace accepts in the C locale, which is what
/// StripWhitespace strips.
bool IsCsvSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The null-token test, run on the field view without building a string:
/// a field is null if, stripped of whitespace, it equals a null token.
class NullTokens {
 public:
  explicit NullTokens(const CsvOptions& options)
      : tokens_(&options.null_tokens) {
    for (const std::string& token : *tokens_) {
      max_size_ = std::max(max_size_, token.size());
    }
  }

  bool Matches(std::string_view raw) const {
    // Most cells are longer than every token and have no edge space.
    if (raw.size() > max_size_ && !IsCsvSpace(raw.front()) &&
        !IsCsvSpace(raw.back())) {
      return false;
    }
    size_t begin = 0;
    size_t end = raw.size();
    while (begin < end && IsCsvSpace(raw[begin])) ++begin;
    while (end > begin && IsCsvSpace(raw[end - 1])) --end;
    const std::string_view stripped = raw.substr(begin, end - begin);
    for (const std::string& token : *tokens_) {
      if (stripped == token) return true;
    }
    return false;
  }

 private:
  const std::vector<std::string>* tokens_;
  size_t max_size_ = 0;
};

/// O(1)-memory column type tracker for the streaming inference pass.
/// Priority: int64 > double > bool > string; a column with no non-null
/// values is string. InferColumn below applies the same priority by
/// parsing, so both ingestion paths infer identical schemas.
struct ColumnTypeFlags {
  bool all_int = true;
  bool all_double = true;
  bool all_bool = true;
  bool any_value = false;

  void Observe(std::string_view raw) {
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

/// The fields of one tokenized column, from row `first_row` on.
class ColumnFields {
 public:
  ColumnFields(const Tokenizer& tokenizer, size_t column, size_t first_row)
      : tokenizer_(&tokenizer),
        spans_(tokenizer.column(column).subspan(first_row)) {}

  size_t size() const { return spans_.size(); }
  std::string_view operator[](size_t i) const {
    return tokenizer_->View(spans_[i]);
  }

 private:
  const Tokenizer* tokenizer_;
  std::span<const FieldSpan> spans_;
};

/// Which cells of a column are null, tested once per cell.
struct Validity {
  std::vector<uint8_t> valid;  // 0 for a null token
  size_t null_count = 0;
};

Validity MarkNulls(const ColumnFields& fields, const NullTokens& nulls) {
  Validity validity;
  validity.valid.resize(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const bool is_null = nulls.Matches(fields[i]);
    validity.valid[i] = is_null ? 0 : 1;
    validity.null_count += is_null ? 1 : 0;
  }
  return validity;
}

Column ColumnOf(std::vector<int64_t> values) {
  return Column::FromInt64s(std::move(values));
}
Column ColumnOf(std::vector<double> values) {
  return Column::FromDoubles(std::move(values));
}
Column ColumnOf(std::vector<uint8_t> values) {
  return Column::FromBools(std::move(values));
}
Column ColumnOf(std::vector<std::string> values) {
  return Column::FromStrings(std::move(values));
}

void AppendValue(Column* column, int64_t value) { column->AppendInt64(value); }
void AppendValue(Column* column, double value) { column->AppendDouble(value); }
void AppendValue(Column* column, uint8_t value) {
  column->AppendBool(value != 0);
}
void AppendValue(Column* column, std::string value) {
  column->AppendString(std::move(value));
}

/// Column::From* when no cell is null; otherwise values and nulls are
/// appended in row order.
template <typename T>
Column MakeColumn(std::vector<T> values, const Validity& validity) {
  if (validity.null_count == 0) return ColumnOf(std::move(values));
  Column column = ColumnOf(std::vector<T>());
  for (size_t i = 0; i < values.size(); ++i) {
    if (validity.valid[i] != 0) {
      AppendValue(&column, std::move(values[i]));
    } else {
      column.AppendNull();
    }
  }
  return column;
}

/// Parses every non-null cell with `parse` (a null slot holds T{}),
/// stopping at the first cell that fails.
template <typename T, typename Parse>
Result<Column> ParseValues(const ColumnFields& fields,
                           const Validity& validity, Parse parse) {
  std::vector<T> values;
  values.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    if (validity.valid[i] == 0) {
      values.emplace_back();
      continue;
    }
    auto parsed = parse(fields[i]);
    if (!parsed.ok()) return parsed.status();
    values.push_back(static_cast<T>(std::move(*parsed)));
  }
  return MakeColumn(std::move(values), validity);
}

/// The one column parser: parses a column's cells as `type` with the same
/// ParseInt64/ParseDouble/ParseBool the rest of the library uses, so
/// values are bit-identical. Fails at the first non-null cell that does
/// not parse.
Result<Column> ParseColumn(const ColumnFields& fields,
                           const Validity& validity, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return ParseValues<int64_t>(fields, validity, &ParseInt64);
    case DataType::kDouble:
      return ParseValues<double>(fields, validity, &ParseDouble);
    case DataType::kBool:
      return ParseValues<uint8_t>(fields, validity, &ParseBool);
    case DataType::kString: {
      std::vector<std::string> values;
      values.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        if (validity.valid[i] != 0) {
          values.emplace_back(fields[i]);
        } else {
          values.emplace_back();
        }
      }
      return MakeColumn(std::move(values), validity);
    }
  }
  return Status::Internal("CSV: unknown column type");
}

/// Typing is parsing: tries int64, then double, then bool. The first
/// attempt that parses every non-null cell gives both the column's type
/// and its values; an all-null column is string. The double attempt
/// parses the text again rather than widening stored ints, so "-0" keeps
/// its sign.
Result<Column> InferColumn(const ColumnFields& fields,
                           const Validity& validity) {
  if (validity.null_count < fields.size()) {
    for (const DataType type :
         {DataType::kInt64, DataType::kDouble, DataType::kBool}) {
      Result<Column> column = ParseColumn(fields, validity, type);
      if (column.ok()) return column;
    }
  }
  return ParseColumn(fields, validity, DataType::kString);
}

/// Every column's name: its stripped header field (the tokenizer's first
/// stored row), or c0, c1, ... without a header. Call before Project()
/// frees the header spans of dropped columns.
std::vector<std::string> ColumnNames(const Tokenizer& tokenizer,
                                     const CsvOptions& options) {
  std::vector<std::string> names(tokenizer.num_columns());
  for (size_t c = 0; c < names.size(); ++c) {
    names[c] = options.has_header
                   ? std::string(StripWhitespace(
                         tokenizer.View(tokenizer.column(c)[0])))
                   : std::string("c").append(std::to_string(c));
  }
  return names;
}

/// 1 for each of `names` that `options` keeps: all of them when
/// include_columns is empty.
std::vector<uint8_t> KeepMask(const std::vector<std::string>& names,
                              const CsvOptions& options) {
  std::vector<uint8_t> keep(names.size(),
                            options.include_columns.empty() ? 1 : 0);
  for (const std::string& wanted : options.include_columns) {
    for (size_t c = 0; c < names.size(); ++c) {
      if (names[c] == wanted) keep[c] = 1;
    }
  }
  return keep;
}

/// Checks every header name, kept or not, with Schema::Make, so an empty
/// or repeated name fails a projected read as it fails a full one.
Status CheckNames(const std::vector<std::string>& names) {
  std::vector<Field> fields(names.size());
  for (size_t c = 0; c < names.size(); ++c) fields[c].name = names[c];
  return Schema::Make(std::move(fields)).status();
}

/// Counts the columns a read built and the ones it skipped.
void CountProjection(const std::vector<uint8_t>& keep) {
  const size_t parsed =
      static_cast<size_t>(std::count(keep.begin(), keep.end(), 1));
  obs::GetCounter("csv.columns_parsed")->Increment(parsed);
  obs::GetCounter("csv.columns_skipped")->Increment(keep.size() - parsed);
}

/// Reads and parses a whole CSV text (ReadCsvString and ReadCsvFile).
Result<Table> ParseCsvText(std::string_view text, const CsvOptions& options) {
  obs::TraceSpan span("read_csv");
  obs::GetCounter("csv.bytes_read")->Increment(text.size());
  if (text.size() > kMaxTextBytes) return TooLargeError();
  Tokenizer tokenizer(options.delimiter, 0);
  // The first row names the columns to keep. The first two rows give a
  // row width to size the kept span vectors by, so they rarely regrow;
  // then the rest. A row takes at least one byte per column, which caps
  // the estimate.
  size_t stop = tokenizer.Tokenize(text.data(), text.size(), 0,
                                   /*at_eof=*/true, 1);
  std::vector<std::string> names;
  std::vector<uint8_t> keep;
  if (tokenizer.num_rows() == 1) {
    names = ColumnNames(tokenizer, options);
    keep = KeepMask(names, options);
    tokenizer.Project(keep);
    stop = tokenizer.Tokenize(text.data(), text.size(), stop,
                              /*at_eof=*/true, 1);
  }
  if (tokenizer.num_rows() == 2) {
    tokenizer.Reserve(std::min(text.size() / (stop / 2) * 3 / 2,
                               text.size() / tokenizer.num_columns() + 1));
    stop = tokenizer.Tokenize(text.data(), text.size(), stop,
                              /*at_eof=*/true, kAllRows);
  }
  // An open quote anywhere in the text is reported before a ragged row.
  // The ragged row starts outside quotes, so the text ends inside quotes
  // iff an odd number of quotes follow that start.
  if (tokenizer.unterminated_quote() ||
      (tokenizer.ragged() &&
       std::count(text.begin() + static_cast<ptrdiff_t>(stop), text.end(),
                  '"') % 2 == 1)) {
    return UnterminatedQuoteError();
  }
  if (tokenizer.num_rows() == 0) {
    return Status::Invalid("CSV: input has no rows");
  }
  const size_t num_columns = tokenizer.num_columns();
  if (tokenizer.ragged()) {
    return RaggedRowError(*tokenizer.ragged(), num_columns);
  }
  FAIRLAW_RETURN_NOT_OK(CheckNames(names));

  const size_t first_data_row = options.has_header ? 1 : 0;
  const NullTokens nulls(options);
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (size_t c = 0; c < num_columns; ++c) {
    if (keep[c] == 0) continue;
    const ColumnFields cells(tokenizer, c, first_data_row);
    FAIRLAW_ASSIGN_OR_RETURN(Column column,
                             InferColumn(cells, MarkNulls(cells, nulls)));
    fields.push_back(Field{names[c], column.type()});
    columns.push_back(std::move(column));
    tokenizer.ReleaseColumn(c);
  }
  FAIRLAW_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  obs::GetCounter("csv.rows_loaded")
      ->Increment(tokenizer.num_rows() - first_data_row);
  CountProjection(keep);
  return Table::Make(std::move(schema), std::move(columns));
}

std::string EscapeField(const std::string& value, char delimiter) {
  bool needs_quotes = value.find(delimiter) != std::string::npos ||
                      value.find('"') != std::string::npos ||
                      value.find('\n') != std::string::npos ||
                      value.find('\r') != std::string::npos;
  if (!needs_quotes) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  return ParseCsvText(text, options);
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  FAIRLAW_ASSIGN_OR_RETURN(FileReader file, FileReader::Open(path));
  // One read of the whole file when its size is known: asking for one
  // byte more than the size sees the end in the same read.
  std::error_code error;
  const uintmax_t file_size = std::filesystem::file_size(path, error);
  if (!error && file_size > kMaxTextBytes) return TooLargeError();
  size_t bytes = error ? kReadBlockBytes : static_cast<size_t>(file_size) + 1;
  while (!file.eof()) {
    FAIRLAW_RETURN_NOT_OK(file.Fill(bytes));
    bytes = std::max(bytes, file.size());
  }
  return ParseCsvText(std::string_view(file.data(), file.size()), options);
}

Result<std::string> WriteCsvString(const Table& table,
                                   const CsvOptions& options) {
  std::string out;
  const std::string delimiter(1, options.delimiter);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += delimiter;
    out += EscapeField(table.schema().field(c).name, options.delimiter);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delimiter;
      const Column& column = table.column(c);
      if (!column.IsValid(r)) continue;  // null renders as empty field
      FAIRLAW_ASSIGN_OR_RETURN(Cell cell, column.GetCell(r));
      out += EscapeField(CellToString(cell), options.delimiter);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  FAIRLAW_ASSIGN_OR_RETURN(std::string text, WriteCsvString(table, options));
  std::ofstream output(path, std::ios::binary);
  if (!output) return Status::IOError("cannot open '" + path +
                                      "' for writing");
  output << text;
  if (!output) return Status::IOError("error writing '" + path + "'");
  return Status::OK();
}

struct CsvChunkReader::Impl {
  CsvChunkReader::Options options;
  size_t chunk_rows = kDefaultChunkRows;
  Schema schema;
  std::vector<size_t> kept;  // file column of each schema field
  size_t num_rows = 0;   // data rows in the file
  size_t rows_read = 0;  // data rows emitted so far
  std::optional<CsvStream> stream;  // the read pass, past the header
};

CsvChunkReader::CsvChunkReader() : impl_(std::make_unique<Impl>()) {}
CsvChunkReader::CsvChunkReader(CsvChunkReader&&) noexcept = default;
CsvChunkReader& CsvChunkReader::operator=(CsvChunkReader&&) noexcept =
    default;
CsvChunkReader::~CsvChunkReader() = default;

const Schema& CsvChunkReader::schema() const { return impl_->schema; }
size_t CsvChunkReader::num_rows() const { return impl_->num_rows; }

Result<CsvChunkReader> CsvChunkReader::Make(const std::string& path) {
  return Make(path, Options{});
}

Result<CsvChunkReader> CsvChunkReader::Make(const std::string& path,
                                            const Options& options) {
  obs::TraceSpan span("csv_open_stream");
  CsvChunkReader reader;
  Impl& impl = *reader.impl_;
  impl.options = options;
  impl.chunk_rows =
      options.chunk_rows == 0 ? kDefaultChunkRows : options.chunk_rows;

  // Pass 1: inference. Holds one chunk of tokenized rows plus O(columns)
  // type flags, never the file. The first row names the columns to keep;
  // it stays stored, so the first chunk still ends at chunk_rows rows.
  FAIRLAW_ASSIGN_OR_RETURN(FileReader infer_file, FileReader::Open(path));
  CsvStream infer(std::move(infer_file), Tokenizer(options.csv.delimiter, 0));
  FAIRLAW_RETURN_NOT_OK(infer.Advance(1));
  std::vector<std::string> names;
  std::vector<uint8_t> keep;
  if (infer.tokenizer().num_rows() == 1) {
    names = ColumnNames(infer.tokenizer(), options.csv);
    keep = KeepMask(names, options.csv);
    infer.Project(keep);
  }
  const NullTokens nulls(options.csv);
  std::vector<ColumnTypeFlags> flags(names.size());
  size_t rows = 0;  // header included
  for (;;) {
    FAIRLAW_RETURN_NOT_OK(infer.Advance(impl.chunk_rows));
    const Tokenizer& tokenizer = infer.tokenizer();
    if (tokenizer.ragged()) {
      return RaggedRowError(*tokenizer.ragged(), tokenizer.num_columns());
    }
    const size_t first_row = rows == 0 && options.csv.has_header ? 1 : 0;
    for (size_t c = 0; c < flags.size(); ++c) {
      if (keep[c] == 0) continue;
      const ColumnFields cells(tokenizer, c, first_row);
      for (size_t i = 0; i < cells.size(); ++i) {
        if (!nulls.Matches(cells[i])) flags[c].Observe(cells[i]);
      }
    }
    rows += tokenizer.num_rows();
    const bool more = tokenizer.num_rows() == impl.chunk_rows;
    infer.Release();
    if (!more) break;
  }
  if (infer.tokenizer().unterminated_quote()) return UnterminatedQuoteError();
  if (rows == 0) return Status::Invalid("CSV: input has no rows");
  obs::GetCounter("csv.bytes_read")->Increment(infer.bytes_read());

  FAIRLAW_RETURN_NOT_OK(CheckNames(names));
  std::vector<Field> fields;
  for (size_t c = 0; c < names.size(); ++c) {
    if (keep[c] == 0) continue;
    fields.push_back(Field{names[c], flags[c].Resolve()});
    impl.kept.push_back(c);
  }
  FAIRLAW_ASSIGN_OR_RETURN(impl.schema, Schema::Make(std::move(fields)));
  impl.num_rows = options.csv.has_header ? rows - 1 : rows;
  CountProjection(keep);

  // Pass 2 setup: reopen and consume the header so Next() starts at the
  // first data row.
  FAIRLAW_ASSIGN_OR_RETURN(FileReader file, FileReader::Open(path));
  impl.stream.emplace(std::move(file),
                      Tokenizer(options.csv.delimiter, names.size()));
  impl.stream->Project(keep);
  if (options.csv.has_header) {
    FAIRLAW_RETURN_NOT_OK(impl.stream->Advance(1));
    if (impl.stream->tokenizer().num_rows() != 1) return FileShrankError();
    impl.stream->Release();
  }
  return reader;
}

Result<std::optional<Table>> CsvChunkReader::Next() {
  Impl& impl = *impl_;
  if (impl.rows_read >= impl.num_rows) return std::optional<Table>();
  obs::TraceSpan span("csv_chunk");
  const size_t want =
      std::min(impl.chunk_rows, impl.num_rows - impl.rows_read);
  CsvStream& stream = *impl.stream;
  FAIRLAW_RETURN_NOT_OK(stream.Advance(want));
  const Tokenizer& tokenizer = stream.tokenizer();
  if (tokenizer.ragged()) {
    return RaggedRowError(*tokenizer.ragged(), tokenizer.num_columns());
  }
  if (tokenizer.unterminated_quote()) return UnterminatedQuoteError();
  if (tokenizer.num_rows() < want) return FileShrankError();
  const NullTokens nulls(impl.options.csv);
  std::vector<Column> columns;
  columns.reserve(impl.kept.size());
  for (size_t f = 0; f < impl.kept.size(); ++f) {
    const ColumnFields cells(tokenizer, impl.kept[f], 0);
    FAIRLAW_ASSIGN_OR_RETURN(
        Column column, ParseColumn(cells, MarkNulls(cells, nulls),
                                   impl.schema.field(f).type));
    columns.push_back(std::move(column));
  }
  stream.Release();
  impl.rows_read += want;
  obs::GetCounter("csv.rows_loaded")->Increment(want);
  obs::GetCounter("csv.chunks_streamed")->Increment();
  FAIRLAW_ASSIGN_OR_RETURN(Table chunk,
                           Table::Make(impl.schema, std::move(columns)));
  return std::optional<Table>(std::move(chunk));
}

}  // namespace fairlaw::data
