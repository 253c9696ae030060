#ifndef FAIRLAW_DATA_CSV_H_
#define FAIRLAW_DATA_CSV_H_

#include <memory>
#include <optional>
#include <string>

#include "base/result.h"
#include "data/chunked.h"
#include "data/table.h"

namespace fairlaw::data {

/// CSV parsing options.
struct CsvOptions {
  char delimiter = ',';
  /// When true the first row provides column names; otherwise columns are
  /// named c0, c1, ...
  bool has_header = true;
  /// Strings that read as null (after whitespace stripping).
  std::vector<std::string> null_tokens = {"", "NA", "null", "NULL"};
  /// Names of the columns to build, matched against the stripped header
  /// names (c0, c1, ... without a header); empty builds every column.
  /// Kept columns stay in file order and repeats change nothing. A name
  /// the file lacks is ignored, so a later GetColumn reports it as it
  /// would on the full table. Every row is still tokenized and every
  /// header name checked, so a projected read fails exactly where and
  /// how the full read fails; only the kept columns are typed, parsed
  /// and stored.
  std::vector<std::string> include_columns = {};
};

/// Parses CSV text into a table of the columns `options` keeps. Column
/// types are inferred from the data: a column is int64 if every non-null
/// cell parses as an integer, else double if every non-null cell parses
/// as a number, else bool if every non-null cell is true/false, else
/// string. Quoted fields ("a,b" with embedded delimiters and ""
/// escapes) are supported.
FAIRLAW_NODISCARD Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options = {});

/// Reads and parses a CSV file.
FAIRLAW_NODISCARD Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table to CSV text (header row + data rows; nulls render
/// as empty fields; strings containing the delimiter, quotes, or newlines
/// are quoted).
FAIRLAW_NODISCARD Result<std::string> WriteCsvString(const Table& table,
                                   const CsvOptions& options = {});

/// Writes a table to a CSV file.
FAIRLAW_NODISCARD Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// Streams a CSV file chunk-at-a-time so ingestion is out-of-core: peak
/// memory is bounded by the read block plus one chunk, never the file
/// size.
///
/// Both passes run the tokenizer ReadCsvFile uses over 64 KiB reads; a
/// row cut off by the end of a read is carried to the front of the buffer
/// and tokenized again once the next read lands. Open() makes an
/// inference pass over the whole file, folding per-column
/// all-int/all-double/all-bool flags over one chunk of field views at a
/// time plus the ragged-row check, so the resulting schema — and
/// therefore every parsed cell — is byte-identical to what ReadCsvFile
/// would produce for the same file. Next() then re-streams the file and
/// parses each chunk of at most `chunk_rows` rows with ReadCsvFile's
/// column parser at the schema's types. Both passes honour
/// CsvOptions::include_columns as ReadCsvFile does: only the kept
/// columns are typed and parsed, and schema() lists only them.
class CsvChunkReader {
 public:
  struct Options {
    CsvOptions csv;
    /// Rows per emitted chunk; 0 falls back to kDefaultChunkRows.
    size_t chunk_rows = kDefaultChunkRows;
  };

  /// Opens `path` and runs the inference pass. Fails on IO errors, ragged
  /// rows, unterminated quotes, or an empty file — the same failures (and
  /// messages) ReadCsvFile reports.
  FAIRLAW_NODISCARD static Result<CsvChunkReader> Make(
      const std::string& path, const Options& options);
  FAIRLAW_NODISCARD static Result<CsvChunkReader> Make(const std::string& path);

  CsvChunkReader(CsvChunkReader&&) noexcept;
  CsvChunkReader& operator=(CsvChunkReader&&) noexcept;
  ~CsvChunkReader();

  /// The inferred schema of the kept columns (identical to
  /// ReadCsvFile's).
  const Schema& schema() const;

  /// Total data rows in the file (known after the inference pass).
  size_t num_rows() const;

  /// Parses and returns the next chunk (1..chunk_rows rows), or nullopt
  /// once the file is exhausted.
  FAIRLAW_NODISCARD Result<std::optional<Table>> Next();

 private:
  CsvChunkReader();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_CSV_H_
