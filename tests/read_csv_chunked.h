#ifndef FAIRLAW_TESTS_READ_CSV_CHUNKED_H_
#define FAIRLAW_TESTS_READ_CSV_CHUNKED_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "data/chunked.h"
#include "data/csv.h"
#include "data/table.h"

namespace fairlaw::data {

/// Reads a whole CSV file through the streaming reader into a
/// ChunkedTable, one chunk per CsvChunkReader::Next(), so tests can
/// compare the chunk layout and cells with the whole-file read.
inline Result<ChunkedTable> ReadCsvFileChunked(
    const std::string& path,
    const CsvChunkReader::Options& options = CsvChunkReader::Options{}) {
  FAIRLAW_ASSIGN_OR_RETURN(CsvChunkReader reader,
                           CsvChunkReader::Make(path, options));
  std::vector<Table> chunks;
  for (;;) {
    FAIRLAW_ASSIGN_OR_RETURN(std::optional<Table> chunk, reader.Next());
    if (!chunk.has_value()) break;
    chunks.push_back(std::move(*chunk));
  }
  if (chunks.empty()) {
    // Header-only file: a zero-chunk table that still carries the schema.
    TableBuilder builder(reader.schema());
    FAIRLAW_ASSIGN_OR_RETURN(Table empty, builder.Finish());
    return ChunkedTable::FromTable(empty, options.chunk_rows);
  }
  return ChunkedTable::FromChunks(std::move(chunks));
}

}  // namespace fairlaw::data

#endif  // FAIRLAW_TESTS_READ_CSV_CHUNKED_H_
