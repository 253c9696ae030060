#include "data/chunked.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace fairlaw::data {

size_t NumChunks(size_t num_rows, size_t chunk_rows) {
  if (chunk_rows == 0) return num_rows == 0 ? 0 : 1;
  return (num_rows + chunk_rows - 1) / chunk_rows;
}

Table SliceChunk(const Table& table, size_t chunk_rows, size_t c) {
  const size_t num_rows = table.num_rows();
  FAIRLAW_CHECK_MSG(c < NumChunks(num_rows, chunk_rows),
                    "SliceChunk: chunk index out of range");
  const size_t step = chunk_rows == 0 ? num_rows : chunk_rows;
  const size_t offset = c * step;
  // flowcheck: allow-unchecked-result (the range was bounds-checked above)
  return table.Slice(offset, std::min(step, num_rows - offset)).ValueOrDie();
}

Result<ChunkedTable> ChunkedTable::FromTable(const Table& table,
                                             size_t chunk_rows) {
  ChunkedTable out;
  out.schema_ = table.schema();
  out.num_rows_ = table.num_rows();
  const size_t num_chunks = NumChunks(out.num_rows_, chunk_rows);
  out.chunks_.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    out.chunks_.push_back(SliceChunk(table, chunk_rows, c));
  }
  return out;
}

Result<ChunkedTable> ChunkedTable::FromChunks(std::vector<Table> chunks) {
  ChunkedTable out;
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].num_rows() == 0) {
      return Status::Invalid("ChunkedTable: chunk " + std::to_string(i) +
                             " is empty");
    }
    if (i == 0) {
      out.schema_ = chunks[i].schema();
    } else if (!(chunks[i].schema() == out.schema_)) {
      return Status::Invalid("ChunkedTable: chunk " + std::to_string(i) +
                             " schema differs from chunk 0");
    }
    out.num_rows_ += chunks[i].num_rows();
  }
  out.chunks_ = std::move(chunks);
  return out;
}

ChunkedBitmap::ChunkedBitmap(std::vector<Bitmap> chunks)
    : chunks_(std::move(chunks)) {}

ChunkedBitmap ChunkedBitmap::AllZero(std::span<const size_t> chunk_sizes) {
  std::vector<Bitmap> chunks;
  chunks.reserve(chunk_sizes.size());
  for (size_t size : chunk_sizes) chunks.emplace_back(size);
  return ChunkedBitmap(std::move(chunks));
}

size_t ChunkedBitmap::size() const {
  size_t total = 0;
  for (const Bitmap& chunk : chunks_) total += chunk.size();
  return total;
}

size_t ChunkedBitmap::Count() const {
  size_t total = 0;
  for (const Bitmap& chunk : chunks_) total += chunk.Count();
  return total;
}

size_t ChunkedBitmap::AndInto(const ChunkedBitmap& a, const ChunkedBitmap& b,
                              ChunkedBitmap* out) {
  FAIRLAW_DCHECK(a.num_chunks() == b.num_chunks(),
                 "ChunkedBitmap::AndInto: chunk layout mismatch");
  out->chunks_.resize(a.num_chunks());
  size_t count = 0;
  for (size_t i = 0; i < a.chunks_.size(); ++i) {
    count += Bitmap::AndInto(a.chunks_[i], b.chunks_[i], &out->chunks_[i]);
  }
  return count;
}

size_t ChunkedBitmap::AndCount(const ChunkedBitmap& a, const ChunkedBitmap& b) {
  FAIRLAW_DCHECK(a.num_chunks() == b.num_chunks(),
                 "ChunkedBitmap::AndCount: chunk layout mismatch");
  size_t count = 0;
  for (size_t i = 0; i < a.chunks_.size(); ++i) {
    count += Bitmap::AndCount(a.chunks_[i], b.chunks_[i]);
  }
  return count;
}

}  // namespace fairlaw::data
