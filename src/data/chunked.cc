#include "data/chunked.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace fairlaw::data {

Result<ChunkedTable> ChunkedTable::FromTable(const Table& table,
                                             size_t chunk_rows) {
  ChunkedTable out;
  out.schema_ = table.schema();
  const size_t total = table.num_rows();
  const size_t step = chunk_rows == 0 ? std::max<size_t>(total, 1) : chunk_rows;
  for (size_t offset = 0; offset < total; offset += step) {
    const size_t length = std::min(step, total - offset);
    FAIRLAW_ASSIGN_OR_RETURN(Table chunk, table.Slice(offset, length));
    out.chunks_.push_back(std::move(chunk));
  }
  out.num_rows_ = total;
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

std::vector<const Table*> ChunkedTable::ChunkPointers() const {
  std::vector<const Table*> pointers;
  pointers.reserve(chunks_.size());
  for (const Table& chunk : chunks_) pointers.push_back(&chunk);
  return pointers;
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
