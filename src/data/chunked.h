#ifndef FAIRLAW_DATA_CHUNKED_H_
#define FAIRLAW_DATA_CHUNKED_H_

#include <cstddef>
#include <span>
#include <vector>

#include "base/result.h"
#include "data/bitmap.h"
#include "data/table.h"

namespace fairlaw::data {

/// Default morsel size for the chunked audit engine: 64k rows keeps a
/// chunk's bitmaps (1k words) and numeric columns L2-resident while still
/// amortizing per-morsel scheduling overhead.
inline constexpr size_t kDefaultChunkRows = 65536;

/// A table split into fixed-size row chunks sharing one schema.
///
/// Each chunk is a plain `Table` (contiguous columns + per-chunk validity
/// masks), so every existing per-table kernel — `GroupIndex`, fused
/// bitmap popcounts, dense column views — runs unmodified per chunk. The
/// audit engine schedules one morsel per chunk and merges per-chunk
/// partials in chunk order, which is what keeps output byte-identical for
/// any thread count and any chunk size (DESIGN.md §14).
///
/// Invariants: every chunk has the same schema and at least one row (a
/// zero-row source table yields zero chunks), and `num_rows()` is the sum
/// of chunk sizes.
class ChunkedTable {
 public:
  /// Empty chunked table (no schema, no rows).
  ChunkedTable() = default;

  /// Splits `table` into chunks of `chunk_rows` rows (the last chunk may
  /// be shorter). `chunk_rows` == 0 means "one chunk for the whole
  /// table". Copies the sliced rows (chunk c is SliceChunk(table,
  /// chunk_rows, c)); callers that already hold chunked data should use
  /// FromChunks.
  FAIRLAW_NODISCARD static Result<ChunkedTable> FromTable(const Table& table,
                                                          size_t chunk_rows);

  /// Adopts pre-built chunks. All chunks must share a schema and be
  /// non-empty (an empty vector makes an empty chunked table).
  FAIRLAW_NODISCARD static Result<ChunkedTable> FromChunks(
      std::vector<Table> chunks);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return chunks_.size(); }
  const Table& chunk(size_t i) const { return chunks_[i]; }

 private:
  Schema schema_;
  std::vector<Table> chunks_;
  size_t num_rows_ = 0;
};

/// The number of chunks of `chunk_rows` rows (0: one chunk) that
/// `num_rows` rows make; zero rows make zero chunks.
size_t NumChunks(size_t num_rows, size_t chunk_rows);

/// Chunk `c` (< NumChunks) of `table` cut into `chunk_rows`-row chunks:
/// a copy of rows [c * chunk_rows, min((c + 1) * chunk_rows, num_rows)),
/// or of the whole table when `chunk_rows` is 0. The in-memory chunk
/// engines call it inside each chunk's own task, so the copy runs in
/// parallel and never spans the whole table at once.
Table SliceChunk(const Table& table, size_t chunk_rows, size_t c);

/// A row set over a chunked table: one bitmap per chunk, combined with
/// the same fused AND/popcount kernels as the contiguous `Bitmap` —
/// per-chunk counts simply sum, so chunk-spanning kernels return exactly
/// the numbers the whole-table kernels would.
class ChunkedBitmap {
 public:
  ChunkedBitmap() = default;

  /// Adopts per-chunk bitmaps (sized to their chunks).
  explicit ChunkedBitmap(std::vector<Bitmap> chunks);

  /// All-zero bitmap laid out over the given chunk sizes.
  static ChunkedBitmap AllZero(std::span<const size_t> chunk_sizes);

  size_t num_chunks() const { return chunks_.size(); }
  const Bitmap& chunk(size_t i) const { return chunks_[i]; }
  Bitmap* mutable_chunk(size_t i) { return &chunks_[i]; }

  /// Total bits / total set bits across all chunks.
  size_t size() const;
  size_t Count() const;

  /// Writes a & b into *out chunk by chunk and returns the total
  /// popcount — the chunk-spanning analogue of Bitmap::AndInto. The
  /// operands must have identical chunk layouts (programming error
  /// otherwise, matching the Bitmap kernel contract).
  static size_t AndInto(const ChunkedBitmap& a, const ChunkedBitmap& b,
                        ChunkedBitmap* out);

  /// Fused |a & b| without materializing the intersection.
  static size_t AndCount(const ChunkedBitmap& a, const ChunkedBitmap& b);

  bool operator==(const ChunkedBitmap& other) const = default;

 private:
  std::vector<Bitmap> chunks_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_CHUNKED_H_
