#ifndef FAIRLAW_DATA_GROUP_INDEX_H_
#define FAIRLAW_DATA_GROUP_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "data/bitmap.h"
#include "data/table.h"
#include "stats/mergeable.h"

namespace fairlaw::data {

/// A column's rows as dense first-seen group codes: `codes[row]` is the
/// slot of the row's key in `dictionary`, and the dictionary holds each
/// distinct key once, in the order its first row appears.
struct KeyCodes {
  std::vector<uint32_t> codes;
  stats::KeyDictionary dictionary;
};

/// The one rule by which a column's rows become group keys. Two rows
/// share a code iff their Column::ValueToString renderings are equal:
/// doubles group at FormatDouble(x, 6) (not by bit pattern), and a null
/// shares the slot of a literal "null" string. Null-free string columns
/// insert their stored strings without a per-row copy. Every table-level
/// group-by (GroupIndex, proxy detection, representation and subgroup
/// audits) derives its groups here.
KeyCodes EncodeKeys(const Column& column);

/// The one rule by which a column's rows become 0/1 flags (predictions,
/// labels). int64 and bool columns are read in place (a bool byte is 1
/// iff nonzero); double columns accept exactly 0.0 and 1.0. Invalid,
/// checked in this order, on a missing column (the table's lookup
/// error), nulls ("column '<name>' has nulls; audits require explicit
/// missing-value handling upstream", the protected column's text), a
/// string column ("column '<name>' is a string column; 0/1 columns must
/// be numeric or bool"), and any other value ("column '<name>' must be
/// binary 0/1"). Backs the audit fold,
/// MetricInputFromTable and GroupIndex::BinaryColumnBitmap.
FAIRLAW_NODISCARD Result<std::vector<uint8_t>> BinaryValues(
    const Table& table, const std::string& name);

/// Bitmap partition of one attribute column: every distinct value (in
/// first-seen row order, as EncodeKeys orders them) with the bitmap of
/// the rows holding it. The bitmaps are disjoint and cover all rows.
struct AttributeIndex {
  std::string name;
  std::vector<std::string> values;
  std::vector<Bitmap> bitmaps;  // aligned with `values`

  /// Index into `values` for `value`; NotFound when absent.
  FAIRLAW_NODISCARD Result<size_t> IndexOf(const std::string& value) const;
};

/// Columnar bitmap index over a table: per-attribute-value row bitmaps
/// plus (optionally) packed 0/1 prediction and label bitmaps.
///
/// Built once per table, then every subgroup / metric question becomes
/// word-wise AND + popcount:
///   members of (gender=f & race=c)  = bm(gender=f) & bm(race=c)
///   selected in that subgroup       = popcount(members & predictions)
///   TP in that subgroup             = popcount(members & pred & labels)
/// The audit layers cache one GroupIndex per run so no metric re-derives
/// a partition from string columns.
class GroupIndex {
 public:
  /// Indexes `attribute_columns` of `table`, grouping each column's rows
  /// by EncodeKeys.
  FAIRLAW_NODISCARD static Result<GroupIndex> Build(
      const Table& table, const std::vector<std::string>& attribute_columns);

  size_t num_rows() const { return num_rows_; }
  const std::vector<AttributeIndex>& attributes() const { return attributes_; }

  /// The indexed attribute named `name`; NotFound when absent.
  FAIRLAW_NODISCARD Result<const AttributeIndex*> Attribute(const std::string& name) const;

  /// Packs a 0/1 column into a bitmap: BinaryValues, with its errors,
  /// set bit by bit. Usable standalone for prediction/label columns.
  FAIRLAW_NODISCARD static Result<Bitmap> BinaryColumnBitmap(const Table& table,
                                           const std::string& column);

 private:
  size_t num_rows_ = 0;
  std::vector<AttributeIndex> attributes_;
};

}  // namespace fairlaw::data

#endif  // FAIRLAW_DATA_GROUP_INDEX_H_
