#include "data/group_index.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "base/check.h"

namespace fairlaw::data {

KeyCodes EncodeKeys(const Column& column) {
  FAIRLAW_CHECK_MSG(column.size() <= std::numeric_limits<uint32_t>::max(),
                    "EncodeKeys: more rows than 32-bit codes address");
  KeyCodes keys;
  keys.codes.resize(column.size());
  if (auto strings = column.Strings(); strings.ok()) {
    const std::vector<std::string>& values = *strings.ValueOrDie();
    for (size_t row = 0; row < values.size(); ++row) {
      keys.codes[row] =
          static_cast<uint32_t>(keys.dictionary.Insert(values[row]));
    }
    return keys;
  }
  for (size_t row = 0; row < column.size(); ++row) {
    keys.codes[row] =
        static_cast<uint32_t>(keys.dictionary.Insert(column.ValueToString(row)));
  }
  return keys;
}

Result<std::vector<uint8_t>> BinaryValues(const Table& table,
                                          const std::string& name) {
  FAIRLAW_ASSIGN_OR_RETURN(const Column* column, table.GetColumn(name));
  if (column->null_count() > 0) {
    return Status::Invalid("column '" + name + "' has nulls; audits require "
                           "explicit missing-value handling upstream");
  }
  std::vector<uint8_t> flags(column->size());
  bool binary = true;
  const auto copy = [&flags, &binary](auto values) {
    for (size_t row = 0; row < values.size(); ++row) {
      binary = binary && (values[row] == 0 || values[row] == 1);
      flags[row] = static_cast<uint8_t>(values[row] != 0);
    }
  };
  if (auto ints = column->Int64s(); ints.ok()) {
    copy(*ints);
  } else if (auto doubles = column->Doubles(); doubles.ok()) {
    copy(*doubles);
  } else if (auto bools = column->Bools(); bools.ok()) {
    std::transform(bools->begin(), bools->end(), flags.begin(),
                   [](uint8_t b) { return static_cast<uint8_t>(b != 0); });
  } else {
    return Status::Invalid("column '" + name +
                           "' is a string column; 0/1 columns must be "
                           "numeric or bool");
  }
  if (!binary) {
    return Status::Invalid("column '" + name + "' must be binary 0/1");
  }
  return flags;
}

Result<size_t> AttributeIndex::IndexOf(const std::string& value) const {
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] == value) return i;
  }
  return Status::NotFound("attribute '" + name + "' has no value '" + value +
                          "'");
}

Result<GroupIndex> GroupIndex::Build(
    const Table& table, const std::vector<std::string>& attribute_columns) {
  if (attribute_columns.empty()) {
    return Status::Invalid("GroupIndex::Build: no attribute columns");
  }
  GroupIndex index;
  index.num_rows_ = table.num_rows();
  index.attributes_.reserve(attribute_columns.size());
  for (const std::string& name : attribute_columns) {
    FAIRLAW_ASSIGN_OR_RETURN(const Column* column, table.GetColumn(name));
    const KeyCodes keys = EncodeKeys(*column);
    AttributeIndex attribute;
    attribute.name = name;
    attribute.values = keys.dictionary.keys();
    attribute.bitmaps.assign(attribute.values.size(), Bitmap(index.num_rows_));
    for (size_t row = 0; row < keys.codes.size(); ++row) {
      attribute.bitmaps[keys.codes[row]].Set(row);
    }
    index.attributes_.push_back(std::move(attribute));
  }
  return index;
}

Result<const AttributeIndex*> GroupIndex::Attribute(
    const std::string& name) const {
  for (const AttributeIndex& attribute : attributes_) {
    if (attribute.name == name) return &attribute;
  }
  return Status::NotFound("GroupIndex has no attribute '" + name + "'");
}

Result<Bitmap> GroupIndex::BinaryColumnBitmap(const Table& table,
                                              const std::string& column) {
  FAIRLAW_ASSIGN_OR_RETURN(std::vector<uint8_t> flags,
                           BinaryValues(table, column));
  return Bitmap::FromBytes(flags);
}

}  // namespace fairlaw::data
