#ifndef FAIRLAW_SERVE_JSON_VALUE_H_
#define FAIRLAW_SERVE_JSON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "base/result.h"

namespace fairlaw::serve {

/// Parsed JSON value for the serve request path — the one place in the
/// tree that consumes JSON (the writers all stream through
/// base/json_writer.h). Deliberately minimal: single-document parse,
/// no streaming. Strings support the escapes JsonEscape emits plus
/// \uXXXX for the Basic Multilingual Plane.
///
/// Storage is one flat document owned by the root that Parse returns:
/// every node sits in one vector, a container's children are one
/// contiguous run of a shared index vector (so `at` is O(1)), and every
/// unescaped key and string lives in one character arena. Parsing a
/// request line therefore costs a handful of allocations however many
/// events it carries. Objects keep their members in document order and
/// `Get` scans them from the back, so the last of duplicate keys wins;
/// requests are field-addressed, never iterated, so member order cannot
/// leak into responses. Child values are views into the root's
/// document and live exactly as long as the root does.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  /// Parses exactly one JSON document from `text`; trailing non-space
  /// content is an error (the serve protocol is one document per line).
  FAIRLAW_NODISCARD static Result<JsonValue> Parse(std::string_view text);

  JsonValue() = default;
  JsonValue(JsonValue&&) noexcept;
  JsonValue& operator=(JsonValue&&) noexcept;
  ~JsonValue();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; Invalid when the kind does not match.
  FAIRLAW_NODISCARD Result<bool> AsBool() const;
  FAIRLAW_NODISCARD Result<double> AsDouble() const;
  /// Numbers without a fraction/exponent that fit int64; Invalid
  /// otherwise (the protocol's timestamps and 0/1 fields come through
  /// here).
  FAIRLAW_NODISCARD Result<int64_t> AsInt64() const;
  FAIRLAW_NODISCARD Result<std::string> AsString() const;

  /// Object member access. Get: Invalid on non-objects, NotFound on a
  /// missing key. GetOrNull: null pointer when absent (optional fields).
  FAIRLAW_NODISCARD Result<const JsonValue*> Get(std::string_view key) const;
  const JsonValue* GetOrNull(std::string_view key) const;

  /// Array access; size() is 0 for anything but an array.
  size_t size() const { return kind_ == Kind::kArray ? count_ : 0; }
  const JsonValue& at(size_t index) const;

 private:
  struct Document;

  std::string_view Text(uint32_t begin, uint32_t size) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool number_is_integral_ = false;
  // Object members: this node's key, as an arena range.
  uint32_t key_begin_ = 0;
  uint32_t key_size_ = 0;
  // Strings: an arena range. Arrays and objects: a run of child
  // indices in the document's index vector.
  uint32_t begin_ = 0;
  uint32_t count_ = 0;
  double number_ = 0.0;
  int64_t integer_ = 0;
  const Document* doc_ = nullptr;
  std::unique_ptr<Document> owned_;  // set on the root only

  friend class JsonParser;
};

}  // namespace fairlaw::serve

#endif  // FAIRLAW_SERVE_JSON_VALUE_H_
