#include "serve/json_value.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "base/string_util.h"

namespace fairlaw::serve {

/// The flat storage behind one parsed document (see the class comment).
struct JsonValue::Document {
  std::vector<JsonValue> nodes;
  std::vector<uint32_t> children;
  std::string arena;
};

/// Recursive-descent parser over a string_view, writing into one
/// Document. Nodes are addressed by index while parsing — the node
/// vector grows, so a pointer into it would dangle. A container's
/// children collect on a scratch stack and move to the shared index
/// vector as one run when the container closes. Numbers are validated
/// against the JSON grammar here and then converted by
/// fairlaw::ParseInt64 / fairlaw::ParseDouble (std::from_chars
/// underneath), so no locale or banned C parsing function is involved.
class JsonParser {
 public:
  JsonParser(std::string_view text, JsonValue::Document* doc)
      : text_(text), doc_(doc) {}

  Result<JsonValue> ParseDocument() {
    // Node indices and arena offsets are 32-bit; every node and string
    // byte takes at least one input byte, so the input size bounds both.
    if (text_.size() >= std::numeric_limits<uint32_t>::max()) {
      return Status::Invalid("json: document larger than 4 GiB");
    }
    // Unescaping never grows a string, so the arena never reallocates.
    // Request events take about one node per 8-12 input bytes; sizing
    // the node and index vectors up front spares the regrowth copies,
    // which were half the parse time of a 1000-event line. The guess
    // is capped so a huge line does not reserve 7x its size up front.
    doc_->arena.reserve(text_.size());
    const size_t nodes = std::min(text_.size() / 8 + 1, kMaxReservedNodes);
    doc_->nodes.reserve(nodes);
    doc_->children.reserve(nodes);
    SkipSpace();
    uint32_t root = 0;
    FAIRLAW_RETURN_NOT_OK(ParseValue(/*depth=*/0, &root));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::Invalid("json: trailing content at offset " +
                             std::to_string(pos_));
    }
    // The root is no container's child, so its node can give up its
    // fields to the value Parse hands out.
    return std::move(doc_->nodes[root]);
  }

 private:
  // Request documents are shallow; a depth cap turns pathological
  // nesting into an error instead of a stack overflow.
  static constexpr int kMaxDepth = 32;
  // Enough for a line of ~6000 events.
  static constexpr size_t kMaxReservedNodes = size_t{1} << 16;

  /// Appends a node of `kind` and returns its index.
  uint32_t NewNode(JsonValue::Kind kind) {
    const auto index = static_cast<uint32_t>(doc_->nodes.size());
    JsonValue& node = doc_->nodes.emplace_back();
    node.kind_ = kind;
    node.doc_ = doc_;
    return index;
  }

  JsonValue& Node(uint32_t index) { return doc_->nodes[index]; }

  /// Moves the children collected since `mark` into the shared index
  /// vector as the run of container `index`.
  void CloseContainer(uint32_t index, size_t mark) {
    JsonValue& node = Node(index);
    node.begin_ = static_cast<uint32_t>(doc_->children.size());
    node.count_ = static_cast<uint32_t>(pending_.size() - mark);
    doc_->children.insert(doc_->children.end(),
                          pending_.begin() + static_cast<ptrdiff_t>(mark),
                          pending_.end());
    pending_.resize(mark);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Status ParseValue(int depth, uint32_t* out) {
    if (depth > kMaxDepth) {
      return Status::Invalid("json: nesting deeper than " +
                             std::to_string(kMaxDepth));
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::Invalid("json: unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth, out);
    if (c == '[') return ParseArray(depth, out);
    if (c == '"') {
      *out = NewNode(JsonValue::Kind::kString);
      uint32_t begin = 0;
      uint32_t size = 0;
      FAIRLAW_RETURN_NOT_OK(ParseString(&begin, &size));
      Node(*out).begin_ = begin;
      Node(*out).count_ = size;
      return Status::OK();
    }
    if (c == 't' || c == 'f') {
      bool value = false;
      if (ConsumeWord("true")) {
        value = true;
      } else if (!ConsumeWord("false")) {
        return Status::Invalid("json: bad literal at offset " +
                               std::to_string(pos_));
      }
      *out = NewNode(JsonValue::Kind::kBool);
      Node(*out).bool_ = value;
      return Status::OK();
    }
    if (c == 'n') {
      if (ConsumeWord("null")) {
        *out = NewNode(JsonValue::Kind::kNull);
        return Status::OK();
      }
      return Status::Invalid("json: bad literal at offset " +
                             std::to_string(pos_));
    }
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Status::Invalid("json: unexpected character '" +
                           std::string(1, c) + "' at offset " +
                           std::to_string(pos_));
  }

  Status ParseObject(int depth, uint32_t* out) {
    *out = NewNode(JsonValue::Kind::kObject);
    const size_t mark = pending_.size();
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) {
      CloseContainer(*out, mark);
      return Status::OK();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::Invalid("json: expected object key at offset " +
                               std::to_string(pos_));
      }
      uint32_t key_begin = 0;
      uint32_t key_size = 0;
      FAIRLAW_RETURN_NOT_OK(ParseString(&key_begin, &key_size));
      SkipSpace();
      if (!Consume(':')) {
        return Status::Invalid("json: expected ':' at offset " +
                               std::to_string(pos_));
      }
      uint32_t member = 0;
      FAIRLAW_RETURN_NOT_OK(ParseValue(depth + 1, &member));
      // Duplicate keys all stay; lookups scan from the back, so the
      // last one wins, matching common parsers. The request validators
      // never rely on duplicates.
      Node(member).key_begin_ = key_begin;
      Node(member).key_size_ = key_size;
      pending_.push_back(member);
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) {
        CloseContainer(*out, mark);
        return Status::OK();
      }
      return Status::Invalid("json: expected ',' or '}' at offset " +
                             std::to_string(pos_));
    }
  }

  Status ParseArray(int depth, uint32_t* out) {
    *out = NewNode(JsonValue::Kind::kArray);
    const size_t mark = pending_.size();
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) {
      CloseContainer(*out, mark);
      return Status::OK();
    }
    while (true) {
      uint32_t element = 0;
      FAIRLAW_RETURN_NOT_OK(ParseValue(depth + 1, &element));
      pending_.push_back(element);
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) {
        CloseContainer(*out, mark);
        return Status::OK();
      }
      return Status::Invalid("json: expected ',' or ']' at offset " +
                             std::to_string(pos_));
    }
  }

  /// Unescapes the string token at pos_ onto the arena and returns its
  /// range there.
  Status ParseString(uint32_t* begin, uint32_t* size) {
    std::string* out = &doc_->arena;
    *begin = static_cast<uint32_t>(out->size());
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' &&
             text_[end] != '\\' &&
             static_cast<unsigned char>(text_[end]) >= 0x20) {
        ++end;
      }
      out->append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        *size = static_cast<uint32_t>(out->size() - *begin);
        return Status::OK();
      }
      if (c != '\\') {
        return Status::Invalid("json: unescaped control character in string");
      }
      ++pos_;
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_];
      ++pos_;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          FAIRLAW_RETURN_NOT_OK(AppendUnicodeEscape(out));
          break;
        }
        default:
          return Status::Invalid("json: bad escape '\\" +
                                 std::string(1, e) + "'");
      }
    }
    return Status::Invalid("json: unterminated string");
  }

  Status AppendUnicodeEscape(std::string* out) {
    if (pos_ + 4 > text_.size()) {
      return Status::Invalid("json: truncated \\u escape");
    }
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + i];
      uint32_t digit;
      if (h >= '0' && h <= '9') {
        digit = static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Status::Invalid("json: bad \\u escape digit");
      }
      code = code * 16 + digit;
    }
    pos_ += 4;
    if (code >= 0xD800 && code <= 0xDFFF) {
      return Status::Invalid("json: surrogate \\u escapes not supported");
    }
    // UTF-8 encode the BMP code point.
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return Status::OK();
  }

  Status ParseNumber(uint32_t* out) {
    const size_t start = pos_;
    bool integral = true;
    if (Consume('-')) {
    }
    // Integer part: '0' alone or a nonzero digit followed by digits.
    if (Consume('0')) {
    } else if (pos_ < text_.size() && text_[pos_] >= '1' &&
               text_[pos_] <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    } else {
      return Status::Invalid("json: bad number at offset " +
                             std::to_string(start));
    }
    if (Consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Status::Invalid("json: bad number at offset " +
                               std::to_string(start));
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Status::Invalid("json: bad number at offset " +
                               std::to_string(start));
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    // Each token converts once. An integer that fits int64 takes its
    // double from the integer: both conversions round to nearest, so
    // it is the double ParseDouble would give ("-0" keeps its sign).
    // Anything else, including integers beyond int64, is a double only.
    double number = 0.0;
    int64_t integer = 0;
    bool fits_int64 = false;
    if (integral) {
      Result<int64_t> as_int = ParseInt64(token);
      fits_int64 = as_int.ok();
      if (fits_int64) {
        integer = as_int.ValueOrDie();
        number = integer == 0 && token[0] == '-'
                     ? -0.0
                     : static_cast<double>(integer);
      }
    }
    if (!fits_int64) {
      FAIRLAW_ASSIGN_OR_RETURN(number, ParseDouble(token));
    }
    *out = NewNode(JsonValue::Kind::kNumber);
    JsonValue& node = Node(*out);
    node.number_ = number;
    node.integer_ = integer;
    node.number_is_integral_ = fits_int64;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  JsonValue::Document* doc_;
  // Children of the containers still open, innermost last.
  std::vector<uint32_t> pending_;
};

JsonValue::JsonValue(JsonValue&&) noexcept = default;
JsonValue& JsonValue::operator=(JsonValue&&) noexcept = default;
JsonValue::~JsonValue() = default;

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  auto doc = std::make_unique<Document>();
  FAIRLAW_ASSIGN_OR_RETURN(JsonValue root,
                           JsonParser(text, doc.get()).ParseDocument());
  root.owned_ = std::move(doc);
  return root;
}

std::string_view JsonValue::Text(uint32_t begin, uint32_t size) const {
  return std::string_view(doc_->arena).substr(begin, size);
}

Result<bool> JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) return Status::Invalid("json: expected bool");
  return bool_;
}

Result<double> JsonValue::AsDouble() const {
  if (kind_ != Kind::kNumber) return Status::Invalid("json: expected number");
  return number_;
}

Result<int64_t> JsonValue::AsInt64() const {
  if (kind_ != Kind::kNumber || !number_is_integral_) {
    return Status::Invalid("json: expected integer");
  }
  return integer_;
}

Result<std::string> JsonValue::AsString() const {
  if (kind_ != Kind::kString) return Status::Invalid("json: expected string");
  return std::string(Text(begin_, count_));
}

Result<const JsonValue*> JsonValue::Get(std::string_view key) const {
  if (kind_ != Kind::kObject) return Status::Invalid("json: expected object");
  const JsonValue* member = GetOrNull(key);
  if (member == nullptr) {
    return Status::NotFound("json: missing field '" + std::string(key) + "'");
  }
  return member;
}

const JsonValue* JsonValue::GetOrNull(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  // From the back: the last of duplicate keys wins.
  for (uint32_t i = count_; i > 0; --i) {
    const JsonValue& member = doc_->nodes[doc_->children[begin_ + i - 1]];
    if (member.key_size_ == key.size() &&
        member.Text(member.key_begin_, member.key_size_) == key) {
      return &member;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::at(size_t index) const {
  return doc_->nodes[doc_->children[begin_ + index]];
}

}  // namespace fairlaw::serve
