#include "base/json_writer.h"

#include <cmath>
#include <cstdio>

#include "base/check.h"

namespace fairlaw {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (!stack_.empty() && !expecting_value_) {
    if (has_items_.back()) out_ += ',';
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
  expecting_value_ = false;
}

void JsonWriter::EndObject() {
  FAIRLAW_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                    "EndObject() without a matching BeginObject()");
  FAIRLAW_CHECK_MSG(!expecting_value_,
                    "EndObject() called while a key awaits its value");
  out_ += '}';
  stack_.pop_back();
  has_items_.pop_back();
  if (!has_items_.empty()) has_items_.back() = true;
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
  expecting_value_ = false;
}

void JsonWriter::EndArray() {
  FAIRLAW_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kArray,
                    "EndArray() without a matching BeginArray()");
  out_ += ']';
  stack_.pop_back();
  has_items_.pop_back();
  if (!has_items_.empty()) has_items_.back() = true;
}

void JsonWriter::Key(const std::string& key) {
  FAIRLAW_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                    "Key() called outside an open object");
  FAIRLAW_CHECK_MSG(!expecting_value_, "Key() called while a value is due");
  if (has_items_.back()) out_ += ',';
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  expecting_value_ = true;
}

void JsonWriter::String(const std::string& value) {
  Separate();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  if (!has_items_.empty()) has_items_.back() = true;
  expecting_value_ = false;
}

void JsonWriter::Number(double value) {
  Separate();
  if (std::isfinite(value)) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    out_ += buffer;
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  if (!has_items_.empty()) has_items_.back() = true;
  expecting_value_ = false;
}

void JsonWriter::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  if (!has_items_.empty()) has_items_.back() = true;
  expecting_value_ = false;
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  if (!has_items_.empty()) has_items_.back() = true;
  expecting_value_ = false;
}

void JsonWriter::Field(const std::string& key, const std::string& value) {
  Key(key);
  String(value);
}
void JsonWriter::Field(const std::string& key, double value) {
  Key(key);
  Number(value);
}
void JsonWriter::Field(const std::string& key, int64_t value) {
  Key(key);
  Int(value);
}
void JsonWriter::Field(const std::string& key, bool value) {
  Key(key);
  Bool(value);
}

Result<std::string> JsonWriter::Finish() {
  if (!stack_.empty()) {
    return Status::FailedPrecondition("JsonWriter: " +
                                      std::to_string(stack_.size()) +
                                      " unclosed containers");
  }
  return out_;
}

}  // namespace fairlaw
