#ifndef FAIRLAW_BASE_JSON_WRITER_H_
#define FAIRLAW_BASE_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace fairlaw {

/// Minimal streaming JSON writer (objects, arrays, strings, numbers,
/// booleans). Used to export audit artifacts in a machine-readable form
/// so compliance pipelines can archive and diff them. It lives in base
/// (rank 0) because every report-emitting layer — audit's versioned
/// report envelope, the serve daemon's responses, core's suite export —
/// writes JSON; the serve request *parser* lives with the serve module,
/// since only the daemon consumes JSON.
class JsonWriter {
 public:
  /// Structural tokens. Misnested calls abort via FAIRLAW_CHECK — the
  /// writer is driven by library code, not user input.
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Keys inside objects; values everywhere a value is legal.
  void Key(const std::string& key);
  void String(const std::string& value);
  void Number(double value);
  void Int(int64_t value);
  void Bool(bool value);

  /// Shorthand: Key(key) + value.
  void Field(const std::string& key, const std::string& value);
  void Field(const std::string& key, double value);
  void Field(const std::string& key, int64_t value);
  void Field(const std::string& key, bool value);

  /// Returns the document; fails unless all containers are closed.
  FAIRLAW_NODISCARD Result<std::string> Finish();

 private:
  enum class Scope { kObject, kArray };
  void Separate();

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<uint8_t> has_items_;  // 0/1 per open scope
  bool expecting_value_ = false;  // a Key was just written
};

/// Escapes a string for inclusion in a JSON document (quotes, control
/// characters, backslashes).
std::string JsonEscape(std::string_view text);

}  // namespace fairlaw

#endif  // FAIRLAW_BASE_JSON_WRITER_H_
