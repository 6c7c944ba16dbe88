// Minimal JSON document model and recursive-descent parser.
//
// The telemetry exporters (src/obs/export.h) emit JSON; vafs_top loads
// those snapshots back, and the exporter tests validate structure by
// round-tripping through this parser. It handles the full value grammar
// (objects, arrays, strings with escapes, numbers, booleans, null) but is
// deliberately small: no streaming, no comments, documents live in memory.
// Nesting is bounded (kMaxJsonDepth), so hostile input returns an error
// status instead of overflowing the parser's stack.

#ifndef VAFS_SRC_OBS_JSON_H_
#define VAFS_SRC_OBS_JSON_H_

#include <map>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace vafs {
namespace obs {

// Deepest object/array nesting JsonValue::Parse accepts. Every document the
// exporters write nests only a few levels.
inline constexpr int kMaxJsonDepth = 256;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  static Result<JsonValue> Parse(const std::string& text);

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  // Convenience accessors with defaults.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key, const std::string& fallback) const;
};

}  // namespace obs
}  // namespace vafs

#endif  // VAFS_SRC_OBS_JSON_H_
