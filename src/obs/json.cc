#include "src/obs/json.h"

#include <cctype>
#include <cstdlib>

namespace vafs {
namespace obs {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    Result<JsonValue> value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status(ErrorCode::kInvalidArgument,
                  "JSON parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of document");
    }
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // The parser recurses once per object or array level, so a hostile
        // run of '[' would otherwise exhaust the stack.
        if (depth_ == kMaxJsonDepth) {
          return Error("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        ++depth_;
        Result<JsonValue> nested = text_[pos_] == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // consume '{'
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    if (Consume('}')) {
      return value;
    }
    while (true) {
      SkipWhitespace();
      Result<JsonValue> key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      Result<JsonValue> member = ParseValue();
      if (!member.ok()) {
        return member;
      }
      value.object[key->string] = std::move(*member);
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return value;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // consume '['
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    if (Consume(']')) {
      return value;
    }
    while (true) {
      Result<JsonValue> element = ParseValue();
      if (!element.ok()) {
        return element;
      }
      value.array.push_back(std::move(*element));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return value;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return value;
      }
      if (c != '\\') {
        value.string.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          value.string.push_back(escape);
          break;
        case 'b':
          value.string.push_back('\b');
          break;
        case 'f':
          value.string.push_back('\f');
          break;
        case 'n':
          value.string.push_back('\n');
          break;
        case 'r':
          value.string.push_back('\r');
          break;
        case 't':
          value.string.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) {
            return Error("malformed \\u escape");
          }
          // Encode the (basic multilingual plane) code point as UTF-8.
          if (code < 0x80) {
            value.string.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            value.string.push_back(static_cast<char>(0xC0 | (code >> 6)));
            value.string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            value.string.push_back(static_cast<char>(0xE0 | (code >> 12)));
            value.string.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            value.string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return Error("expected boolean");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return Error("expected null");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("malformed number '" + token + "'");
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = number;
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // objects and arrays open around pos_
};

}  // namespace

Result<JsonValue> JsonValue::Parse(const std::string& text) { return Parser(text).Parse(); }

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  auto it = object.find(key);
  return it != object.end() ? &it->second : nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* member = Find(key);
  return member != nullptr && member->type == Type::kNumber ? member->number : fallback;
}

std::string JsonValue::StringOr(const std::string& key, const std::string& fallback) const {
  const JsonValue* member = Find(key);
  return member != nullptr && member->type == Type::kString ? member->string : fallback;
}

}  // namespace obs
}  // namespace vafs
