// Minimal read-side JSON: a recursive-descent parser into a tagged value.
//
// The repo's telemetry stack only ever *wrote* JSON (obs/json.h); the ctl
// plane adds the first consumers — sora_top parsing /statusz and the tests
// parsing exported documents — so this is the matching reader. Scope is
// exactly RFC 8259 minus fancy number formats: objects, arrays, strings
// (with \uXXXX decoded as Latin-1/UTF-8 passthrough), doubles, bools, null.
// No external dependency.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sora::ctl {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }

  bool as_bool(bool fallback = false) const {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return kind_ == Kind::kNumber ? number_ : fallback;
  }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& as_array() const { return array_; }

  /// Object member lookup; a shared null value when absent or not an object.
  const JsonValue& operator[](const std::string& key) const;
  bool has(const std::string& key) const {
    return kind_ == Kind::kObject && object_.count(key) > 0;
  }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parse one JSON document. Returns false (and leaves *out null) on any
/// syntax error; trailing whitespace is allowed, trailing garbage is not.
bool parse_json(std::string_view text, JsonValue* out);

}  // namespace sora::ctl
