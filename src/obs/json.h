// Minimal JSON reader used by the observability layer's tests and tools
// to validate its own output (the Chrome trace export, the registry's
// JSON snapshot) without an external dependency.
//
// Supports the full JSON value grammar (objects, arrays, strings with
// \uXXXX escapes, numbers, booleans, null). Not a streaming parser;
// documents are parsed into an owned tree.

#ifndef VIZQUERY_OBS_JSON_H_
#define VIZQUERY_OBS_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace vizq::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  // Object member lookup; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses `text` as a single JSON document (trailing whitespace allowed,
// trailing garbage is an error). kInvalidArgument with a position-bearing
// message on malformed input.
StatusOr<JsonValue> ParseJson(const std::string& text);

// Structural validation of a Chrome trace-event document as produced by
// obs::RequestsToChromeTrace and accepted by chrome://tracing /
// Perfetto: top-level object with a "traceEvents" array; every event has
// string "name"/"ph", numeric "ts"/"pid"/"tid", duration events (ph "X")
// additionally a numeric non-negative "dur". Returns the number of events
// via `num_events` (optional). kInvalidArgument with a description of the
// first offending event otherwise.
Status ValidateChromeTrace(const std::string& json, int* num_events = nullptr);

}  // namespace vizq::obs

#endif  // VIZQUERY_OBS_JSON_H_
