#include "src/obs/json.h"

#include <cctype>
#include <cstdlib>

namespace vizq::obs {

// --- JsonValue ---

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

// --- parser ---

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    StatusOr<JsonValue> value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgument("json: " + what + " at offset " +
                           std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  StatusOr<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        StatusOr<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue::MakeString(std::move(*s));
      }
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          return JsonValue::MakeBool(true);
        }
        return Error("invalid literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          return JsonValue::MakeBool(false);
        }
        return Error("invalid literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          return JsonValue::MakeNull();
        }
        return Error("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue::MakeObject(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipWhitespace();
      StatusOr<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      members[std::move(*key)] = std::move(*value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue::MakeObject(std::move(members));
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) return JsonValue::MakeArray(std::move(items));
    while (true) {
      SkipWhitespace();
      StatusOr<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      items.push_back(std::move(*value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue::MakeArray(std::move(items));
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Error("invalid \\u escape");
            }
            // UTF-8 encode the code point (surrogate pairs are passed
            // through as their individual halves — our own output never
            // emits them).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("invalid escape");
        }
        continue;
      }
      out.push_back(c);
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      return Error("malformed number '" + token + "'");
    }
    return JsonValue::MakeNumber(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

// --- Chrome trace validation ---

namespace {

Status BadEvent(size_t index, const std::string& why) {
  return InvalidArgument("chrome trace: event " + std::to_string(index) +
                         " " + why);
}

}  // namespace

Status ValidateChromeTrace(const std::string& json, int* num_events) {
  StatusOr<JsonValue> doc = ParseJson(json);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return InvalidArgument("chrome trace: top level must be an object");
  }
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return InvalidArgument("chrome trace: missing \"traceEvents\" array");
  }
  for (size_t i = 0; i < events->array().size(); ++i) {
    const JsonValue& ev = events->array()[i];
    if (!ev.is_object()) return BadEvent(i, "is not an object");
    const JsonValue* name = ev.Find("name");
    if (name == nullptr || !name->is_string() || name->string().empty()) {
      return BadEvent(i, "lacks a non-empty string \"name\"");
    }
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string().size() != 1) {
      return BadEvent(i, "lacks a one-character string \"ph\"");
    }
    for (const char* field : {"ts", "pid", "tid"}) {
      const JsonValue* v = ev.Find(field);
      if (v == nullptr || !v->is_number()) {
        return BadEvent(i, std::string("lacks a numeric \"") + field + "\"");
      }
    }
    if (ev.Find("ts")->number() < 0) return BadEvent(i, "has negative ts");
    if (ph->string() == "X") {
      const JsonValue* dur = ev.Find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number() < 0) {
        return BadEvent(i, "complete event lacks non-negative \"dur\"");
      }
    }
  }
  if (num_events != nullptr) {
    *num_events = static_cast<int>(events->array().size());
  }
  return OkStatus();
}

}  // namespace vizq::obs
