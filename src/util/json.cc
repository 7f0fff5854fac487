#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/atomic_io.h"

namespace grgad {
namespace {

constexpr int kMaxDepth = 32;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    GRGAD_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters after value");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f': return ParseLiteral(out);
      case 'n': return ParseLiteral(out);
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      GRGAD_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      GRGAD_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue value;
      GRGAD_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseLiteral(JsonValue* out) {
    auto matches = [&](const char* word) {
      const size_t len = std::char_traits<char>::length(word);
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    if (matches("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Status::Ok();
    }
    if (matches("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Status::Ok();
    }
    if (matches("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::Ok();
    }
    return Error("unknown literal");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    out->string = token;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    out->clear();
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("malformed \\u escape");
          }
          // BMP code points only (surrogate pairs are out of scope for this
          // wire format — keys and values here are ASCII in practice).
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
          break;
        }
        default: return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<JsonValue> ParseJsonText(const std::string& text) {
  return JsonParser(text).Parse();
}

std::string JsonEscapeText(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonInt64(const JsonValue& v, int64_t lo, int64_t hi, int64_t* out) {
  if (v.kind != JsonValue::Kind::kNumber) return false;
  const char* begin = v.string.data();
  const char* end = begin + v.string.size();
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

void JsonWriter::Separate() {
  if (!first_) out_ += ", ";
  first_ = false;
}

JsonWriter& JsonWriter::Object() {
  Separate();
  out_ += '{';
  closers_ += '}';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::Array() {
  Separate();
  out_ += '[';
  closers_ += ']';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::End() {
  out_ += closers_.back();
  closers_.pop_back();
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  out_ += '"';
  out_ += JsonEscapeText(key);
  out_ += "\": ";
  first_ = true;  // The member's value follows without a separator.
  return *this;
}

JsonWriter& JsonWriter::Num(double v) {
  return Raw(std::isfinite(v) ? FormatExactDouble(v) : "null");
}

JsonWriter& JsonWriter::Bool(bool v) { return Raw(v ? "true" : "false"); }

JsonWriter& JsonWriter::Str(std::string_view s) {
  Separate();
  out_ += '"';
  out_ += JsonEscapeText(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
  return *this;
}

std::string JsonWriter::Take() {
  std::string out = std::move(out_);
  out_.clear();
  closers_.clear();
  first_ = true;
  return out;
}

}  // namespace grgad
