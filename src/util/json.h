// The one JSON module: the value type and parser that read serve requests,
// and the streaming writer that every document grgad emits goes through —
// serve replies, the daemon's `stats` and --metrics-out snapshot,
// `grgad run/rescore --json` and micro_benchmarks' micro.json.
//
// One number rule for all of them: a finite double is written with 17
// significant digits (FormatExactDouble, an exact IEEE-754 round trip, the
// same precision as the artifact store), a non-finite one as null. One
// separator rule: ", " between members and elements, ": " after a key.
#ifndef GRGAD_UTIL_JSON_H_
#define GRGAD_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace grgad {

/// A parsed JSON value. Object members keep insertion order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// kString: the decoded text. kNumber: the literal as written, which
  /// JsonInt64 reads exactly (`number` is its nearest double).
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The named object member, or nullptr (also for non-objects).
  const JsonValue* Find(const std::string& key) const;
};

/// Parses one complete JSON document (trailing garbage is an error).
/// InvalidArgument with position info on malformed input.
Result<JsonValue> ParseJsonText(const std::string& text);

/// Escapes `s` for embedding inside a JSON string literal (no quotes).
std::string JsonEscapeText(std::string_view s);

/// The integer an integer literal (`17`, `-3`; not `17.0` or `1e3`) names,
/// when it lies in [lo, hi]; false for any other value. Exact at every
/// magnitude: the literal is read as an integer, never through a double.
bool JsonInt64(const JsonValue& v, int64_t lo, int64_t hi, int64_t* out);

/// Streaming writer. Each call appends one token and returns the writer:
///   JsonWriter().Object().Key("id").Int(7).Key("ok").Bool(true).End()
///       .Take()  ==  {"id": 7, "ok": true}
/// Keys and strings are escaped with JsonEscapeText; doubles follow the
/// module's number rule. The caller keeps the structure well formed (a
/// Key before every object member, one End per Object/Array).
class JsonWriter {
 public:
  JsonWriter& Object();
  JsonWriter& Array();
  /// Closes the innermost open object or array.
  JsonWriter& End();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Num(double v);
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  JsonWriter& Int(T v) {
    return Raw(std::to_string(v));
  }
  JsonWriter& Bool(bool v);
  JsonWriter& Str(std::string_view s);
  /// A value that is already JSON text (e.g. TopGroupsJson's array).
  JsonWriter& Raw(std::string_view json);
  /// The document written so far; the writer is left empty.
  std::string Take();

 private:
  /// Writes ", " unless the next token opens a container's first entry or
  /// is a member's value.
  void Separate();

  std::string out_;
  std::string closers_;  ///< One '}' or ']' per open container.
  bool first_ = true;    ///< The next token needs no separator.
};

}  // namespace grgad

#endif  // GRGAD_UTIL_JSON_H_
