// Minimal JSON machinery shared by the io readers (casa-metrics,
// casa-trace, casa-result). One parser, one error style, one exact-number
// convention: numbers keep their raw token so integer counters round-trip
// exactly even past 2^53, and doubles written with obs::format_double
// restore bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace casa::io {

/// Strict unsigned parse: one or more ASCII digits whose value fits in 64
/// bits. Signs, whitespace, trailing junk and overflow all throw
/// PreconditionError.
std::uint64_t to_u64(const std::string& s);

/// Strict floating parse; throws PreconditionError on anything else.
double to_double(const std::string& s);

/// Minimal JSON value for the artifact subset (objects, arrays, strings,
/// numbers). Numbers keep their raw token so integer counters round-trip
/// exactly even past 2^53.
struct JsonValue {
  enum class Kind { kString, kNumber, kObject, kArray };
  Kind kind = Kind::kString;
  std::string str;  ///< string payload, or the raw number token
  std::vector<std::pair<std::string, JsonValue>> members;  ///< objects
  std::vector<JsonValue> items;                            ///< arrays

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Recursive-descent parser for exactly what the obs/io writers emit.
/// Not a general JSON reader: no booleans, no null, no nested escapes
/// beyond what obs::json_escape produces. Errors keep the historical
/// "metrics json:" prefix the artifact readers have always thrown.
/// Objects and arrays nest at most kMaxDepth deep (the artifacts and the
/// serve protocol use fewer than ten levels), so hostile input deep enough
/// to exhaust the stack is rejected with PreconditionError instead.
class JsonReader {
 public:
  static constexpr std::size_t kMaxDepth = 64;

  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  JsonValue parse();

 private:
  void skip_ws();
  char peek();
  void expect(char c);
  JsonValue value();
  JsonValue object();
  JsonValue array();
  std::string string();
  JsonValue number();

  std::string text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< objects/arrays open around pos_
};

/// Object member access with a uniform missing-key error.
const JsonValue& member(const JsonValue& obj, const std::string& key);

/// Number coercion with a uniform wrong-kind error naming the field.
double num(const JsonValue& v, const std::string& what);

}  // namespace casa::io
