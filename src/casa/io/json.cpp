#include "casa/io/json.hpp"

#include <cctype>
#include <charconv>
#include <system_error>

#include "casa/support/error.hpp"

namespace casa::io {

std::uint64_t to_u64(const std::string& s) {
  // from_chars into an unsigned type takes digits only (no sign, space or
  // prefix) and reports overflow instead of wrapping; the whole string must
  // be consumed.
  std::uint64_t v = 0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw PreconditionError("serialized data: expected integer, got: " + s);
  }
  return v;
}

double to_double(const std::string& s) {
  try {
    return std::stod(s);
  } catch (const std::exception&) {
    throw PreconditionError("serialized data: expected number, got: " + s);
  }
}

JsonValue JsonReader::parse() {
  JsonValue v = value();
  skip_ws();
  CASA_CHECK(pos_ == text_.size(), "metrics json: trailing data");
  return v;
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

char JsonReader::peek() {
  skip_ws();
  CASA_CHECK(pos_ < text_.size(), "metrics json: unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  CASA_CHECK(peek() == c, std::string("metrics json: expected '") + c +
                              "' at offset " + std::to_string(pos_));
  ++pos_;
}

JsonValue JsonReader::value() {
  const char c = peek();
  if (c == '{' || c == '[') {
    CASA_CHECK(depth_ < kMaxDepth,
               "metrics json: nesting deeper than " +
                   std::to_string(kMaxDepth) + " levels at offset " +
                   std::to_string(pos_));
    ++depth_;
    JsonValue v = c == '{' ? object() : array();
    --depth_;
    return v;
  }
  if (c == '"') {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.str = string();
    return v;
  }
  return number();
}

JsonValue JsonReader::object() {
  expect('{');
  JsonValue v;
  v.kind = JsonValue::Kind::kObject;
  if (peek() == '}') {
    ++pos_;
    return v;
  }
  for (;;) {
    std::string key = string();
    expect(':');
    v.members.emplace_back(std::move(key), value());
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect('}');
    return v;
  }
}

JsonValue JsonReader::array() {
  expect('[');
  JsonValue v;
  v.kind = JsonValue::Kind::kArray;
  if (peek() == ']') {
    ++pos_;
    return v;
  }
  for (;;) {
    v.items.push_back(value());
    if (peek() == ',') {
      ++pos_;
      continue;
    }
    expect(']');
    return v;
  }
}

std::string JsonReader::string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\') {
      CASA_CHECK(pos_ < text_.size(), "metrics json: unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'u': {
          CASA_CHECK(pos_ + 4 <= text_.size(),
                     "metrics json: truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          c = static_cast<char>(std::stoul(hex, nullptr, 16));
          break;
        }
        default:
          CASA_CHECK(false, std::string("metrics json: bad escape \\") + e);
      }
    }
    out += c;
  }
  expect('"');
  return out;
}

JsonValue JsonReader::number() {
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
  }
  CASA_CHECK(pos_ > start, "metrics json: expected a value at offset " +
                               std::to_string(start));
  JsonValue v;
  v.kind = JsonValue::Kind::kNumber;
  v.str = text_.substr(start, pos_ - start);
  return v;
}

const JsonValue& member(const JsonValue& obj, const std::string& key) {
  CASA_CHECK(obj.kind == JsonValue::Kind::kObject,
             "metrics json: expected an object around '" + key + "'");
  const JsonValue* v = obj.find(key);
  CASA_CHECK(v != nullptr, "metrics json: missing key '" + key + "'");
  return *v;
}

double num(const JsonValue& v, const std::string& what) {
  CASA_CHECK(v.kind == JsonValue::Kind::kNumber,
             "metrics json: '" + what + "' must be a number");
  return to_double(v.str);
}

}  // namespace casa::io
