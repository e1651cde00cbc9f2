#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace amdrel::util {

namespace {

// 2^63 and 2^64 as doubles: a double d converts to int64 without
// overflow iff -2^63 <= d < 2^63, and to uint64 iff 0 <= d < 2^64.
constexpr double kTwo63 = 9223372036854775808.0;
constexpr double kTwo64 = 18446744073709551616.0;

bool fits_int64(double v) { return v >= -kTwo63 && v < kTwo63; }

bool is_integral(double v) { return std::isfinite(v) && std::trunc(v) == v; }

std::string escape_string(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

template <typename T>
void append_chars(T v, std::string* out) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

}  // namespace

class Json::Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error(strprintf("JSON parse error at byte %zu: %s", i_,
                          why.c_str()));
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  char peek() {
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  bool consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(strprintf("expected '%c'", c));
  }

  void expect_word(const char* w) {
    for (const char* p = w; *p != '\0'; ++p) {
      if (i_ >= s_.size() || s_[i_] != *p) fail("invalid literal");
      ++i_;
    }
  }

  Json parse_value() {
    skip_ws();
    if (depth_ > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json::make_string(parse_string());
      case 't': expect_word("true"); return Json::make_bool(true);
      case 'f': expect_word("false"); return Json::make_bool(false);
      case 'n': expect_word("null"); return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    ++depth_;
    expect('{');
    Json obj = Json::make_object();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      break;
    }
    --depth_;
    return obj;
  }

  Json parse_array() {
    ++depth_;
    expect('[');
    Json arr = Json::make_array();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      break;
    }
    --depth_;
    return arr;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(parse_hex4(), &out); break;
        default: fail("unknown escape");
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      if (i_ >= s_.size()) fail("truncated \\u escape");
      const char c = s_[i_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  void append_utf8(unsigned cp, std::string* out) {
    // Surrogate pairs: a high surrogate must be followed by \uDC00-DFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (i_ + 1 < s_.size() && s_[i_] == '\\' && s_[i_ + 1] == 'u') {
        i_ += 2;
        const unsigned lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json parse_number() {
    const char* start = s_.c_str() + i_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start || !std::isfinite(v)) fail("invalid number");
    i_ += static_cast<std::size_t>(end - start);
    // An integer literal that fits int64 or uint64 is kept exactly.
    std::int64_t i = 0;
    if (whole(std::from_chars(start, end, i), end)) return exact(i);
    std::uint64_t u = 0;
    if (whole(std::from_chars(start, end, u), end)) return exact(u);
    return Json::make_number(v);
  }

  /// True when `r` read an in-range integer ending exactly at `end`.
  static bool whole(std::from_chars_result r, const char* end) {
    return r.ec == std::errc() && r.ptr == end;
  }

  static constexpr int kMaxDepth = 64;
  const std::string& s_;
  std::size_t i_ = 0;
  int depth_ = 0;
};

Json Json::make_bool(bool b) {
  Json v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Json Json::make_number(double n) {
  Json v;
  v.type_ = Type::kNumber;
  v.num_ = n;
  return v;
}

Json Json::make_string(std::string s) {
  Json v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

Json Json::make_array() {
  Json v;
  v.type_ = Type::kArray;
  return v;
}

Json Json::make_object() {
  Json v;
  v.type_ = Type::kObject;
  return v;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw Error("JSON: expected a boolean");
  return bool_;
}

Json Json::exact(std::int64_t v) {
  Json j = make_number(static_cast<double>(v));
  j.exact_ = Exact::kInt;
  j.int_ = v;
  return j;
}

Json Json::exact(std::uint64_t v) {
  if (v <= static_cast<std::uint64_t>(INT64_MAX)) {
    return exact(static_cast<std::int64_t>(v));
  }
  Json j = make_number(static_cast<double>(v));
  j.exact_ = Exact::kUint;
  j.uint_ = v;
  return j;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) throw Error("JSON: expected a number");
  return num_;
}

std::int64_t Json::as_int() const {
  const double v = as_number();
  if (exact_ == Exact::kInt) return int_;
  if (exact_ == Exact::kNo && is_integral(v) && fits_int64(v)) {
    return static_cast<std::int64_t>(v);
  }
  throw Error("JSON: expected a 64-bit integer, got " + dump());
}

std::uint64_t Json::as_u64() const {
  const double v = as_number();
  if (exact_ == Exact::kUint) return uint_;
  if (exact_ == Exact::kInt && int_ >= 0) {
    return static_cast<std::uint64_t>(int_);
  }
  if (exact_ == Exact::kNo && is_integral(v) && v >= 0.0 && v < kTwo64) {
    return static_cast<std::uint64_t>(v);
  }
  throw Error("JSON: expected a non-negative 64-bit integer, got " + dump());
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw Error("JSON: expected a string");
  return str_;
}

const std::vector<Json>& Json::as_array() const {
  if (type_ != Type::kArray) throw Error("JSON: expected an array");
  return arr_;
}

const Json* Json::get(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = get(key);
  if (v == nullptr) throw Error("JSON: missing field '" + key + "'");
  return *v;
}

const std::vector<std::string>& Json::keys() const {
  static const std::vector<std::string> kEmpty;
  return type_ == Type::kObject ? obj_keys_ : kEmpty;
}

void Json::push_back(Json v) {
  if (type_ != Type::kArray) throw Error("JSON: push_back on a non-array");
  arr_.push_back(std::move(v));
}

void Json::set(const std::string& key, Json v) {
  if (type_ != Type::kObject) throw Error("JSON: set on a non-object");
  const auto it = obj_.find(key);
  if (it == obj_.end()) obj_keys_.push_back(key);
  obj_[key] = std::move(v);
}

void Json::dump_to(std::string* out) const {
  switch (type_) {
    case Type::kNull: *out += "null"; return;
    case Type::kBool: *out += bool_ ? "true" : "false"; return;
    case Type::kNumber:
      // Integers (the common case: ids, counts, sizes, seeds) print
      // exactly; other doubles in their shortest round-trip form.
      if (exact_ == Exact::kInt) {
        append_chars(int_, out);
      } else if (exact_ == Exact::kUint) {
        append_chars(uint_, out);
      } else if (is_integral(num_) && fits_int64(num_)) {
        append_chars(static_cast<std::int64_t>(num_), out);
      } else if (std::isfinite(num_)) {
        append_chars(num_, out);
      } else {
        *out += "null";  // JSON has no NaN or infinity
      }
      return;
    case Type::kString:
      *out += '"';
      *out += escape_string(str_);
      *out += '"';
      return;
    case Type::kArray: {
      *out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) *out += ',';
        arr_[i].dump_to(out);
      }
      *out += ']';
      return;
    }
    case Type::kObject: {
      *out += '{';
      for (std::size_t i = 0; i < obj_keys_.size(); ++i) {
        if (i > 0) *out += ',';
        *out += '"';
        *out += escape_string(obj_keys_[i]);
        *out += "\":";
        obj_.at(obj_keys_[i]).dump_to(out);
      }
      *out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

Json parse_json(const std::string& text) {
  return Json::Parser(text).parse_document();
}

}  // namespace amdrel::util
