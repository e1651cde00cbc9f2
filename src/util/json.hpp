#pragma once
// The framework's one JSON layer: every JSON document the code reads or
// writes — JobSpecs, the amdrel_serve line protocol, trace lines in
// obs/report, metrics snapshots, lint and verify reports, the bench
// drivers' --json captures — goes through this value tree, so escaping,
// number text and key order are decided here once and every output is
// valid JSON by construction. The one exception is obs::JsonlSink, the
// hot-path trace writer, which prints one event per fprintf (its names,
// metric keys and trace ids are code literals or "job-N" tokens that
// need no escaping).
//
// The parser takes inputs the framework does not control — client
// requests arriving over a socket — so it parses arbitrary nesting (up
// to a depth cap), escapes and unicode \uXXXX sequences (encoded as
// UTF-8), and rejects trailing garbage. Integer literals stay exact
// across the int64 and uint64 ranges (a u64 seed survives a round trip);
// every other number is a finite double. No external dependency: the container images this runs in
// carry only the C++ toolchain.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace amdrel::util {

/// One JSON value. Objects keep insertion order for deterministic
/// round-trips (serve replies are diffed byte-for-byte in tests).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  static Json make_bool(bool b);
  static Json make_number(double v);
  static Json make_string(std::string s);
  static Json make_array();
  static Json make_object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Checked accessors: throw Error("expected <type>") on mismatch.
  bool as_bool() const;
  double as_number() const;     ///< any number (big integers rounded)
  std::int64_t as_int() const;  ///< number, checked integral + in range
  std::uint64_t as_u64() const; ///< number, checked integral, >= 0, in range
  const std::string& as_string() const;
  const std::vector<Json>& as_array() const;

  /// Object field access. get() returns nullptr when absent (or when
  /// this value is not an object); at() throws Error naming the key.
  const Json* get(const std::string& key) const;
  const Json& at(const std::string& key) const;
  /// Object keys in insertion order (empty for non-objects).
  const std::vector<std::string>& keys() const;

  // -- construction --
  void push_back(Json v);                     ///< array append
  void set(const std::string& key, Json v);   ///< object insert/replace

  // convenience setters for the common scalar cases
  void set(const std::string& key, bool v) { set(key, make_bool(v)); }
  void set(const std::string& key, double v) { set(key, make_number(v)); }
  void set(const std::string& key, int v) {
    set(key, static_cast<std::int64_t>(v));
  }
  void set(const std::string& key, std::int64_t v) { set(key, exact(v)); }
  void set(const std::string& key, std::uint64_t v) { set(key, exact(v)); }
  void set(const std::string& key, const char* v) {
    set(key, make_string(v));
  }
  void set(const std::string& key, const std::string& v) {
    set(key, make_string(v));
  }

  /// Compact single-line serialization (no spaces). Integers — exact
  /// ones and integral doubles within int64 range — print as integers;
  /// every other double prints in the shortest form that reads back as
  /// the same double (std::to_chars), and a NaN or infinity as null.
  std::string dump() const;

 private:
  class Parser;  // json.cpp
  friend Json parse_json(const std::string& text);

  /// How a number is held: num_ always carries it as a double; an
  /// integer literal or integer set() also keeps the exact value.
  enum class Exact : unsigned char { kNo, kInt, kUint };
  static Json exact(std::int64_t v);
  static Json exact(std::uint64_t v);  ///< kInt when it fits int64

  Type type_ = Type::kNull;
  bool bool_ = false;
  Exact exact_ = Exact::kNo;
  double num_ = 0.0;
  std::int64_t int_ = 0;    ///< the value when exact_ == kInt
  std::uint64_t uint_ = 0;  ///< the value when exact_ == kUint
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::string> obj_keys_;
  std::map<std::string, Json> obj_;
  void dump_to(std::string* out) const;
};

/// Parses one complete JSON document; throws Error (with a byte offset)
/// on malformed input or trailing non-whitespace.
Json parse_json(const std::string& text);

}  // namespace amdrel::util
