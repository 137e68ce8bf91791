#pragma once
// Minimal JSON for the service protocol: a small recursive value type with
// a strict parser and a canonical writer. The daemon decodes untrusted
// bytes with it, so the parser is deliberately paranoid: depth-limited
// (kMaxDepth), rejects trailing garbage, and never recurses on input it
// has not already bounds-checked. Only what the wire format needs is
// supported — objects, arrays, strings (with \uXXXX escapes), 64-bit
// integers, doubles, booleans, null. Object member order is preserved
// (insertion order), which keeps dumped frames stable for tests.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace patty::service::json {

class Value {
 public:
  enum class Kind : std::uint8_t {
    Null,
    Bool,
    Int,
    Double,
    String,
    Array,
    Object,
  };

  /// Parser recursion bound: deeper input is a parse error, not a stack
  /// overflow.
  static constexpr int kMaxDepth = 64;

  using Array = std::vector<Value>;
  using Member = std::pair<std::string, Value>;
  using Object = std::vector<Member>;

  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : kind_(Kind::Bool), bool_(b) {}  // NOLINT
  Value(int v) : kind_(Kind::Int), int_(v) {}     // NOLINT
  Value(std::int64_t v) : kind_(Kind::Int), int_(v) {}   // NOLINT
  Value(std::uint64_t v)  // NOLINT (covers std::size_t on LP64)
      : kind_(Kind::Int), int_(static_cast<std::int64_t>(v)) {}
  Value(double v) : kind_(Kind::Double), double_(v) {}   // NOLINT
  Value(const char* s) : kind_(Kind::String), string_(s) {}  // NOLINT
  Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}  // NOLINT
  Value(Array a) : kind_(Kind::Array), array_(std::move(a)) {}    // NOLINT
  Value(Object o) : kind_(Kind::Object), object_(std::move(o)) {} // NOLINT

  static Value array() { return Value(Array{}); }
  static Value object() { return Value(Object{}); }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::Int || kind_ == Kind::Double;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  /// Typed reads with defaults: a missing or differently-typed value reads
  /// as `fallback`, so decoding tolerates absent optional fields.
  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return kind_ == Kind::Bool ? bool_ : fallback;
  }
  /// A double truncates toward zero; one outside the int64 range, where
  /// the cast is undefined, reads as `fallback`.
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const {
    if (kind_ == Kind::Int) return int_;
    if (kind_ == Kind::Double && double_ >= -0x1p63 && double_ < 0x1p63)
      return static_cast<std::int64_t>(double_);
    return fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    if (kind_ == Kind::Double) return double_;
    if (kind_ == Kind::Int) return static_cast<double>(int_);
    return fallback;
  }
  [[nodiscard]] std::string as_string(std::string fallback = {}) const {
    return kind_ == Kind::String ? string_ : std::move(fallback);
  }

  [[nodiscard]] const Array& items() const { return array_; }
  [[nodiscard]] const Object& members() const { return object_; }

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// find() that decays to a Null value, so lookups chain:
  /// `v.at("error").at("code").as_string()`.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Object insert-or-replace (makes this an object if it was null).
  void set(std::string key, Value value);
  /// Array append (makes this an array if it was null).
  void push_back(Value value);

  /// Canonical single-line rendering.
  [[nodiscard]] std::string dump() const;

  /// Strict parse of a complete document. On failure returns nullopt and
  /// sets *error (when given) to a one-line reason with a byte offset.
  static std::optional<Value> parse(std::string_view text,
                                    std::string* error = nullptr);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// JSON string escaping of `raw` (quotes included).
std::string quote(std::string_view raw);

}  // namespace patty::service::json
