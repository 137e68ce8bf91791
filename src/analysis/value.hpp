#pragma once
// Runtime values for the MiniOO interpreter. Reference types (objects,
// arrays, lists) have shared identity via shared_ptr; dynamic dependence
// profiling keys their cells by an allocation serial instead (MemLoc).

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "lang/ast.hpp"

namespace patty::analysis {

class Value;

// `serial` is the allocation's identity for dependence profiling (MemLoc):
// stamped by an interpreter that runs with a tracer, 0 otherwise.
struct Object {
  const lang::ClassDecl* cls = nullptr;
  std::vector<Value> fields;
  std::uint64_t serial = 0;
};

struct ArrayVal {
  lang::TypePtr element;
  std::vector<Value> elems;
  std::uint64_t serial = 0;
};

struct ListVal {
  lang::TypePtr element;
  std::vector<Value> elems;
  std::uint64_t serial = 0;
};

using ObjectPtr = std::shared_ptr<Object>;
using ArrayPtr = std::shared_ptr<ArrayVal>;
using ListPtr = std::shared_ptr<ListVal>;

class Value {
 public:
  Value() = default;  // null
  static Value of_int(std::int64_t v) { return Value(v); }
  static Value of_double(double v) { return Value(v); }
  static Value of_bool(bool v) { return Value(v); }
  static Value of_string(std::string v) { return Value(std::move(v)); }
  static Value of_object(ObjectPtr v) { return Value(std::move(v)); }
  static Value of_array(ArrayPtr v) { return Value(std::move(v)); }
  static Value of_list(ListPtr v) { return Value(std::move(v)); }

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::monostate>(v_);
  }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<ObjectPtr>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<ArrayPtr>(v_); }
  [[nodiscard]] bool is_list() const { return std::holds_alternative<ListPtr>(v_); }

  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  [[nodiscard]] double as_double() const { return std::get<double>(v_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }
  [[nodiscard]] const ObjectPtr& as_object() const { return std::get<ObjectPtr>(v_); }
  [[nodiscard]] const ArrayPtr& as_array() const { return std::get<ArrayPtr>(v_); }
  [[nodiscard]] const ListPtr& as_list() const { return std::get<ListPtr>(v_); }

  /// Numeric coercion (int or double); error otherwise.
  [[nodiscard]] double to_double() const;

  /// Human-readable rendering (used by print()).
  [[nodiscard]] std::string str() const;

  /// Structural equality for scalars, identity for references.
  [[nodiscard]] bool equals(const Value& other) const;

 private:
  explicit Value(std::int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(bool v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(ObjectPtr v) : v_(std::move(v)) {}
  explicit Value(ArrayPtr v) : v_(std::move(v)) {}
  explicit Value(ListPtr v) : v_(std::move(v)) {}

  std::variant<std::monostate, std::int64_t, double, bool, std::string,
               ObjectPtr, ArrayPtr, ListPtr>
      v_;
};

/// Default value for a declared type: 0 / 0.0 / false / "" / null.
Value default_value(const lang::Type& type);

}  // namespace patty::analysis
