#pragma once
// Runtime values for the MiniOO interpreter. Reference types (objects,
// arrays, lists) have shared identity via shared_ptr; dynamic dependence
// profiling keys their cells by an allocation serial instead (MemLoc).
//
// A Value is a kind tag, one scalar slot and one shared reference: 32 bytes.
// Copying or destroying a scalar touches no reference count. A string is an
// immutable shared buffer, so copying one shares it instead of its text.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  /// A moved-from value is null.
  Value(Value&& other) noexcept
      : kind_(std::exchange(other.kind_, Kind::Null)),
        scalar_(other.scalar_),
        ref_(std::move(other.ref_)) {}
  Value& operator=(Value&& other) noexcept {
    kind_ = std::exchange(other.kind_, Kind::Null);
    scalar_ = other.scalar_;
    ref_ = std::move(other.ref_);
    return *this;
  }

  static Value of_int(std::int64_t v) { return Value(Kind::Int, {.i = v}); }
  static Value of_double(double v) { return Value(Kind::Double, {.d = v}); }
  static Value of_bool(bool v) { return Value(Kind::Bool, {.b = v}); }
  static Value of_string(std::string v) {
    return Value(Kind::String,
                 std::make_shared<const std::string>(std::move(v)));
  }
  static Value of_object(ObjectPtr v) { return Value(Kind::Object, std::move(v)); }
  static Value of_array(ArrayPtr v) { return Value(Kind::Array, std::move(v)); }
  static Value of_list(ListPtr v) { return Value(Kind::List, std::move(v)); }

  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::Int; }
  [[nodiscard]] bool is_double() const { return kind_ == Kind::Double; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_list() const { return kind_ == Kind::List; }

  // Each accessor throws std::bad_variant_access on a value of another kind.
  [[nodiscard]] std::int64_t as_int() const {
    expect(Kind::Int);
    return scalar_.i;
  }
  [[nodiscard]] double as_double() const {
    expect(Kind::Double);
    return scalar_.d;
  }
  [[nodiscard]] bool as_bool() const {
    expect(Kind::Bool);
    return scalar_.b;
  }
  [[nodiscard]] const std::string& as_string() const {
    expect(Kind::String);
    return *static_cast<const std::string*>(ref_.get());
  }
  /// The referenced heap value, or null for a null reference of this kind.
  [[nodiscard]] Object* as_object() const { return heap<Object>(Kind::Object); }
  [[nodiscard]] ArrayVal* as_array() const { return heap<ArrayVal>(Kind::Array); }
  [[nodiscard]] ListVal* as_list() const { return heap<ListVal>(Kind::List); }

  /// Numeric coercion (int or double); error otherwise.
  [[nodiscard]] double to_double() const;

  /// Human-readable rendering (used by print()).
  [[nodiscard]] std::string str() const;

  /// Structural equality for scalars, identity for references.
  [[nodiscard]] bool equals(const Value& other) const;

 private:
  enum class Kind : std::uint8_t {
    Null, Int, Double, Bool, String, Object, Array, List
  };

  union Scalar {
    std::int64_t i;
    double d;
    bool b;
  };

  Value(Kind kind, Scalar scalar) : kind_(kind), scalar_(scalar) {}
  Value(Kind kind, std::shared_ptr<const void> ref)
      : kind_(kind), ref_(std::move(ref)) {}

  void expect(Kind kind) const {
    if (kind_ != kind) wrong_kind();
  }
  [[noreturn]] static void wrong_kind();  // throws std::bad_variant_access
  // Heap values are created mutable (make_shared<Object> and the like) and
  // only stored as `const void` to share one reference slot.
  template <typename T>
  [[nodiscard]] T* heap(Kind kind) const {
    expect(kind);
    return static_cast<T*>(const_cast<void*>(ref_.get()));
  }

  Kind kind_ = Kind::Null;
  Scalar scalar_{0};
  std::shared_ptr<const void> ref_;  // string, object, array or list
};

static_assert(sizeof(Value) <= 32);

/// Default value for a declared type: 0 / 0.0 / false / "" / null.
Value default_value(const lang::Type& type);

}  // namespace patty::analysis
