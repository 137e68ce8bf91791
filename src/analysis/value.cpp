#include "analysis/value.hpp"

#include <variant>

#include "support/diagnostics.hpp"

namespace patty::analysis {

void Value::wrong_kind() { throw std::bad_variant_access(); }

double Value::to_double() const {
  if (is_int()) return static_cast<double>(as_int());
  if (is_double()) return as_double();
  fatal("Value::to_double on non-numeric value");
}

std::string Value::str() const {
  if (is_null()) return "null";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    std::string s = std::to_string(as_double());
    return s;
  }
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_string()) return as_string();
  if (is_object())
    return "<" + (as_object() ? as_object()->cls->name.str()
                              : std::string("null")) +
           ">";
  if (is_array())
    return "<array[" + std::to_string(as_array()->elems.size()) + "]>";
  if (is_list())
    return "<list[" + std::to_string(as_list()->elems.size()) + "]>";
  return "?";
}

bool Value::equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if ((is_int() || is_double()) && (other.is_int() || other.is_double())) {
    if (is_int() && other.is_int()) return as_int() == other.as_int();
    return to_double() == other.to_double();
  }
  if (is_bool() && other.is_bool()) return as_bool() == other.as_bool();
  if (is_string() && other.is_string()) return as_string() == other.as_string();
  if (is_object() && other.is_object()) return as_object() == other.as_object();
  if (is_array() && other.is_array()) return as_array() == other.as_array();
  if (is_list() && other.is_list()) return as_list() == other.as_list();
  return false;
}

Value default_value(const lang::Type& type) {
  using K = lang::Type::Kind;
  switch (type.kind) {
    case K::Int: return Value::of_int(0);
    case K::Double: return Value::of_double(0.0);
    case K::Bool: return Value::of_bool(false);
    case K::String: return Value::of_string("");
    default: return Value();  // null for references and void
  }
}

}  // namespace patty::analysis
