// Tests for the runtime value model: defaults, coercions, equality
// semantics (structural for scalars, identity for references), rendering.

#include <gtest/gtest.h>

#include <variant>
#include <vector>

#include "analysis/value.hpp"

namespace patty::analysis {
namespace {

TEST(ValueTest, DefaultsPerType) {
  EXPECT_EQ(default_value(*lang::Type::int_t()).as_int(), 0);
  EXPECT_EQ(default_value(*lang::Type::double_t()).as_double(), 0.0);
  EXPECT_FALSE(default_value(*lang::Type::bool_t()).as_bool());
  EXPECT_EQ(default_value(*lang::Type::string_t()).as_string(), "");
  EXPECT_TRUE(default_value(*lang::Type::class_t("X")).is_null());
  EXPECT_TRUE(
      default_value(*lang::Type::array_t(lang::Type::int_t())).is_null());
}

TEST(ValueTest, KindPredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value::of_int(3).is_int());
  EXPECT_TRUE(Value::of_double(1.5).is_double());
  EXPECT_TRUE(Value::of_bool(true).is_bool());
  EXPECT_TRUE(Value::of_string("x").is_string());
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value::of_int(7).to_double(), 7.0);
  EXPECT_DOUBLE_EQ(Value::of_double(2.5).to_double(), 2.5);
  EXPECT_THROW(Value::of_string("x").to_double(), std::logic_error);
}

TEST(ValueTest, ScalarEquality) {
  EXPECT_TRUE(Value::of_int(3).equals(Value::of_int(3)));
  EXPECT_FALSE(Value::of_int(3).equals(Value::of_int(4)));
  EXPECT_TRUE(Value::of_int(3).equals(Value::of_double(3.0)));
  EXPECT_TRUE(Value::of_string("a").equals(Value::of_string("a")));
  EXPECT_FALSE(Value::of_string("a").equals(Value::of_int(0)));
  EXPECT_TRUE(Value().equals(Value()));
  EXPECT_FALSE(Value().equals(Value::of_int(0)));
}

TEST(ValueTest, ReferenceIdentityEquality) {
  auto obj = std::make_shared<Object>();
  Value a = Value::of_object(obj);
  Value b = Value::of_object(obj);
  auto other = std::make_shared<Object>();
  Value c = Value::of_object(other);
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));

  auto arr = std::make_shared<ArrayVal>();
  EXPECT_TRUE(Value::of_array(arr).equals(Value::of_array(arr)));
  auto list = std::make_shared<ListVal>();
  EXPECT_TRUE(Value::of_list(list).equals(Value::of_list(list)));
  EXPECT_FALSE(Value::of_array(arr).equals(Value::of_list(list)));
}

TEST(ValueTest, Rendering) {
  EXPECT_EQ(Value().str(), "null");
  EXPECT_EQ(Value::of_int(42).str(), "42");
  EXPECT_EQ(Value::of_bool(true).str(), "true");
  EXPECT_EQ(Value::of_string("hey").str(), "hey");
  auto arr = std::make_shared<ArrayVal>();
  arr->elems.resize(3);
  EXPECT_EQ(Value::of_array(arr).str(), "<array[3]>");
}

TEST(ValueTest, AccessorsOnTheWrongKindThrow) {
  const std::vector<Value> values = {
      Value(),
      Value::of_int(1),
      Value::of_double(1.5),
      Value::of_bool(true),
      Value::of_string("s"),
      Value::of_object(std::make_shared<Object>()),
      Value::of_array(std::make_shared<ArrayVal>()),
      Value::of_list(std::make_shared<ListVal>())};
  for (std::size_t k = 0; k < values.size(); ++k) {
    const Value& v = values[k];
    // Value k answers accessor k (null has none) and throws on the others.
    const auto check = [k](std::size_t own, const auto& access) {
      if (k == own)
        EXPECT_NO_THROW(access()) << "value " << k;
      else
        EXPECT_THROW(access(), std::bad_variant_access)
            << "value " << k << ", accessor " << own;
    };
    check(1, [&v] { (void)v.as_int(); });
    check(2, [&v] { (void)v.as_double(); });
    check(3, [&v] { (void)v.as_bool(); });
    check(4, [&v] { (void)v.as_string(); });
    check(5, [&v] { (void)v.as_object(); });
    check(6, [&v] { (void)v.as_array(); });
    check(7, [&v] { (void)v.as_list(); });
  }
}

TEST(ValueTest, CopiesShareOneStringAndAMovedFromValueIsNull) {
  Value a = Value::of_string("text");
  const Value b = a;
  EXPECT_EQ(&a.as_string(), &b.as_string());
  const Value c = std::move(a);
  EXPECT_TRUE(a.is_null());  // read after the move on purpose
  EXPECT_EQ(c.as_string(), "text");
}

TEST(ValueTest, SharedMutationVisibleThroughCopies) {
  auto list = std::make_shared<ListVal>();
  Value a = Value::of_list(list);
  Value b = a;  // copies share the heap object
  b.as_list()->elems.push_back(Value::of_int(1));
  EXPECT_EQ(a.as_list()->elems.size(), 1u);
}

}  // namespace
}  // namespace patty::analysis
