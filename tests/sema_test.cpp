// Semantic-analysis tests: name resolution (slots, implicit this), type
// checking, builtin signatures, and error detection.

#include <gtest/gtest.h>

#include "lang/sema.hpp"

namespace patty::lang {
namespace {

std::unique_ptr<Program> check_ok(std::string_view src) {
  DiagnosticSink diags;
  auto program = parse_and_check(src, diags);
  EXPECT_TRUE(program != nullptr) << diags.to_string();
  return program;
}

bool check_fails(std::string_view src, const std::string& fragment = "") {
  DiagnosticSink diags;
  auto program = parse_and_check(src, diags);
  if (program != nullptr) return false;
  if (!fragment.empty())
    return diags.to_string().find(fragment) != std::string::npos;
  return diags.has_errors();
}

TEST(SemaTest, LocalSlotsAssignedInOrder) {
  auto p = check_ok("class A { int F(int a, int b) { int c = a; return c + b; } }");
  const MethodDecl& m = *p->classes[0]->methods[0];
  EXPECT_EQ(m.params[0].slot, 0);
  EXPECT_EQ(m.params[1].slot, 1);
  EXPECT_EQ(m.local_slot_count, 3);
  EXPECT_EQ(m.slot_names[2], "c");
}

TEST(SemaTest, VarRefResolvesToLocal) {
  auto p = check_ok("class A { int F(int a) { return a; } }");
  const auto& ret = p->classes[0]->methods[0]->body->stmts[0]->as<Return>();
  const auto& ref = ret.value->as<VarRef>();
  EXPECT_EQ(ref.slot, 0);
  EXPECT_EQ(ref.field_index, -1);
}

TEST(SemaTest, VarRefResolvesToImplicitThisField) {
  auto p = check_ok("class A { int counter; int F() { return counter; } }");
  const auto& ret = p->classes[0]->methods[0]->body->stmts[0]->as<Return>();
  const auto& ref = ret.value->as<VarRef>();
  EXPECT_EQ(ref.slot, -1);
  EXPECT_EQ(ref.field_index, 0);
  EXPECT_EQ(ref.type->kind, Type::Kind::Int);
}

TEST(SemaTest, LocalShadowsField) {
  auto p = check_ok("class A { int x; int F() { int x = 3; return x; } }");
  const auto& ret = p->classes[0]->methods[0]->body->stmts[1]->as<Return>();
  EXPECT_GE(ret.value->as<VarRef>().slot, 0);
}

TEST(SemaTest, MethodCallResolvesAcrossClasses) {
  auto p = check_ok(R"(
    class Filter { int Apply(int v) { return v + 1; } }
    class Main { Filter f; void main() { int r = f.Apply(2); print(r); } }
  )");
  const auto& decl = p->classes[1]->methods[0]->body->stmts[0]->as<VarDecl>();
  const auto& call = decl.init->as<Call>();
  ASSERT_NE(call.resolved, nullptr);
  EXPECT_EQ(call.resolved->name, "Apply");
  EXPECT_EQ(call.resolved->owner->name, "Filter");
}

TEST(SemaTest, ImplicitThisMethodCall) {
  auto p = check_ok(
      "class A { int Helper() { return 1; } int F() { return Helper(); } }");
  const auto& ret = p->classes[0]->methods[1]->body->stmts[0]->as<Return>();
  const auto& call = ret.value->as<Call>();
  EXPECT_TRUE(call.implicit_this);
  ASSERT_NE(call.resolved, nullptr);
}

TEST(SemaTest, ConstructorResolution) {
  auto p = check_ok(R"(
    class Point {
      int x; int y;
      void init(int ax, int ay) { x = ax; y = ay; }
    }
    class Main { void main() { Point p = new Point(1, 2); print(p.x); } }
  )");
  const auto& decl = p->classes[1]->methods[0]->body->stmts[0]->as<VarDecl>();
  EXPECT_EQ(decl.init->as<New>().resolved->name, "Point");
}

TEST(SemaTest, IntWidensToDouble) {
  check_ok("class A { double F() { double d = 3; return d + 1; } }");
}

TEST(SemaTest, StringConcatenation) {
  check_ok(R"(class A { string F(int n) { return "n=" + n; } })");
}

TEST(SemaTest, NullAssignableToReferenceTypes) {
  check_ok(R"(
    class B { }
    class A { void F() { B b = null; int[] xs = null; list<int> l = null; } }
  )");
}

TEST(SemaTest, BuiltinSignatures) {
  check_ok(R"(
    class A { void F() {
      list<int> xs = new list<int>();
      push(xs, 4);
      int n = len(xs);
      int w = work(100);
      double s = sqrt(2.0);
      int a = abs(0 - 3);
      int m = min(1, 2);
      int fl = floor(2.7);
      string t = str(42);
      int c = clamp(5, 0, 10);
      print(t);
      print(n + w + a + m + fl + c);
      print(s);
    } }
  )");
}

TEST(SemaTest, ErrorUnknownName) {
  EXPECT_TRUE(check_fails("class A { int F() { return nope; } }", "unknown name"));
}

TEST(SemaTest, ErrorUnknownClassType) {
  EXPECT_TRUE(check_fails("class A { Missing m; }", "unknown type"));
}

TEST(SemaTest, ErrorTypeMismatchAssign) {
  EXPECT_TRUE(check_fails("class A { void F() { int x = true; } }",
                          "cannot initialize"));
}

TEST(SemaTest, ErrorDoubleNarrowingRejected) {
  EXPECT_TRUE(check_fails("class A { void F() { int x = 2.5; } }"));
}

TEST(SemaTest, ErrorConditionNotBool) {
  EXPECT_TRUE(check_fails("class A { void F() { if (1) { } } }", "must be bool"));
}

TEST(SemaTest, ErrorBreakOutsideLoop) {
  EXPECT_TRUE(check_fails("class A { void F() { break; } }", "outside of a loop"));
}

TEST(SemaTest, ErrorWrongArgumentCount) {
  EXPECT_TRUE(check_fails(
      "class A { int G(int x) { return x; } void F() { G(); } }",
      "takes 1 argument"));
}

TEST(SemaTest, ErrorWrongArgumentType) {
  EXPECT_TRUE(check_fails(
      "class A { int G(int x) { return x; } void F() { G(true); } }"));
}

TEST(SemaTest, ErrorUnknownMethod) {
  EXPECT_TRUE(check_fails(
      "class B { } class A { B b; void F() { b.Nope(); } }", "no method"));
}

TEST(SemaTest, ErrorDuplicateClass) {
  EXPECT_TRUE(check_fails("class A { } class A { }", "duplicate class"));
}

TEST(SemaTest, ErrorDuplicateField) {
  EXPECT_TRUE(check_fails("class A { int x; int x; }", "duplicate field"));
}

TEST(SemaTest, ErrorRedeclarationInScope) {
  EXPECT_TRUE(check_fails("class A { void F() { int x = 1; int x = 2; } }",
                          "redeclaration"));
}

TEST(SemaTest, ScopedRedeclarationAllowed) {
  check_ok("class A { void F() { { int x = 1; print(x); } { int x = 2; print(x); } } }");
}

TEST(SemaTest, ErrorForeachOverNonIterable) {
  EXPECT_TRUE(check_fails(
      "class A { void F() { foreach (int x in 5) { } } }", "foreach"));
}

TEST(SemaTest, ErrorReturnTypeMismatch) {
  EXPECT_TRUE(check_fails("class A { int F() { return true; } }"));
}

TEST(SemaTest, ErrorVoidMethodReturnsValue) {
  EXPECT_TRUE(check_fails("class A { void F() { return 3; } }",
                          "void method cannot return"));
}

TEST(SemaTest, ErrorAssignToCall) {
  EXPECT_TRUE(check_fails(
      "class A { int G() { return 1; } void F() { G() = 2; } }",
      "not assignable"));
}

TEST(SemaTest, ErrorPushTypeMismatch) {
  EXPECT_TRUE(check_fails(
      "class A { void F() { list<int> xs = new list<int>(); push(xs, true); } }",
      "element type mismatch"));
}

TEST(SemaTest, ForeachElementTypeChecked) {
  EXPECT_TRUE(check_fails(R"(
    class A { void F() {
      list<bool> xs = new list<bool>();
      foreach (int x in xs) { }
    } }
  )"));
}

// The 43 type and scope checks of sema.cpp, one ill-typed program each,
// pinned to the complete text the sink renders: severity, range and
// message. Checks that share a message (four say "unknown type") differ by
// range. Name-resolution and duplicate errors are the Error* cases above.
struct RequireSiteCase {
  const char* name;
  const char* source;
  const char* expected;  // DiagnosticSink::to_string()
};

const RequireSiteCase kRequireSites[] = {
    {"FieldUnknownType",
     "class A { Missing m; }",
     "error 1:11-1:21: unknown type 'Missing'\n"},
    {"FieldVoid",
     "class A { void v; }",
     "error 1:11-1:18: field cannot have type void\n"},
    {"ReturnTypeUnknown",
     "class A { Missing F() { return null; } }",
     "error 1:11-1:39: unknown return type 'Missing'\n"},
    {"ParamTypeUnknown",
     "class A { void F(Missing m) { } }",
     "error 1:18-1:27: unknown parameter type 'Missing'\n"},
    {"LocalUnknownType",
     "class A { void F() { Missing m = null; } }",
     "error 1:22-1:39: unknown type 'Missing'\n"},
    {"LocalVoid",
     "class A { void F() { void v; } }",
     "error 1:22-1:29: variable cannot have type void\n"},
    {"InitMismatch",
     "class A { void F() { list<int> x = new int[2]; } }",
     "error 1:22-1:47: cannot initialize 'list<int>' from 'int[]'\n"},
    {"AssignMismatch",
     "class B { } class A { void F() { B b = null; b = 1; } }",
     "error 1:46-1:52: cannot assign 'int' to 'B'\n"},
    {"IfCondition",
     "class A { void F() { if (1) { } } }",
     "error 1:26-1:27: if condition must be bool, got 'int'\n"},
    {"WhileCondition",
     "class A { void F() { while (1) { } } }",
     "error 1:29-1:30: while condition must be bool, got 'int'\n"},
    {"ForCondition",
     "class A { void F() { for (int i = 0; 1; i++) { } } }",
     "error 1:38-1:39: for condition must be bool, got 'int'\n"},
    {"ForeachUnknownType",
     "class A { void F() { list<int> xs = new list<int>(); "
     "foreach (Missing m in xs) { } } }",
     "error 1:54-1:83: unknown type 'Missing'\n"
     "error 1:54-1:83: loop variable type 'Missing' does not match element "
     "type 'int'\n"},
    {"ForeachElementMismatch",
     "class A { void F() { list<bool> xs = new list<bool>(); "
     "foreach (int x in xs) { } } }",
     "error 1:56-1:81: loop variable type 'int' does not match element "
     "type 'bool'\n"},
    {"VoidReturnsValue",
     "class A { void F() { return 3; } }",
     "error 1:22-1:31: void method cannot return a value\n"},
    {"ReturnMismatch",
     "class A { int[] F() { return new list<bool>(); } }",
     "error 1:23-1:47: cannot return 'list<bool>' from method returning "
     "'int[]'\n"},
    {"ReturnWithoutValue",
     "class A { int F() { return; } }",
     "error 1:21-1:28: non-void method must return a value\n"},
    {"BreakOutsideLoop",
     "class A { void F() { break; } }",
     "error 1:22-1:28: break outside of a loop\n"},
    {"ContinueOutsideLoop",
     "class A { void F() { continue; } }",
     "error 1:22-1:31: continue outside of a loop\n"},
    {"IndexNotInt",
     "class A { void F() { int[] xs = new int[3]; int y = xs[true]; } }",
     "error 1:56-1:60: index must be int, got 'bool'\n"},
    {"ConstructorArity",
     "class B { void init(int x) { } } class A { void F() { B b = new B(); } }",
     "error 1:61-1:68: constructor of 'B' takes 1 argument(s), got 0\n"},
    {"ConstructorArgType",
     "class B { void init(int x) { } } "
     "class A { void F() { B b = new B(true); } }",
     "error 1:67-1:71: constructor argument 1: cannot pass 'bool' as 'int'\n"},
    {"NoConstructor",
     "class B { } class A { void F() { B b = new B(1); } }",
     "error 1:40-1:48: class 'B' has no 'init' constructor\n"},
    {"NewArrayUnknownType",
     "class A { void F() { print(len(new Missing[3])); } }",
     "error 1:32-1:46: unknown type 'Missing[]'\n"},
    {"ArraySizeNotInt",
     "class A { void F() { int[] xs = new int[true]; } }",
     "error 1:41-1:45: array size must be int\n"},
    {"NegNotNumeric",
     "class A { void F() { bool b = -true; } }",
     "error 1:31-1:36: unary '-' needs a numeric operand\n"},
    {"NotNotBool",
     "class A { void F() { bool b = !1; } }",
     "error 1:31-1:33: unary '!' needs a bool operand\n"},
    {"ArithmeticNotNumeric",
     "class A { void F() { int x = 1 - true; } }",
     "error 1:30-1:38: operator '-' needs numeric operands, got 'int' and "
     "'bool'\n"},
    {"ModNotInt",
     "class A { void F() { int x = 1 % 2.0; } }",
     "error 1:30-1:37: operator '%' needs int operands\n"},
    {"RelationalOperands",
     "class A { void F() { bool b = 1 < true; } }",
     "error 1:31-1:39: relational operator needs numeric or string operands\n"},
    {"EqualityOperands",
     "class A { void F() { bool b = 1 == true; } }",
     "error 1:31-1:40: cannot compare 'int' with 'bool'\n"},
    {"LogicalOperands",
     "class A { void F() { bool b = 1 && true; } }",
     "error 1:31-1:40: logical operator needs bool operands\n"},
    {"MethodArity",
     "class A { int G(int x) { return x; } void F() { G(); } }",
     "error 1:49-1:52: method 'G' takes 1 argument(s), got 0\n"},
    {"MethodArgType",
     "class A { int G(int x) { return x; } void F() { G(true); } }",
     "error 1:51-1:55: argument 1 of 'G': cannot pass 'bool' as 'int'\n"},
    {"BuiltinArity",
     "class A { void F() { print(1, 2); } }",
     "error 1:22-1:33: builtin 'print' takes 1 argument(s), got 2\n"},
    {"LenOperand",
     "class A { void F() { int n = len(1); } }",
     "error 1:30-1:36: len() needs an array, list, or string\n"},
    {"PushNotList",
     "class A { void F() { int[] xs = new int[2]; push(xs, 1); } }",
     "error 1:45-1:56: push() needs a list as first argument\n"},
    {"PushElementMismatch",
     "class A { void F() { list<int> xs = new list<int>(); push(xs, true); } }",
     "error 1:54-1:68: push() element type mismatch: list of 'int', got "
     "'bool'\n"},
    {"WorkCost",
     "class A { void F() { int w = work(1.5); } }",
     "error 1:30-1:39: work() needs an int cost\n"},
    {"SqrtOperand",
     "class A { void F() { double s = sqrt(true); } }",
     "error 1:33-1:43: sqrt() needs a numeric argument\n"},
    {"AbsOperand",
     "class A { void F() { abs(true); } }",
     "error 1:22-1:31: abs() needs a numeric argument\n"},
    {"MinMaxOperands",
     "class A { void F() { int m = min(1, true); } }",
     "error 1:30-1:42: min()/max() need numeric arguments\n"},
    {"FloorOperand",
     "class A { void F() { int f = floor(true); } }",
     "error 1:30-1:41: floor() needs a numeric argument\n"},
    {"ClampOperands",
     "class A { void F() { int c = clamp(1, 2, 3.0); } }",
     "error 1:30-1:46: clamp() needs int arguments\n"},
};

TEST(SemaTest, EveryRequireSiteReportsItsFullDiagnostic) {
  ASSERT_EQ(std::size(kRequireSites), 43u);
  for (const RequireSiteCase& c : kRequireSites) {
    SCOPED_TRACE(c.name);
    DiagnosticSink diags;
    EXPECT_EQ(parse_and_check(c.source, diags), nullptr);
    EXPECT_EQ(diags.to_string(), c.expected);
  }
}

TEST(SemaTest, ExpressionTypesAnnotated) {
  auto p = check_ok("class A { double F(int x) { return x * 0.5; } }");
  const auto& ret = p->classes[0]->methods[0]->body->stmts[0]->as<Return>();
  EXPECT_EQ(ret.value->type->kind, Type::Kind::Double);
  const auto& mul = ret.value->as<Binary>();
  EXPECT_EQ(mul.lhs->type->kind, Type::Kind::Int);
}

}  // namespace
}  // namespace patty::lang
