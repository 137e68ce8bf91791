// Interpreter tests: evaluation semantics, control flow, objects/arrays/
// lists, builtins, constructors, recursion, and runtime error detection.

#include <gtest/gtest.h>

#include <chrono>

#include "analysis/interpreter.hpp"
#include "lang/sema.hpp"
#include "runtime/cancellation.hpp"

namespace patty::analysis {
namespace {

std::string run(std::string_view src) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src, diags);
  EXPECT_TRUE(program) << diags.to_string();
  if (!program) return "";
  Interpreter interp(*program);
  interp.run_main();
  return interp.output();
}

void expect_runtime_error(std::string_view src, const std::string& fragment) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src, diags);
  ASSERT_TRUE(program) << diags.to_string();
  Interpreter interp(*program);
  try {
    interp.run_main();
    FAIL() << "expected RuntimeError containing '" << fragment << "'";
  } catch (const RuntimeError& e) {
    EXPECT_NE(e.message.find(fragment), std::string::npos) << e.message;
  }
}

TEST(InterpreterTest, HelloArithmetic) {
  EXPECT_EQ(run("class Main { void main() { print(2 + 3 * 4); } }"), "14\n");
}

TEST(InterpreterTest, IntegerAndDoubleDivision) {
  EXPECT_EQ(run("class Main { void main() { print(7 / 2); } }"), "3\n");
  const std::string out =
      run("class Main { void main() { print(7.0 / 2); } }");
  EXPECT_EQ(out.substr(0, 3), "3.5");
}

TEST(InterpreterTest, StringConcatAndComparison) {
  EXPECT_EQ(run(R"(class Main { void main() {
    string s = "a" + "b" + 1;
    print(s);
    print("abc" < "abd");
  } })"),
            "ab1\ntrue\n");
}

TEST(InterpreterTest, ShortCircuitEvaluation) {
  // Right side would divide by zero if evaluated.
  EXPECT_EQ(run(R"(class Main {
    bool boom() { print("boom"); return true; }
    void main() {
      bool a = false;
      if (a && boom()) { print("no"); }
      bool b = true;
      if (b || boom()) { print("yes"); }
    }
  })"),
            "yes\n");
}

TEST(InterpreterTest, WhileAndForLoops) {
  EXPECT_EQ(run(R"(class Main { void main() {
    int sum = 0;
    for (int i = 1; i <= 4; i++) { sum += i; }
    print(sum);
    int n = 3;
    while (n > 0) { n--; }
    print(n);
  } })"),
            "10\n0\n");
}

TEST(InterpreterTest, BreakAndContinue) {
  EXPECT_EQ(run(R"(class Main { void main() {
    for (int i = 0; i < 10; i++) {
      if (i == 2) { continue; }
      if (i == 5) { break; }
      print(i);
    }
  } })"),
            "0\n1\n3\n4\n");
}

TEST(InterpreterTest, ForeachOverListAndArray) {
  EXPECT_EQ(run(R"(class Main { void main() {
    list<int> xs = new list<int>();
    push(xs, 10); push(xs, 20);
    foreach (int x in xs) { print(x); }
    int[] arr = new int[3];
    arr[1] = 7;
    foreach (int a in arr) { print(a); }
  } })"),
            "10\n20\n0\n7\n0\n");
}

TEST(InterpreterTest, ObjectFieldsAndMethods) {
  EXPECT_EQ(run(R"(
    class Counter {
      int value;
      void bump() { value = value + 1; }
      int get() { return value; }
    }
    class Main { void main() {
      Counter c = new Counter();
      c.bump(); c.bump(); c.bump();
      print(c.get());
    } }
  )"),
            "3\n");
}

TEST(InterpreterTest, ConstructorRuns) {
  EXPECT_EQ(run(R"(
    class Point {
      int x; int y;
      void init(int ax, int ay) { x = ax; y = ay; }
    }
    class Main { void main() {
      Point p = new Point(3, 4);
      print(p.x * p.x + p.y * p.y);
    } }
  )"),
            "25\n");
}

TEST(InterpreterTest, ObjectsShareIdentity) {
  EXPECT_EQ(run(R"(
    class Box { int v; }
    class Main { void main() {
      Box a = new Box();
      Box b = a;
      b.v = 42;
      print(a.v);
      print(a == b);
    } }
  )"),
            "42\ntrue\n");
}

TEST(InterpreterTest, RecursionFactorial) {
  EXPECT_EQ(run(R"(
    class Main {
      int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
      void main() { print(fact(6)); }
    }
  )"),
            "720\n");
}

TEST(InterpreterTest, ImplicitThisFieldInCalledMethod) {
  EXPECT_EQ(run(R"(
    class Main {
      int acc;
      void add(int v) { acc += v; }
      void main() { add(5); add(7); print(acc); }
    }
  )"),
            "12\n");
}

TEST(InterpreterTest, BuiltinMathFunctions) {
  EXPECT_EQ(run(R"(class Main { void main() {
    print(abs(0 - 9));
    print(min(3, 8));
    print(max(3, 8));
    print(floor(2.9));
    print(clamp(99, 0, 10));
    print(len("hello"));
  } })"),
            "9\n3\n8\n2\n10\n5\n");
}

TEST(InterpreterTest, WorkReturnsItsCostAndCharges) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(
      "class Main { void main() { print(work(50)); } }", diags);
  ASSERT_TRUE(program);
  Interpreter interp(*program);
  interp.run_main();
  EXPECT_EQ(interp.output(), "50\n");
}

TEST(InterpreterTest, DoubleWideningAcrossCallsAndDecls) {
  EXPECT_EQ(run(R"(
    class Main {
      double half(double x) { return x / 2; }
      void main() { print(half(5) > 2.4 && half(5) < 2.6); }
    }
  )"),
            "true\n");
}

TEST(InterpreterTest, NestedLoopsWithListOfObjects) {
  EXPECT_EQ(run(R"(
    class Item { int v; }
    class Main { void main() {
      list<Item> items = new list<Item>();
      for (int i = 0; i < 3; i++) {
        Item it = new Item();
        it.v = i * i;
        push(items, it);
      }
      int total = 0;
      foreach (Item it in items) { total += it.v; }
      print(total);
    } }
  )"),
            "5\n");
}

TEST(InterpreterTest, ErrorNullFieldAccess) {
  expect_runtime_error(R"(
    class Box { int v; }
    class Main { void main() { Box b = null; print(b.v); } }
  )",
                       "null");
}

TEST(InterpreterTest, ErrorNullMethodCall) {
  expect_runtime_error(R"(
    class Box { int get() { return 1; } }
    class Main { void main() { Box b = null; b.get(); } }
  )",
                       "null");
}

TEST(InterpreterTest, ErrorIndexOutOfBounds) {
  expect_runtime_error(
      "class Main { void main() { int[] a = new int[2]; print(a[5]); } }",
      "out of bounds");
}

TEST(InterpreterTest, ErrorNegativeIndex) {
  expect_runtime_error(
      "class Main { void main() { int[] a = new int[2]; print(a[0 - 1]); } }",
      "out of bounds");
}

TEST(InterpreterTest, ErrorDivisionByZero) {
  expect_runtime_error(
      "class Main { void main() { int z = 0; print(4 / z); } }",
      "division by zero");
}

TEST(InterpreterTest, ErrorStepLimitOnInfiniteLoop) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(
      "class Main { void main() { while (true) { int x = 1; } } }", diags);
  ASSERT_TRUE(program);
  InterpreterOptions opts;
  opts.max_steps = 10'000;
  Interpreter interp(*program, nullptr, opts);
  EXPECT_THROW(interp.run_main(), RuntimeError);
}

TEST(InterpreterTest, StepLimitIsExact) {
  // 3,004 statements: two declarations, 1,001 loop tests, 1,000 bodies and
  // as many steps, and the print. The budget spans several step claims.
  DiagnosticSink diags;
  auto program = lang::parse_and_check(
      "class Main { void main() { int s = 0; "
      "for (int i = 0; i < 1000; i++) { s = s + i; } print(s); } }",
      diags);
  ASSERT_TRUE(program) << diags.to_string();
  InterpreterOptions opts;
  opts.max_steps = 3004;
  Interpreter enough(*program, nullptr, opts);
  enough.run_main();
  EXPECT_EQ(enough.output(), "499500\n");
  opts.max_steps = 3003;
  Interpreter one_short(*program, nullptr, opts);
  EXPECT_THROW(one_short.run_main(), RuntimeError);
  EXPECT_EQ(one_short.output(), "");  // the print was the step too many
}

TEST(InterpreterTest, IndexedVariableIsReadBeforeItsIndex) {
  // Swap() reassigns `a` while the index is evaluated: the read and the
  // write still go to the array `a` held before the index ran.
  EXPECT_EQ(run(R"(
    class Main {
      int[] a;
      int Swap() { a = new int[1]; return 2; }
      void main() {
        a = new int[3];
        a[2] = 7;
        print(a[Swap()]);
        int[] old = new int[3];
        a = old;
        a[Swap()] = 9;
        print(old[2]);
        print(len(a));
      }
    }
  )"),
            "7\n9\n1\n");
}

TEST(InterpreterTest, DeadlineCutsOneLongWorkCallShort) {
  // work(10^12) is about 20 hours of CPU: a 50 ms deadline must stop it
  // from inside the call, not after it.
  DiagnosticSink diags;
  auto program = lang::parse_and_check(
      "class Main { int main() { return work(1000000000000); } }", diags);
  ASSERT_TRUE(program) << diags.to_string();
  Interpreter interp(*program);
  rt::StopSource stop;
  rt::ScopedDeadline deadline(stop, std::chrono::milliseconds(50));
  rt::StopScope ambient(stop.token());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(interp.run_main(), rt::OperationCancelled);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_TRUE(deadline.expired());
}

TEST(InterpreterTest, ErrorNoMain) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check("class A { void f() { } }", diags);
  ASSERT_TRUE(program);
  Interpreter interp(*program);
  EXPECT_THROW(interp.run_main(), RuntimeError);
}

TEST(InterpreterTest, ReturnValueOfMain) {
  DiagnosticSink diags;
  auto program =
      lang::parse_and_check("class Main { int main() { return 41 + 1; } }", diags);
  ASSERT_TRUE(program);
  Interpreter interp(*program);
  EXPECT_EQ(interp.run_main().as_int(), 42);
}

TEST(InterpreterTest, ForeachSnapshotsLength) {
  // Pushing during iteration must not extend the traversal.
  EXPECT_EQ(run(R"(class Main { void main() {
    list<int> xs = new list<int>();
    push(xs, 1); push(xs, 2);
    foreach (int x in xs) { push(xs, x); }
    print(len(xs));
  } })"),
            "4\n");
}

}  // namespace
}  // namespace patty::analysis
