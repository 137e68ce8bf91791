#pragma once
// Semantic analysis for MiniOO: name resolution (locals -> slots, implicit
// `this` fields, method calls, builtins), type checking, and layout
// assignment. Fills the `resolved_*` fields of the AST in place.
//
// After a successful run:
//  * every VarRef has slot >= 0 or field_index >= 0,
//  * every FieldAccess/Call/New has its target resolved,
//  * every Expr has a type,
//  * every MethodDecl knows its owner, slot count and slot names.

#include "lang/ast.hpp"
#include "support/diagnostics.hpp"

namespace patty::lang {

class Sema {
 public:
  explicit Sema(DiagnosticSink& diags) : diags_(diags) {}

  /// Analyze the whole program. Returns true when no errors were produced.
  bool analyze(Program& program);

 private:
  bool analyze_method(MethodDecl& method);
  void analyze_stmt(Stmt& st);
  TypePtr analyze_expr(Expr& e);
  TypePtr analyze_call(Call& call);
  TypePtr analyze_builtin(Call& call);
  TypePtr analyze_binary(Binary& b);
  void check_assignable_expr(const Expr& target);
  bool class_exists(const Type& t);

  int declare_local(Symbol name, SourceRange range);
  int lookup_local(Symbol name) const;
  void push_scope();
  void pop_scope();

  DiagnosticSink& diags_;
  Program* program_ = nullptr;
  ClassDecl* current_class_ = nullptr;
  MethodDecl* current_method_ = nullptr;
  int loop_depth_ = 0;

  struct LocalVar {
    Symbol name;
    int slot;
    TypePtr type;
  };
  std::vector<std::vector<LocalVar>> scopes_;
  std::vector<TypePtr> slot_types_;
};

/// Convenience: parse + analyze. Returns nullptr (and diagnostics) on error.
std::unique_ptr<Program> parse_and_check(std::string_view source,
                                         DiagnosticSink& diags);

}  // namespace patty::lang
