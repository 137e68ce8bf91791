#pragma once
// MiniOO abstract syntax tree.
//
// Design notes:
//  * Plain class hierarchy with a Kind tag and checked downcast helpers —
//    analyses switch on the tag, which keeps the dependence/CFG code flat.
//  * Every statement and expression carries a unique integer id (assigned by
//    the parser) used as the key in all side tables (CFG nodes, dependence
//    edges, profiles, tuning-parameter locations).
//  * Semantic analysis fills in the `resolved_*` fields in place; the tree
//    is otherwise immutable after parsing. The transformer builds new trees
//    rather than mutating analyzed ones.
//  * Memory layout: every node lives in its Program's bump arena
//    (support/arena.hpp) — ExprPtr/StmtPtr run destructors but the bytes
//    are reclaimed wholesale when the Program drops. Names are interned
//    Symbols (support/intern.hpp): comparisons are integer compares and
//    member lookup is an indexed map built by sema.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/type.hpp"
#include "support/arena.hpp"
#include "support/intern.hpp"
#include "support/source_location.hpp"

namespace patty::lang {

using support::Symbol;
using support::SymbolHash;

struct ClassDecl;
struct MethodDecl;
struct Stmt;

/// Owning pointer to an arena-placed AST node: the destructor runs (nodes
/// hold std::vector/TypePtr members), the memory stays with the arena.
template <typename T>
using AstPtr = support::ArenaPtr<T>;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : std::uint8_t {
  IntLit, DoubleLit, BoolLit, StringLit, NullLit,
  VarRef, FieldAccess, IndexAccess,
  Call, New, NewArray,
  Binary, Unary,
};

enum class BinaryOp : std::uint8_t {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

enum class UnaryOp : std::uint8_t { Neg, Not };

/// Builtin free functions recognized by name during semantic analysis.
enum class Builtin : std::uint8_t {
  None,
  Print,    // print(any) -> void
  Len,      // len(array|list|string) -> int
  Push,     // push(list<T>, T) -> void
  Work,     // work(int) -> int : burns n deterministic cost units of CPU
  Sqrt,     // sqrt(double) -> double
  Abs,      // abs(numeric) -> numeric
  MinOf,    // min(numeric, numeric) -> numeric
  MaxOf,    // max(numeric, numeric) -> numeric
  Floor,    // floor(double) -> int
  ToStr,    // str(any) -> string
  Clamp,    // clamp(int v, int lo, int hi) -> int
};

struct Expr {
  ExprKind kind;
  int id = -1;                 // unique within the Program
  SourceRange range;
  TypePtr type;                // filled by sema

  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  template <typename T>
  [[nodiscard]] const T& as() const { return static_cast<const T&>(*this); }
  template <typename T>
  [[nodiscard]] T& as() { return static_cast<T&>(*this); }
};

using ExprPtr = AstPtr<Expr>;

struct IntLit : Expr {
  std::int64_t value = 0;
  IntLit() : Expr(ExprKind::IntLit) {}
};

struct DoubleLit : Expr {
  double value = 0.0;
  DoubleLit() : Expr(ExprKind::DoubleLit) {}
};

struct BoolLit : Expr {
  bool value = false;
  BoolLit() : Expr(ExprKind::BoolLit) {}
};

struct StringLit : Expr {
  std::string value;
  StringLit() : Expr(ExprKind::StringLit) {}
};

struct NullLit : Expr {
  NullLit() : Expr(ExprKind::NullLit) {}
};

/// A bare name. Sema resolves it to either a local slot or (implicit `this`)
/// a field of the enclosing class.
struct VarRef : Expr {
  Symbol name;
  int slot = -1;         // >= 0 when resolved to a local/parameter
  int field_index = -1;  // >= 0 when resolved to a field of `this`
  const ClassDecl* owner_class = nullptr;  // set when resolved to a field
  VarRef() : Expr(ExprKind::VarRef) {}
  [[nodiscard]] bool is_local() const { return slot >= 0; }
};

struct FieldAccess : Expr {
  ExprPtr object;
  Symbol field;
  int field_index = -1;  // filled by sema
  FieldAccess() : Expr(ExprKind::FieldAccess) {}
};

struct IndexAccess : Expr {
  ExprPtr base;
  ExprPtr index;
  /// Filled by sema: the base is a variable and the index calls no method
  /// and runs no `new`, so no program code runs between reading the base
  /// and indexing it. The interpreter then indexes the variable's slot in
  /// place; otherwise it copies the base first, since a method or
  /// constructor run by the index could reassign the variable.
  bool borrows_base = false;
  IndexAccess() : Expr(ExprKind::IndexAccess) {}
};

/// `name(args)` (builtin or same-class method via implicit this) or
/// `receiver.name(args)` (method call).
struct Call : Expr {
  ExprPtr receiver;  // null for builtin / implicit-this calls
  Symbol name;
  std::vector<ExprPtr> args;
  Builtin builtin = Builtin::None;          // filled by sema
  const MethodDecl* resolved = nullptr;     // filled by sema
  bool implicit_this = false;               // filled by sema
  Call() : Expr(ExprKind::Call) {}
};

/// `new C(args)`; if C declares a method `init`, it runs as constructor.
struct New : Expr {
  Symbol class_name;
  std::vector<ExprPtr> args;
  const ClassDecl* resolved = nullptr;  // filled by sema
  New() : Expr(ExprKind::New) {}
};

/// `new T[n]` or `new list<T>()`.
struct NewArray : Expr {
  TypePtr allocated;  // Array or List type
  ExprPtr size;       // null for lists
  NewArray() : Expr(ExprKind::NewArray) {}
};

struct Binary : Expr {
  BinaryOp op = BinaryOp::Add;
  ExprPtr lhs;
  ExprPtr rhs;
  Binary() : Expr(ExprKind::Binary) {}
};

struct Unary : Expr {
  UnaryOp op = UnaryOp::Neg;
  ExprPtr operand;
  Unary() : Expr(ExprKind::Unary) {}
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : std::uint8_t {
  Block, VarDecl, Assign, ExprStmt,
  If, While, For, Foreach,
  Return, Break, Continue,
  Annotation,
};

struct Stmt {
  StmtKind kind;
  int id = -1;  // unique within the Program
  SourceRange range;

  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;

  template <typename T>
  [[nodiscard]] const T& as() const { return static_cast<const T&>(*this); }
  template <typename T>
  [[nodiscard]] T& as() { return static_cast<T&>(*this); }
};

using StmtPtr = AstPtr<Stmt>;

struct Block : Stmt {
  std::vector<StmtPtr> stmts;
  Block() : Stmt(StmtKind::Block) {}
};

struct VarDecl : Stmt {
  TypePtr declared;
  Symbol name;
  ExprPtr init;   // may be null (default-initialized)
  int slot = -1;  // filled by sema
  VarDecl() : Stmt(StmtKind::VarDecl) {}
};

struct Assign : Stmt {
  ExprPtr target;  // VarRef, FieldAccess, or IndexAccess
  ExprPtr value;
  Assign() : Stmt(StmtKind::Assign) {}
};

struct ExprStmt : Stmt {
  ExprPtr expr;
  ExprStmt() : Stmt(StmtKind::ExprStmt) {}
};

struct If : Stmt {
  ExprPtr cond;
  StmtPtr then_branch;
  StmtPtr else_branch;  // may be null
  If() : Stmt(StmtKind::If) {}
};

struct While : Stmt {
  ExprPtr cond;
  StmtPtr body;
  While() : Stmt(StmtKind::While) {}
};

struct For : Stmt {
  StmtPtr init;  // VarDecl or Assign; may be null
  ExprPtr cond;  // may be null (treated as true)
  StmtPtr step;  // Assign or ExprStmt; may be null
  StmtPtr body;
  For() : Stmt(StmtKind::For) {}
};

struct Foreach : Stmt {
  TypePtr element_declared;
  Symbol var_name;
  ExprPtr iterable;  // array or list expression
  StmtPtr body;
  int slot = -1;  // loop variable slot, filled by sema
  Foreach() : Stmt(StmtKind::Foreach) {}
};

struct Return : Stmt {
  ExprPtr value;  // may be null
  Return() : Stmt(StmtKind::Return) {}
};

struct Break : Stmt {
  Break() : Stmt(StmtKind::Break) {}
};

struct Continue : Stmt {
  Continue() : Stmt(StmtKind::Continue) {}
};

/// `@tadl ...` / `@end` annotation line kept in statement position so the
/// TADL annotator and the transformation phase can locate regions exactly
/// where the detector inserted them (paper §2.1, figure 3b).
struct Annotation : Stmt {
  std::string text;  // body after '@', e.g. "tadl (A || B) => C"
  Annotation() : Stmt(StmtKind::Annotation) {}
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct Param {
  TypePtr type;
  Symbol name;
  SourceRange range;
  int slot = -1;  // filled by sema
};

struct FieldDecl {
  TypePtr type;
  Symbol name;
  SourceRange range;
  int index = -1;  // position in the object layout, filled by sema
};

struct MethodDecl {
  TypePtr return_type;
  Symbol name;
  std::vector<Param> params;
  AstPtr<Block> body;
  SourceRange range;

  const ClassDecl* owner = nullptr;  // filled by sema
  int local_slot_count = 0;          // params + locals, filled by sema
  std::vector<Symbol> slot_names;    // debug names per slot, filled by sema
};

struct ClassDecl {
  Symbol name;
  std::vector<FieldDecl> fields;
  std::vector<AstPtr<MethodDecl>> methods;
  SourceRange range;

  // Interned-symbol member index, built by sema (build_member_index).
  // Before sema runs the maps are empty and lookup falls back to the
  // linear scan, so pre-sema callers keep working.
  std::unordered_map<Symbol, const MethodDecl*, SymbolHash> method_index;
  std::unordered_map<Symbol, int, SymbolHash> field_index;
  const MethodDecl* ctor = nullptr;         // cached find_method("init")
  const MethodDecl* main_method = nullptr;  // cached find_method("main")

  void build_member_index();

  [[nodiscard]] const MethodDecl* find_method(Symbol n) const {
    if (!method_index.empty() || methods.empty()) {
      auto it = method_index.find(n);
      return it == method_index.end() ? nullptr : it->second;
    }
    for (const auto& m : methods)
      if (m->name == n) return m.get();
    return nullptr;
  }
  [[nodiscard]] const MethodDecl* find_method(const std::string& n) const {
    return find_method(Symbol::intern(n));
  }
  [[nodiscard]] int find_field(Symbol n) const {
    if (!field_index.empty() || fields.empty()) {
      auto it = field_index.find(n);
      return it == field_index.end() ? -1 : it->second;
    }
    for (std::size_t i = 0; i < fields.size(); ++i)
      if (fields[i].name == n) return static_cast<int>(i);
    return -1;
  }
  [[nodiscard]] int find_field(const std::string& n) const {
    return find_field(Symbol::intern(n));
  }
};

struct Program {
  // Declared first so it is destroyed last: every AST node below lives in
  // this arena, and their destructors (run via AstPtr) must finish before
  // the backing chunks drop.
  support::Arena arena;
  std::vector<AstPtr<ClassDecl>> classes;
  int next_node_id = 0;  // one id space for stmts and exprs

  // Symbol-indexed class lookup, built by sema; empty before that (the
  // linear fallback covers parse-time and hand-built programs).
  std::unordered_map<Symbol, const ClassDecl*, SymbolHash> class_index;

  /// Allocate an AST node in this program's arena.
  template <typename T, typename... Args>
  AstPtr<T> make(Args&&... args) {
    return support::make_in<T>(arena, std::forward<Args>(args)...);
  }

  void build_class_index();

  [[nodiscard]] const ClassDecl* find_class(Symbol n) const {
    if (!class_index.empty() || classes.empty()) {
      auto it = class_index.find(n);
      return it == class_index.end() ? nullptr : it->second;
    }
    for (const auto& c : classes)
      if (c->name == n) return c.get();
    return nullptr;
  }
  [[nodiscard]] const ClassDecl* find_class(const std::string& n) const {
    return find_class(Symbol::intern(n));
  }
};

// ---------------------------------------------------------------------------
// Generic traversal helpers (implemented in ast.cpp)
// ---------------------------------------------------------------------------

/// Invoke fn on every statement in the subtree (pre-order), including st.
void for_each_stmt(const Stmt& st, const std::function<void(const Stmt&)>& fn);

/// Invoke fn on every expression in the statement subtree (pre-order).
void for_each_expr(const Stmt& st, const std::function<void(const Expr&)>& fn);

/// Invoke fn on every expression in the expression subtree, including e.
void for_each_expr_in(const Expr& e, const std::function<void(const Expr&)>& fn);

/// Render an operator as source text.
const char* binary_op_str(BinaryOp op);
const char* unary_op_str(UnaryOp op);

}  // namespace patty::lang
