#include "lang/clone.hpp"

#include "support/diagnostics.hpp"

namespace patty::lang {

namespace {

// Clones live in the same program's arena as the originals, so transformed
// trees share the tree's memory lifetime.
template <typename T>
AstPtr<T> shell(const Expr& src, Program& program) {
  auto node = program.make<T>();
  node->id = program.next_node_id++;
  node->range = src.range;
  node->type = src.type;
  return node;
}

template <typename T>
AstPtr<T> shell_stmt(const Stmt& src, Program& program) {
  auto node = program.make<T>();
  node->id = program.next_node_id++;
  node->range = src.range;
  return node;
}

}  // namespace

ExprPtr clone_expr(const Expr& e, Program& program) {
  switch (e.kind) {
    case ExprKind::IntLit: {
      auto n = shell<IntLit>(e, program);
      n->value = e.as<IntLit>().value;
      return n;
    }
    case ExprKind::DoubleLit: {
      auto n = shell<DoubleLit>(e, program);
      n->value = e.as<DoubleLit>().value;
      return n;
    }
    case ExprKind::BoolLit: {
      auto n = shell<BoolLit>(e, program);
      n->value = e.as<BoolLit>().value;
      return n;
    }
    case ExprKind::StringLit: {
      auto n = shell<StringLit>(e, program);
      n->value = e.as<StringLit>().value;
      return n;
    }
    case ExprKind::NullLit:
      return shell<NullLit>(e, program);
    case ExprKind::VarRef: {
      const auto& src = e.as<VarRef>();
      auto n = shell<VarRef>(e, program);
      n->name = src.name;
      n->slot = src.slot;
      n->field_index = src.field_index;
      n->owner_class = src.owner_class;
      return n;
    }
    case ExprKind::FieldAccess: {
      const auto& src = e.as<FieldAccess>();
      auto n = shell<FieldAccess>(e, program);
      n->object = clone_expr(*src.object, program);
      n->field = src.field;
      n->field_index = src.field_index;
      return n;
    }
    case ExprKind::IndexAccess: {
      const auto& src = e.as<IndexAccess>();
      auto n = shell<IndexAccess>(e, program);
      n->base = clone_expr(*src.base, program);
      n->index = clone_expr(*src.index, program);
      n->borrows_base = src.borrows_base;
      return n;
    }
    case ExprKind::Call: {
      const auto& src = e.as<Call>();
      auto n = shell<Call>(e, program);
      if (src.receiver) n->receiver = clone_expr(*src.receiver, program);
      n->name = src.name;
      for (const auto& a : src.args) n->args.push_back(clone_expr(*a, program));
      n->builtin = src.builtin;
      n->resolved = src.resolved;
      n->implicit_this = src.implicit_this;
      return n;
    }
    case ExprKind::New: {
      const auto& src = e.as<New>();
      auto n = shell<New>(e, program);
      n->class_name = src.class_name;
      for (const auto& a : src.args) n->args.push_back(clone_expr(*a, program));
      n->resolved = src.resolved;
      return n;
    }
    case ExprKind::NewArray: {
      const auto& src = e.as<NewArray>();
      auto n = shell<NewArray>(e, program);
      n->allocated = src.allocated;
      if (src.size) n->size = clone_expr(*src.size, program);
      return n;
    }
    case ExprKind::Binary: {
      const auto& src = e.as<Binary>();
      auto n = shell<Binary>(e, program);
      n->op = src.op;
      n->lhs = clone_expr(*src.lhs, program);
      n->rhs = clone_expr(*src.rhs, program);
      return n;
    }
    case ExprKind::Unary: {
      const auto& src = e.as<Unary>();
      auto n = shell<Unary>(e, program);
      n->op = src.op;
      n->operand = clone_expr(*src.operand, program);
      return n;
    }
  }
  fatal("unknown expression kind in clone_expr");
}

StmtPtr clone_stmt(const Stmt& st, Program& program) {
  switch (st.kind) {
    case StmtKind::Block: {
      const auto& src = st.as<Block>();
      auto n = shell_stmt<Block>(st, program);
      for (const auto& s : src.stmts) n->stmts.push_back(clone_stmt(*s, program));
      return n;
    }
    case StmtKind::VarDecl: {
      const auto& src = st.as<VarDecl>();
      auto n = shell_stmt<VarDecl>(st, program);
      n->declared = src.declared;
      n->name = src.name;
      if (src.init) n->init = clone_expr(*src.init, program);
      n->slot = src.slot;
      return n;
    }
    case StmtKind::Assign: {
      const auto& src = st.as<Assign>();
      auto n = shell_stmt<Assign>(st, program);
      n->target = clone_expr(*src.target, program);
      n->value = clone_expr(*src.value, program);
      return n;
    }
    case StmtKind::ExprStmt: {
      const auto& src = st.as<ExprStmt>();
      auto n = shell_stmt<ExprStmt>(st, program);
      n->expr = clone_expr(*src.expr, program);
      return n;
    }
    case StmtKind::If: {
      const auto& src = st.as<If>();
      auto n = shell_stmt<If>(st, program);
      n->cond = clone_expr(*src.cond, program);
      n->then_branch = clone_stmt(*src.then_branch, program);
      if (src.else_branch) n->else_branch = clone_stmt(*src.else_branch, program);
      return n;
    }
    case StmtKind::While: {
      const auto& src = st.as<While>();
      auto n = shell_stmt<While>(st, program);
      n->cond = clone_expr(*src.cond, program);
      n->body = clone_stmt(*src.body, program);
      return n;
    }
    case StmtKind::For: {
      const auto& src = st.as<For>();
      auto n = shell_stmt<For>(st, program);
      if (src.init) n->init = clone_stmt(*src.init, program);
      if (src.cond) n->cond = clone_expr(*src.cond, program);
      if (src.step) n->step = clone_stmt(*src.step, program);
      n->body = clone_stmt(*src.body, program);
      return n;
    }
    case StmtKind::Foreach: {
      const auto& src = st.as<Foreach>();
      auto n = shell_stmt<Foreach>(st, program);
      n->element_declared = src.element_declared;
      n->var_name = src.var_name;
      n->iterable = clone_expr(*src.iterable, program);
      n->body = clone_stmt(*src.body, program);
      n->slot = src.slot;
      return n;
    }
    case StmtKind::Return: {
      const auto& src = st.as<Return>();
      auto n = shell_stmt<Return>(st, program);
      if (src.value) n->value = clone_expr(*src.value, program);
      return n;
    }
    case StmtKind::Break:
      return shell_stmt<Break>(st, program);
    case StmtKind::Continue:
      return shell_stmt<Continue>(st, program);
    case StmtKind::Annotation: {
      const auto& src = st.as<Annotation>();
      auto n = shell_stmt<Annotation>(st, program);
      n->text = src.text;
      return n;
    }
  }
  fatal("unknown statement kind in clone_stmt");
}

}  // namespace patty::lang
