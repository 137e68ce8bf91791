#include "lang/sema.hpp"

#include <unordered_map>
#include <unordered_set>

#include "lang/parser.hpp"

namespace patty::lang {

namespace {

using support::Symbol;
using support::SymbolHash;

// Keyed by interned symbol: builtin lookup in analyze_call is an integer
// hash instead of a string hash.
const std::unordered_map<Symbol, Builtin, SymbolHash>& builtin_table() {
  static const std::unordered_map<Symbol, Builtin, SymbolHash> table = {
      {Symbol::intern("print"), Builtin::Print},
      {Symbol::intern("len"), Builtin::Len},
      {Symbol::intern("push"), Builtin::Push},
      {Symbol::intern("work"), Builtin::Work},
      {Symbol::intern("sqrt"), Builtin::Sqrt},
      {Symbol::intern("abs"), Builtin::Abs},
      {Symbol::intern("min"), Builtin::MinOf},
      {Symbol::intern("max"), Builtin::MaxOf},
      {Symbol::intern("floor"), Builtin::Floor},
      {Symbol::intern("str"), Builtin::ToStr},
      {Symbol::intern("clamp"), Builtin::Clamp},
  };
  return table;
}

}  // namespace

bool Sema::class_exists(const Type& t) {
  switch (t.kind) {
    case Type::Kind::Class: return program_->find_class(t.class_name) != nullptr;
    case Type::Kind::Array:
    case Type::Kind::List: return class_exists(*t.element);
    default: return true;
  }
}

bool Sema::analyze(Program& program) {
  program_ = &program;
  const std::size_t errors_before = diags_.error_count();

  std::unordered_set<Symbol, SymbolHash> class_names;
  for (auto& cls : program.classes) {
    if (!class_names.insert(cls->name).second)
      diags_.error(cls->range, "duplicate class '" + cls->name + "'");
  }
  program.build_class_index();

  // Resolve field types and indices first so methods can reference any class.
  for (auto& cls : program.classes) {
    std::unordered_set<Symbol, SymbolHash> member_names;
    for (std::size_t i = 0; i < cls->fields.size(); ++i) {
      FieldDecl& f = cls->fields[i];
      f.index = static_cast<int>(i);
      if (!member_names.insert(f.name).second)
        diags_.error(f.range, "duplicate field '" + f.name + "'");
      if (!class_exists(*f.type))
        diags_.error(f.range, "unknown type '" + f.type->str() + "'");
      if (f.type->kind == Type::Kind::Void)
        diags_.error(f.range, "field cannot have type void");
    }
    for (auto& m : cls->methods) {
      if (!member_names.insert(m->name).second)
        diags_.error(m->range, "duplicate member '" + m->name + "'");
      m->owner = cls.get();
    }
    // Freeze the indexed member tables (and the cached init/main methods)
    // now that fields and methods are final; every later find_method /
    // find_field on this class is a hash probe instead of a linear scan.
    cls->build_member_index();
  }

  for (auto& cls : program.classes) {
    current_class_ = cls.get();
    for (auto& m : cls->methods) analyze_method(*m);
  }
  current_class_ = nullptr;
  return diags_.error_count() == errors_before;
}

bool Sema::analyze_method(MethodDecl& method) {
  current_method_ = &method;
  scopes_.clear();
  slot_types_.clear();
  loop_depth_ = 0;
  push_scope();

  if (!class_exists(*method.return_type))
    diags_.error(method.range,
                 "unknown return type '" + method.return_type->str() + "'");
  for (Param& p : method.params) {
    if (!class_exists(*p.type))
      diags_.error(p.range, "unknown parameter type '" + p.type->str() + "'");
    p.slot = declare_local(p.name, p.range);
    if (p.slot >= 0) slot_types_[static_cast<std::size_t>(p.slot)] = p.type;
  }

  analyze_stmt(*method.body);

  pop_scope();
  method.local_slot_count = static_cast<int>(slot_types_.size());
  method.slot_names.resize(slot_types_.size());
  current_method_ = nullptr;
  return true;
}

void Sema::push_scope() { scopes_.emplace_back(); }

void Sema::pop_scope() { scopes_.pop_back(); }

int Sema::declare_local(Symbol name, SourceRange range) {
  for (const LocalVar& v : scopes_.back()) {
    if (v.name == name) {
      diags_.error(range, "redeclaration of '" + name + "' in the same scope");
      return v.slot;
    }
  }
  const int slot = static_cast<int>(slot_types_.size());
  slot_types_.push_back(Type::void_t());
  scopes_.back().push_back({name, slot, Type::void_t()});
  if (current_method_) {
    current_method_->slot_names.resize(slot_types_.size());
    current_method_->slot_names[static_cast<std::size_t>(slot)] = name;
  }
  return slot;
}

int Sema::lookup_local(Symbol name) const {
  for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope)
    for (const LocalVar& v : *scope)
      if (v.name == name) return v.slot;
  return -1;
}

void Sema::analyze_stmt(Stmt& st) {
  switch (st.kind) {
    case StmtKind::Block: {
      push_scope();
      for (auto& s : st.as<Block>().stmts) analyze_stmt(*s);
      pop_scope();
      break;
    }
    case StmtKind::VarDecl: {
      auto& d = st.as<VarDecl>();
      if (!class_exists(*d.declared))
        diags_.error(st.range, "unknown type '" + d.declared->str() + "'");
      if (d.declared->kind == Type::Kind::Void)
        diags_.error(st.range, "variable cannot have type void");
      TypePtr init_type;
      if (d.init) init_type = analyze_expr(*d.init);
      d.slot = declare_local(d.name, st.range);
      if (d.slot >= 0) slot_types_[static_cast<std::size_t>(d.slot)] = d.declared;
      if (d.init && init_type && !assignable(*d.declared, *init_type)) {
        diags_.error(st.range, "cannot initialize '" + d.declared->str() +
                                   "' from '" + init_type->str() + "'");
      }
      break;
    }
    case StmtKind::Assign: {
      auto& a = st.as<Assign>();
      TypePtr target_type = analyze_expr(*a.target);
      check_assignable_expr(*a.target);
      TypePtr value_type = analyze_expr(*a.value);
      if (target_type && value_type && !assignable(*target_type, *value_type)) {
        diags_.error(st.range, "cannot assign '" + value_type->str() +
                                   "' to '" + target_type->str() + "'");
      }
      break;
    }
    case StmtKind::ExprStmt:
      analyze_expr(*st.as<ExprStmt>().expr);
      break;
    case StmtKind::If: {
      auto& i = st.as<If>();
      TypePtr cond = analyze_expr(*i.cond);
      if (cond->kind != Type::Kind::Bool)
        diags_.error(i.cond->range,
                     "if condition must be bool, got '" + cond->str() + "'");
      analyze_stmt(*i.then_branch);
      if (i.else_branch) analyze_stmt(*i.else_branch);
      break;
    }
    case StmtKind::While: {
      auto& w = st.as<While>();
      TypePtr cond = analyze_expr(*w.cond);
      if (cond->kind != Type::Kind::Bool)
        diags_.error(w.cond->range,
                     "while condition must be bool, got '" + cond->str() + "'");
      ++loop_depth_;
      analyze_stmt(*w.body);
      --loop_depth_;
      break;
    }
    case StmtKind::For: {
      auto& f = st.as<For>();
      push_scope();
      if (f.init) analyze_stmt(*f.init);
      if (f.cond) {
        TypePtr cond = analyze_expr(*f.cond);
        if (cond->kind != Type::Kind::Bool)
          diags_.error(f.cond->range,
                       "for condition must be bool, got '" + cond->str() + "'");
      }
      if (f.step) analyze_stmt(*f.step);
      ++loop_depth_;
      analyze_stmt(*f.body);
      --loop_depth_;
      pop_scope();
      break;
    }
    case StmtKind::Foreach: {
      auto& f = st.as<Foreach>();
      TypePtr iter = analyze_expr(*f.iterable);
      TypePtr elem;
      if (iter->kind == Type::Kind::Array || iter->kind == Type::Kind::List) {
        elem = iter->element;
      } else {
        diags_.error(f.iterable->range,
                     "foreach needs an array or list, got '" + iter->str() + "'");
        elem = Type::int_t();
      }
      if (!class_exists(*f.element_declared))
        diags_.error(st.range,
                     "unknown type '" + f.element_declared->str() + "'");
      if (!assignable(*f.element_declared, *elem))
        diags_.error(st.range, "loop variable type '" +
                                   f.element_declared->str() +
                                   "' does not match element type '" +
                                   elem->str() + "'");
      push_scope();
      f.slot = declare_local(f.var_name, st.range);
      if (f.slot >= 0)
        slot_types_[static_cast<std::size_t>(f.slot)] = f.element_declared;
      ++loop_depth_;
      analyze_stmt(*f.body);
      --loop_depth_;
      pop_scope();
      break;
    }
    case StmtKind::Return: {
      auto& r = st.as<Return>();
      const TypePtr& want = current_method_->return_type;
      if (r.value) {
        TypePtr got = analyze_expr(*r.value);
        if (want->kind == Type::Kind::Void) {
          diags_.error(st.range, "void method cannot return a value");
        } else if (!assignable(*want, *got)) {
          diags_.error(st.range, "cannot return '" + got->str() +
                                     "' from method returning '" +
                                     want->str() + "'");
        }
      } else if (want->kind != Type::Kind::Void) {
        diags_.error(st.range, "non-void method must return a value");
      }
      break;
    }
    case StmtKind::Break:
      if (loop_depth_ == 0) diags_.error(st.range, "break outside of a loop");
      break;
    case StmtKind::Continue:
      if (loop_depth_ == 0)
        diags_.error(st.range, "continue outside of a loop");
      break;
    case StmtKind::Annotation:
      break;  // annotations are semantically transparent
  }
}

void Sema::check_assignable_expr(const Expr& target) {
  switch (target.kind) {
    case ExprKind::VarRef:
    case ExprKind::FieldAccess:
    case ExprKind::IndexAccess:
      return;
    default:
      diags_.error(target.range, "expression is not assignable");
  }
}

TypePtr Sema::analyze_expr(Expr& e) {
  TypePtr result;
  switch (e.kind) {
    case ExprKind::IntLit: result = Type::int_t(); break;
    case ExprKind::DoubleLit: result = Type::double_t(); break;
    case ExprKind::BoolLit: result = Type::bool_t(); break;
    case ExprKind::StringLit: result = Type::string_t(); break;
    case ExprKind::NullLit: result = Type::null_t(); break;
    case ExprKind::VarRef: {
      auto& ref = e.as<VarRef>();
      const int slot = lookup_local(ref.name);
      if (slot >= 0) {
        ref.slot = slot;
        result = slot_types_[static_cast<std::size_t>(slot)];
        break;
      }
      const int field = current_class_ ? current_class_->find_field(ref.name) : -1;
      if (field >= 0) {
        ref.field_index = field;
        ref.owner_class = current_class_;
        result = current_class_->fields[static_cast<std::size_t>(field)].type;
        break;
      }
      diags_.error(e.range, "unknown name '" + ref.name + "'");
      result = Type::int_t();
      break;
    }
    case ExprKind::FieldAccess: {
      auto& f = e.as<FieldAccess>();
      TypePtr obj = analyze_expr(*f.object);
      if (obj->kind != Type::Kind::Class) {
        diags_.error(e.range,
                     "field access on non-class type '" + obj->str() + "'");
        result = Type::int_t();
        break;
      }
      const ClassDecl* cls = program_->find_class(obj->class_name);
      if (!cls) {
        diags_.error(e.range, "unknown class '" + obj->class_name + "'");
        result = Type::int_t();
        break;
      }
      const int idx = cls->find_field(f.field);
      if (idx < 0) {
        diags_.error(e.range, "class '" + cls->name + "' has no field '" +
                                  f.field + "'");
        result = Type::int_t();
        break;
      }
      f.field_index = idx;
      result = cls->fields[static_cast<std::size_t>(idx)].type;
      break;
    }
    case ExprKind::IndexAccess: {
      auto& ix = e.as<IndexAccess>();
      TypePtr base = analyze_expr(*ix.base);
      TypePtr index = analyze_expr(*ix.index);
      if (index->kind != Type::Kind::Int)
        diags_.error(ix.index->range,
                     "index must be int, got '" + index->str() + "'");
      if (ix.base->kind == ExprKind::VarRef) {
        bool runs_code = false;
        for_each_expr_in(*ix.index, [&runs_code](const Expr& x) {
          runs_code = runs_code || x.kind == ExprKind::New ||
                      (x.kind == ExprKind::Call &&
                       x.as<Call>().builtin == Builtin::None);
        });
        ix.borrows_base = !runs_code;
      }
      if (base->kind == Type::Kind::Array || base->kind == Type::Kind::List) {
        result = base->element;
      } else {
        diags_.error(e.range, "indexing non-array type '" + base->str() + "'");
        result = Type::int_t();
      }
      break;
    }
    case ExprKind::Call:
      result = analyze_call(e.as<Call>());
      break;
    case ExprKind::New: {
      auto& n = e.as<New>();
      const ClassDecl* cls = program_->find_class(n.class_name);
      if (!cls) {
        diags_.error(e.range, "unknown class '" + n.class_name + "'");
        result = Type::int_t();
        break;
      }
      n.resolved = cls;
      for (auto& a : n.args) analyze_expr(*a);
      const MethodDecl* ctor = cls->ctor;
      if (ctor) {
        if (n.args.size() != ctor->params.size())
          diags_.error(e.range, "constructor of '" + cls->name + "' takes " +
                                    std::to_string(ctor->params.size()) +
                                    " argument(s), got " +
                                    std::to_string(n.args.size()));
        for (std::size_t i = 0;
             i < std::min(n.args.size(), ctor->params.size()); ++i) {
          if (!assignable(*ctor->params[i].type, *n.args[i]->type))
            diags_.error(n.args[i]->range,
                         "constructor argument " + std::to_string(i + 1) +
                             ": cannot pass '" + n.args[i]->type->str() +
                             "' as '" + ctor->params[i].type->str() + "'");
        }
      } else if (!n.args.empty()) {
        diags_.error(e.range,
                     "class '" + cls->name + "' has no 'init' constructor");
      }
      result = Type::class_t(n.class_name);
      break;
    }
    case ExprKind::NewArray: {
      auto& n = e.as<NewArray>();
      if (!class_exists(*n.allocated))
        diags_.error(e.range, "unknown type '" + n.allocated->str() + "'");
      if (n.size) {
        TypePtr sz = analyze_expr(*n.size);
        if (sz->kind != Type::Kind::Int)
          diags_.error(n.size->range, "array size must be int");
      }
      result = n.allocated;
      break;
    }
    case ExprKind::Binary:
      result = analyze_binary(e.as<Binary>());
      break;
    case ExprKind::Unary: {
      auto& u = e.as<Unary>();
      TypePtr operand = analyze_expr(*u.operand);
      if (u.op == UnaryOp::Neg) {
        if (!operand->is_numeric())
          diags_.error(e.range, "unary '-' needs a numeric operand");
        result = operand;
      } else {
        if (operand->kind != Type::Kind::Bool)
          diags_.error(e.range, "unary '!' needs a bool operand");
        result = Type::bool_t();
      }
      break;
    }
  }
  if (!result) result = Type::int_t();
  e.type = result;
  return result;
}

TypePtr Sema::analyze_binary(Binary& b) {
  TypePtr lhs = analyze_expr(*b.lhs);
  TypePtr rhs = analyze_expr(*b.rhs);
  switch (b.op) {
    case BinaryOp::Add:
      // `+` is numeric addition or string concatenation (string with any
      // scalar operand on either side).
      if (lhs->kind == Type::Kind::String || rhs->kind == Type::Kind::String)
        return Type::string_t();
      [[fallthrough]];
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
      if (!lhs->is_numeric() || !rhs->is_numeric())
        diags_.error(b.range, std::string("operator '") + binary_op_str(b.op) +
                                  "' needs numeric operands, got '" +
                                  lhs->str() + "' and '" + rhs->str() + "'");
      if (lhs->kind == Type::Kind::Double || rhs->kind == Type::Kind::Double)
        return Type::double_t();
      return Type::int_t();
    case BinaryOp::Mod:
      if (lhs->kind != Type::Kind::Int || rhs->kind != Type::Kind::Int)
        diags_.error(b.range, "operator '%' needs int operands");
      return Type::int_t();
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if (!(lhs->is_numeric() && rhs->is_numeric()) &&
          !(lhs->kind == Type::Kind::String && rhs->kind == Type::Kind::String))
        diags_.error(b.range,
                     "relational operator needs numeric or string operands");
      return Type::bool_t();
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      if (!(lhs->is_numeric() && rhs->is_numeric()) && !same_type(*lhs, *rhs) &&
          !(lhs->is_reference() && rhs->kind == Type::Kind::Null) &&
          !(rhs->is_reference() && lhs->kind == Type::Kind::Null))
        diags_.error(b.range, "cannot compare '" + lhs->str() + "' with '" +
                                  rhs->str() + "'");
      return Type::bool_t();
    case BinaryOp::And:
    case BinaryOp::Or:
      if (lhs->kind != Type::Kind::Bool || rhs->kind != Type::Kind::Bool)
        diags_.error(b.range, "logical operator needs bool operands");
      return Type::bool_t();
  }
  return Type::int_t();
}

TypePtr Sema::analyze_call(Call& call) {
  for (auto& a : call.args) analyze_expr(*a);

  if (!call.receiver) {
    // Builtin or implicit-this method.
    auto it = builtin_table().find(call.name);
    const MethodDecl* own =
        current_class_ ? current_class_->find_method(call.name) : nullptr;
    if (own) {
      call.resolved = own;
      call.implicit_this = true;
    } else if (it != builtin_table().end()) {
      call.builtin = it->second;
      return analyze_builtin(call);
    } else {
      diags_.error(call.range, "unknown function '" + call.name + "'");
      return Type::int_t();
    }
  } else {
    TypePtr recv = analyze_expr(*call.receiver);
    if (recv->kind != Type::Kind::Class) {
      diags_.error(call.range,
                   "method call on non-class type '" + recv->str() + "'");
      return Type::int_t();
    }
    const ClassDecl* cls = program_->find_class(recv->class_name);
    if (!cls) {
      diags_.error(call.range, "unknown class '" + recv->class_name + "'");
      return Type::int_t();
    }
    const MethodDecl* m = cls->find_method(call.name);
    if (!m) {
      diags_.error(call.range, "class '" + cls->name + "' has no method '" +
                                   call.name + "'");
      return Type::int_t();
    }
    call.resolved = m;
  }

  const MethodDecl* m = call.resolved;
  if (call.args.size() != m->params.size())
    diags_.error(call.range, "method '" + m->name + "' takes " +
                                 std::to_string(m->params.size()) +
                                 " argument(s), got " +
                                 std::to_string(call.args.size()));
  for (std::size_t i = 0; i < std::min(call.args.size(), m->params.size());
       ++i) {
    if (!assignable(*m->params[i].type, *call.args[i]->type))
      diags_.error(call.args[i]->range,
                   "argument " + std::to_string(i + 1) + " of '" + m->name +
                       "': cannot pass '" + call.args[i]->type->str() +
                       "' as '" + m->params[i].type->str() + "'");
  }
  return m->return_type;
}

TypePtr Sema::analyze_builtin(Call& call) {
  auto arity = [&](std::size_t n) {
    if (call.args.size() == n) return true;
    diags_.error(call.range, "builtin '" + call.name + "' takes " +
                                 std::to_string(n) + " argument(s), got " +
                                 std::to_string(call.args.size()));
    return false;
  };
  // Reports `message` unless `ok`; the builtin checks' messages are fixed.
  auto require = [&](bool ok, const char* message) {
    if (!ok) diags_.error(call.range, message);
  };
  auto arg_type = [&](std::size_t i) -> const Type& {
    return *call.args[i]->type;
  };
  switch (call.builtin) {
    case Builtin::Print:
      arity(1);
      return Type::void_t();
    case Builtin::Len:
      if (arity(1)) {
        const Type& t = arg_type(0);
        require(t.kind == Type::Kind::Array || t.kind == Type::Kind::List ||
                    t.kind == Type::Kind::String,
                "len() needs an array, list, or string");
      }
      return Type::int_t();
    case Builtin::Push:
      if (arity(2)) {
        const Type& t = arg_type(0);
        require(t.kind == Type::Kind::List,
                "push() needs a list as first argument");
        if (t.kind == Type::Kind::List &&
            !assignable(*t.element, arg_type(1))) {
          diags_.error(call.range, "push() element type mismatch: list of '" +
                                       t.element->str() + "', got '" +
                                       arg_type(1).str() + "'");
        }
      }
      return Type::void_t();
    case Builtin::Work:
      if (arity(1)) {
        require(arg_type(0).kind == Type::Kind::Int,
                "work() needs an int cost");
      }
      return Type::int_t();
    case Builtin::Sqrt:
      if (arity(1)) {
        require(arg_type(0).is_numeric(), "sqrt() needs a numeric argument");
      }
      return Type::double_t();
    case Builtin::Abs:
      if (arity(1)) {
        require(arg_type(0).is_numeric(), "abs() needs a numeric argument");
        return call.args[0]->type;
      }
      return Type::int_t();
    case Builtin::MinOf:
    case Builtin::MaxOf:
      if (arity(2)) {
        require(arg_type(0).is_numeric() && arg_type(1).is_numeric(),
                "min()/max() need numeric arguments");
        if (arg_type(0).kind == Type::Kind::Double ||
            arg_type(1).kind == Type::Kind::Double)
          return Type::double_t();
      }
      return Type::int_t();
    case Builtin::Floor:
      if (arity(1)) {
        require(arg_type(0).is_numeric(), "floor() needs a numeric argument");
      }
      return Type::int_t();
    case Builtin::ToStr:
      arity(1);
      return Type::string_t();
    case Builtin::Clamp:
      if (arity(3)) {
        for (std::size_t i = 0; i < 3; ++i)
          require(arg_type(i).kind == Type::Kind::Int,
                  "clamp() needs int arguments");
      }
      return Type::int_t();
    case Builtin::None:
      break;
  }
  fatal("unhandled builtin in sema");
}

std::unique_ptr<Program> parse_and_check(std::string_view source,
                                         DiagnosticSink& diags) {
  auto program = parse_source(source, diags);
  if (!program) return nullptr;
  Sema sema(diags);
  if (!sema.analyze(*program)) return nullptr;
  return program;
}

}  // namespace patty::lang
