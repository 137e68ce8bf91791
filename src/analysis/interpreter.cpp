#include "analysis/interpreter.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/cancellation.hpp"
#include "support/diagnostics.hpp"

namespace patty::analysis {

using lang::Builtin;
using lang::ExprKind;
using lang::StmtKind;

namespace {

/// Cost units one uninterrupted burn covers: about 0.1 ms of CPU.
constexpr std::uint64_t kWorkSliceUnits = 1024;

/// Steps a thread takes from an interpreter's budget at a time.
constexpr std::uint64_t kStepClaim = 1024;

/// The calling thread's unspent claim, and the id of the interpreter it was
/// taken from. A thread that moves on to another interpreter drops the rest
/// of its claim: the step limit can then fire early, never late.
struct StepClaim {
  std::uint64_t owner = 0;
  std::uint64_t left = 0;
};
thread_local StepClaim t_claim;

std::atomic<std::uint64_t> g_next_interpreter_id{1};

/// The CPU burner behind `work(n)`: 60 iterations of a deterministic
/// integer mix per cost unit (`volatile` keeps the optimizer from
/// collapsing the loop, so one unit is a stable amount of real CPU work).
/// A call longer than one slice checks the ambient stop token between
/// slices, so a deadline cuts it short; a call that fits one slice does no
/// extra check.
void burn_work(std::uint64_t units) {
  for (;;) {
    const std::uint64_t slice = std::min(units, kWorkSliceUnits);
    volatile std::uint64_t acc = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < slice * 60; ++i)
      acc = (acc ^ (acc >> 13)) * 0xff51afd7ed558ccdULL + i;
    units -= slice;
    if (units == 0) return;
    if (rt::stop_requested()) throw rt::OperationCancelled("work()");
  }
}

MemLoc local_cell(const Frame& frame, std::int64_t slot) {
  return {MemLoc::Kind::Local, &frame, frame.serial, slot};
}

MemLoc field_cell(const Object& object, std::int64_t field) {
  return {MemLoc::Kind::Field, &object, object.serial, field};
}

template <typename Collection>
MemLoc element_cell(const Collection& collection, std::int64_t index) {
  return {MemLoc::Kind::Element, &collection, collection.serial, index};
}

}  // namespace

thread_local const lang::Stmt* Interpreter::current_stmt_ = nullptr;

Interpreter::Interpreter(const lang::Program& program, Tracer* tracer,
                         Options options)
    : program_(program),
      tracer_(tracer),
      id_(g_next_interpreter_id.fetch_add(1, std::memory_order_relaxed)),
      unclaimed_steps_(options.max_steps) {}

void Interpreter::error(SourceRange range, std::string message) const {
  throw RuntimeError{std::move(message), range};
}

void Interpreter::charge(const lang::Stmt& st) {
  StepClaim& claim = t_claim;
  if (claim.owner != id_ || claim.left == 0) claim_steps(st);
  --claim.left;
  if (tracer_) {
    current_stmt_ = &st;
    tracer_->on_stmt(st);
  }
}

void Interpreter::claim_steps(const lang::Stmt& st) {
  // Relaxed: the budget orders nothing but itself.
  std::uint64_t unclaimed = unclaimed_steps_.load(std::memory_order_relaxed);
  std::uint64_t take = 0;
  do {
    if (unclaimed == 0)
      error(st.range, "step limit exceeded (possible infinite loop)");
    take = std::min(unclaimed, kStepClaim);
  } while (!unclaimed_steps_.compare_exchange_weak(
      unclaimed, unclaimed - take, std::memory_order_relaxed));
  t_claim = {id_, take};
}

std::string Interpreter::output() const {
  std::scoped_lock lock(output_mutex_);
  return output_;
}

void Interpreter::clear_output() {
  std::scoped_lock lock(output_mutex_);
  output_.clear();
}

Value Interpreter::run_main() {
  const lang::ClassDecl* entry = nullptr;
  const lang::MethodDecl* main_method = nullptr;
  static const lang::Symbol kMain = lang::Symbol::intern("main");
  for (const auto& cls : program_.classes) {
    if (const lang::MethodDecl* m = cls->main_method
                                        ? cls->main_method
                                        : cls->find_method(kMain)) {
      if (entry) error(cls->range, "multiple classes declare main()");
      entry = cls.get();
      main_method = m;
    }
  }
  if (!entry) error({}, "no class declares main()");
  Value self = instantiate(*entry, {});
  return call(*main_method, self, {});
}

Value Interpreter::instantiate(const lang::ClassDecl& cls,
                               std::vector<Value> args) {
  auto obj = std::make_shared<Object>();
  obj->cls = &cls;
  obj->serial = stamp();
  obj->fields.reserve(cls.fields.size());
  for (const auto& f : cls.fields) obj->fields.push_back(default_value(*f.type));
  Value self = Value::of_object(obj);
  static const lang::Symbol kInit = lang::Symbol::intern("init");
  if (const lang::MethodDecl* ctor =
          cls.ctor ? cls.ctor : cls.find_method(kInit)) {
    call(*ctor, self, std::move(args));
  } else if (!args.empty()) {
    error(cls.range, "class '" + cls.name + "' has no constructor");
  }
  return self;
}

Value Interpreter::call(const lang::MethodDecl& method, Value self,
                        std::vector<Value> args, const lang::Stmt* call_site) {
  if (tracer_) tracer_->on_call(method, call_site);
  Frame frame;
  frame.serial = stamp();
  frame.self_value = std::move(self);
  frame.locals.resize(static_cast<std::size_t>(method.local_slot_count));
  if (args.size() != method.params.size())
    error(method.range, "argument count mismatch calling '" + method.name + "'");
  for (std::size_t i = 0; i < args.size(); ++i) {
    const int slot = method.params[i].slot;
    // Widen int arguments into double parameters at the call boundary.
    if (method.params[i].type->kind == lang::Type::Kind::Double &&
        args[i].is_int())
      args[i] = Value::of_double(static_cast<double>(args[i].as_int()));
    frame.locals[static_cast<std::size_t>(slot)] = std::move(args[i]);
  }
  // The callee's statements overwrite current_stmt_; restore it so traces
  // issued by the caller *after* the call (e.g. the write of
  // `x = obj.Method()`) attribute to the calling statement, not to the
  // callee's last statement.
  const lang::Stmt* saved_stmt = current_stmt_;
  const ExecSignal sig = exec_stmt(*method.body, frame);
  current_stmt_ = saved_stmt;
  if (tracer_) tracer_->on_return(method);
  if (sig == ExecSignal::Return) return std::move(frame.return_value);
  return default_value(*method.return_type);
}

ExecSignal Interpreter::exec_stmt(const lang::Stmt& st, Frame& frame) {
  if (interceptor_) {
    ExecSignal signal = ExecSignal::Normal;
    if (interceptor_->intercept(st, frame, *this, &signal)) return signal;
  }
  switch (st.kind) {
    case StmtKind::Block: {
      for (const auto& s : st.as<lang::Block>().stmts) {
        const ExecSignal sig = exec_stmt(*s, frame);
        if (sig != ExecSignal::Normal) return sig;
      }
      return ExecSignal::Normal;
    }
    case StmtKind::VarDecl: {
      charge(st);
      const auto& d = st.as<lang::VarDecl>();
      Value v = d.init ? eval(*d.init, frame) : default_value(*d.declared);
      if (d.declared->kind == lang::Type::Kind::Double && v.is_int())
        v = Value::of_double(static_cast<double>(v.as_int()));
      frame.locals[static_cast<std::size_t>(d.slot)] = std::move(v);
      trace_write(local_cell(frame, d.slot));
      return ExecSignal::Normal;
    }
    case StmtKind::Assign: {
      charge(st);
      const auto& a = st.as<lang::Assign>();
      Value v = eval(*a.value, frame);
      if (a.target->type && a.target->type->kind == lang::Type::Kind::Double &&
          v.is_int())
        v = Value::of_double(static_cast<double>(v.as_int()));
      assign_to(*a.target, std::move(v), frame);
      return ExecSignal::Normal;
    }
    case StmtKind::ExprStmt:
      charge(st);
      eval(*st.as<lang::ExprStmt>().expr, frame);
      return ExecSignal::Normal;
    case StmtKind::If: {
      charge(st);
      const auto& i = st.as<lang::If>();
      const bool taken = eval(*i.cond, frame).as_bool();
      if (tracer_) tracer_->on_branch(st, taken);
      if (taken) return exec_stmt(*i.then_branch, frame);
      if (i.else_branch) return exec_stmt(*i.else_branch, frame);
      return ExecSignal::Normal;
    }
    case StmtKind::While: {
      const auto& w = st.as<lang::While>();
      if (tracer_) tracer_->on_loop_enter(st);
      std::int64_t iter = 0;
      while (true) {
        charge(st);
        if (!eval(*w.cond, frame).as_bool()) break;
        if (tracer_) tracer_->on_loop_iteration(st, iter++);
        const ExecSignal sig = exec_stmt(*w.body, frame);
        if (sig == ExecSignal::Break) break;
        if (sig == ExecSignal::Return) {
          if (tracer_) tracer_->on_loop_exit(st);
          return sig;
        }
      }
      if (tracer_) tracer_->on_loop_exit(st);
      return ExecSignal::Normal;
    }
    case StmtKind::For: {
      const auto& f = st.as<lang::For>();
      if (tracer_) tracer_->on_loop_enter(st);
      if (f.init) exec_stmt(*f.init, frame);
      std::int64_t iter = 0;
      while (true) {
        charge(st);
        if (f.cond && !eval(*f.cond, frame).as_bool()) break;
        if (tracer_) tracer_->on_loop_iteration(st, iter++);
        const ExecSignal sig = exec_stmt(*f.body, frame);
        if (sig == ExecSignal::Break) break;
        if (sig == ExecSignal::Return) {
          if (tracer_) tracer_->on_loop_exit(st);
          return sig;
        }
        if (f.step) exec_stmt(*f.step, frame);
      }
      if (tracer_) tracer_->on_loop_exit(st);
      return ExecSignal::Normal;
    }
    case StmtKind::Foreach: {
      const auto& f = st.as<lang::Foreach>();
      charge(st);
      Value iterable = eval(*f.iterable, frame);
      if (tracer_) tracer_->on_loop_enter(st);
      // Snapshot the element count up front; appends during iteration are
      // not observed (matches the usual iterator-invalidation contract).
      std::size_t count = 0;
      if (iterable.is_array()) count = iterable.as_array()->elems.size();
      else if (iterable.is_list()) count = iterable.as_list()->elems.size();
      else error(f.iterable->range, "foreach over null collection");
      ExecSignal result = ExecSignal::Normal;
      for (std::size_t i = 0; i < count; ++i) {
        charge(st);
        if (tracer_)
          tracer_->on_loop_iteration(st, static_cast<std::int64_t>(i));
        Value elem = iterable.is_array() ? iterable.as_array()->elems[i]
                                         : iterable.as_list()->elems[i];
        frame.locals[static_cast<std::size_t>(f.slot)] = std::move(elem);
        trace_write(local_cell(frame, f.slot));
        const ExecSignal sig = exec_stmt(*f.body, frame);
        if (sig == ExecSignal::Break) break;
        if (sig == ExecSignal::Return) {
          result = sig;
          break;
        }
      }
      if (tracer_) tracer_->on_loop_exit(st);
      return result;
    }
    case StmtKind::Return: {
      charge(st);
      const auto& r = st.as<lang::Return>();
      if (r.value) frame.return_value = eval(*r.value, frame);
      return ExecSignal::Return;
    }
    case StmtKind::Break:
      charge(st);
      return ExecSignal::Break;
    case StmtKind::Continue:
      charge(st);
      return ExecSignal::Continue;
    case StmtKind::Annotation:
      return ExecSignal::Normal;  // semantically transparent
  }
  fatal("unknown statement kind in interpreter");
}

void Interpreter::assign_to(const lang::Expr& target, Value value,
                            Frame& frame) {
  switch (target.kind) {
    case ExprKind::VarRef: {
      const auto& ref = target.as<lang::VarRef>();
      if (ref.is_local()) {
        frame.locals[static_cast<std::size_t>(ref.slot)] = std::move(value);
        trace_write(local_cell(frame, ref.slot));
        return;
      }
      Object* self = frame.self();
      if (!self) error(target.range, "field write without object context");
      self->fields[static_cast<std::size_t>(ref.field_index)] = std::move(value);
      trace_write(field_cell(*self, ref.field_index));
      return;
    }
    case ExprKind::FieldAccess: {
      const auto& fa = target.as<lang::FieldAccess>();
      Value obj = eval(*fa.object, frame);
      if (!obj.is_object() || !obj.as_object())
        error(target.range, "field write on null");
      Object* o = obj.as_object();
      o->fields[static_cast<std::size_t>(fa.field_index)] = std::move(value);
      trace_write(field_cell(*o, fa.field_index));
      return;
    }
    case ExprKind::IndexAccess: {
      const auto& ix = target.as<lang::IndexAccess>();
      // A borrowed base is read in its variable's slot: only program code
      // could reassign it, and a borrowing index runs none
      // (IndexAccess::borrows_base).
      Value copy;
      const Value& base =
          ix.borrows_base
              ? variable(ix.base->as<lang::VarRef>(), frame, ix.base->range)
              : (copy = eval(*ix.base, frame));
      const std::int64_t i =
          check_index(base, eval(*ix.index, frame), target.range);
      if (base.is_array()) {
        base.as_array()->elems[static_cast<std::size_t>(i)] = std::move(value);
        trace_write(element_cell(*base.as_array(), i));
      } else {
        base.as_list()->elems[static_cast<std::size_t>(i)] = std::move(value);
        trace_write(element_cell(*base.as_list(), i));
      }
      return;
    }
    default:
      error(target.range, "expression is not assignable");
  }
}

std::int64_t Interpreter::check_index(const Value& container,
                                      const Value& index,
                                      SourceRange range) const {
  if (!index.is_int()) error(range, "index is not an int");
  const std::int64_t i = index.as_int();
  std::int64_t size = 0;
  if (container.is_array() && container.as_array())
    size = static_cast<std::int64_t>(container.as_array()->elems.size());
  else if (container.is_list() && container.as_list())
    size = static_cast<std::int64_t>(container.as_list()->elems.size());
  else
    error(range, "indexing a null collection");
  if (i < 0 || i >= size)
    error(range, "index " + std::to_string(i) + " out of bounds (size " +
                     std::to_string(size) + ")");
  return i;
}

const Value& Interpreter::variable(const lang::VarRef& ref,
                                   const Frame& frame, SourceRange range) {
  if (ref.is_local()) {
    trace_read(local_cell(frame, ref.slot));
    return frame.locals[static_cast<std::size_t>(ref.slot)];
  }
  Object* self = frame.self();
  if (!self) error(range, "field read without object context");
  trace_read(field_cell(*self, ref.field_index));
  return self->fields[static_cast<std::size_t>(ref.field_index)];
}

Value Interpreter::eval(const lang::Expr& e, Frame& frame) {
  switch (e.kind) {
    case ExprKind::IntLit: return Value::of_int(e.as<lang::IntLit>().value);
    case ExprKind::DoubleLit:
      return Value::of_double(e.as<lang::DoubleLit>().value);
    case ExprKind::BoolLit: return Value::of_bool(e.as<lang::BoolLit>().value);
    case ExprKind::StringLit:
      return Value::of_string(e.as<lang::StringLit>().value);
    case ExprKind::NullLit: return Value();
    case ExprKind::VarRef:
      return variable(e.as<lang::VarRef>(), frame, e.range);
    case ExprKind::FieldAccess: {
      const auto& fa = e.as<lang::FieldAccess>();
      Value obj = eval(*fa.object, frame);
      if (!obj.is_object() || !obj.as_object())
        error(e.range, "field read on null");
      trace_read(field_cell(*obj.as_object(), fa.field_index));
      return obj.as_object()->fields[static_cast<std::size_t>(fa.field_index)];
    }
    case ExprKind::IndexAccess: {
      const auto& ix = e.as<lang::IndexAccess>();
      Value copy;
      const Value& base =
          ix.borrows_base
              ? variable(ix.base->as<lang::VarRef>(), frame, ix.base->range)
              : (copy = eval(*ix.base, frame));
      const std::int64_t i = check_index(base, eval(*ix.index, frame), e.range);
      if (base.is_array()) {
        trace_read(element_cell(*base.as_array(), i));
        return base.as_array()->elems[static_cast<std::size_t>(i)];
      }
      trace_read(element_cell(*base.as_list(), i));
      return base.as_list()->elems[static_cast<std::size_t>(i)];
    }
    case ExprKind::Call: return eval_call(e.as<lang::Call>(), frame);
    case ExprKind::New: {
      const auto& n = e.as<lang::New>();
      std::vector<Value> args;
      args.reserve(n.args.size());
      for (const auto& a : n.args) args.push_back(eval(*a, frame));
      return instantiate(*n.resolved, std::move(args));
    }
    case ExprKind::NewArray: {
      const auto& n = e.as<lang::NewArray>();
      if (n.allocated->kind == lang::Type::Kind::List) {
        auto list = std::make_shared<ListVal>();
        list->element = n.allocated->element;
        list->serial = stamp();
        return Value::of_list(std::move(list));
      }
      const std::int64_t size = eval(*n.size, frame).as_int();
      if (size < 0) error(e.range, "negative array size");
      auto arr = std::make_shared<ArrayVal>();
      arr->element = n.allocated->element;
      arr->serial = stamp();
      arr->elems.assign(static_cast<std::size_t>(size),
                        default_value(*n.allocated->element));
      return Value::of_array(std::move(arr));
    }
    case ExprKind::Binary: return eval_binary(e.as<lang::Binary>(), frame);
    case ExprKind::Unary: {
      const auto& u = e.as<lang::Unary>();
      Value v = eval(*u.operand, frame);
      if (u.op == lang::UnaryOp::Neg) {
        if (v.is_int()) return Value::of_int(-v.as_int());
        return Value::of_double(-v.to_double());
      }
      return Value::of_bool(!v.as_bool());
    }
  }
  fatal("unknown expression kind in interpreter");
}

Value Interpreter::eval_binary(const lang::Binary& b, Frame& frame) {
  using lang::BinaryOp;
  // Short-circuit operators evaluate the right side lazily.
  if (b.op == BinaryOp::And) {
    if (!eval(*b.lhs, frame).as_bool()) return Value::of_bool(false);
    return Value::of_bool(eval(*b.rhs, frame).as_bool());
  }
  if (b.op == BinaryOp::Or) {
    if (eval(*b.lhs, frame).as_bool()) return Value::of_bool(true);
    return Value::of_bool(eval(*b.rhs, frame).as_bool());
  }

  Value lhs = eval(*b.lhs, frame);
  Value rhs = eval(*b.rhs, frame);

  auto numeric = [&](auto int_op, auto double_op) -> Value {
    if (lhs.is_int() && rhs.is_int())
      return Value::of_int(int_op(lhs.as_int(), rhs.as_int()));
    return Value::of_double(double_op(lhs.to_double(), rhs.to_double()));
  };
  auto compare = [&](auto cmp) -> Value {
    if (lhs.is_string() && rhs.is_string())
      return Value::of_bool(cmp(lhs.as_string().compare(rhs.as_string()), 0));
    if (lhs.is_int() && rhs.is_int())
      return Value::of_bool(cmp(lhs.as_int(), rhs.as_int()));
    return Value::of_bool(cmp(lhs.to_double(), rhs.to_double()));
  };

  switch (b.op) {
    case BinaryOp::Add:
      if (lhs.is_string() || rhs.is_string())
        return Value::of_string(lhs.str() + rhs.str());
      return numeric([](auto a, auto c) { return a + c; },
                     [](auto a, auto c) { return a + c; });
    case BinaryOp::Sub:
      return numeric([](auto a, auto c) { return a - c; },
                     [](auto a, auto c) { return a - c; });
    case BinaryOp::Mul:
      return numeric([](auto a, auto c) { return a * c; },
                     [](auto a, auto c) { return a * c; });
    case BinaryOp::Div:
      if (lhs.is_int() && rhs.is_int()) {
        if (rhs.as_int() == 0) error(b.range, "integer division by zero");
        return Value::of_int(lhs.as_int() / rhs.as_int());
      }
      return Value::of_double(lhs.to_double() / rhs.to_double());
    case BinaryOp::Mod:
      if (rhs.as_int() == 0) error(b.range, "modulo by zero");
      return Value::of_int(lhs.as_int() % rhs.as_int());
    case BinaryOp::Lt: return compare([](auto a, auto c) { return a < c; });
    case BinaryOp::Le: return compare([](auto a, auto c) { return a <= c; });
    case BinaryOp::Gt: return compare([](auto a, auto c) { return a > c; });
    case BinaryOp::Ge: return compare([](auto a, auto c) { return a >= c; });
    case BinaryOp::Eq: return Value::of_bool(lhs.equals(rhs));
    case BinaryOp::Ne: return Value::of_bool(!lhs.equals(rhs));
    case BinaryOp::And:
    case BinaryOp::Or: break;  // handled above
  }
  fatal("unknown binary operator in interpreter");
}

Value Interpreter::eval_call(const lang::Call& c, Frame& frame) {
  if (c.builtin != Builtin::None) return eval_builtin(c, frame);

  Value self;
  if (c.receiver) {
    self = eval(*c.receiver, frame);
    if (!self.is_object() || !self.as_object())
      error(c.range, "method call on null");
  } else {
    self = frame.self_value;  // implicit this
  }
  std::vector<Value> args;
  args.reserve(c.args.size());
  for (const auto& a : c.args) args.push_back(eval(*a, frame));
  return call(*c.resolved, std::move(self), std::move(args), current_stmt_);
}

Value Interpreter::eval_builtin(const lang::Call& c, Frame& frame) {
  auto arg = [&](std::size_t i) { return eval(*c.args[i], frame); };
  switch (c.builtin) {
    case Builtin::Print: {
      const std::string text = arg(0).str();
      {
        std::scoped_lock lock(output_mutex_);
        output_ += text;
        output_ += "\n";
      }
      // The output stream is a memory location too: consecutive prints are
      // order-dependent, which the dependence profile must see (keeps the
      // optimistic analysis from replicating or splitting printing stages).
      trace_write({MemLoc::Kind::Field, nullptr, 0, -999});
      return Value();
    }
    case Builtin::Len: {
      Value v = arg(0);
      if (v.is_string())
        return Value::of_int(static_cast<std::int64_t>(v.as_string().size()));
      if (v.is_array() && v.as_array())
        return Value::of_int(static_cast<std::int64_t>(v.as_array()->elems.size()));
      if (v.is_list() && v.as_list())
        return Value::of_int(static_cast<std::int64_t>(v.as_list()->elems.size()));
      error(c.range, "len() of null collection");
    }
    case Builtin::Push: {
      Value list = arg(0);
      Value elem = arg(1);
      if (!list.is_list() || !list.as_list())
        error(c.range, "push() into null list");
      ListVal* lv = list.as_list();
      lv->elems.push_back(std::move(elem));
      // An append reads and writes the list's size/backing: model it as a
      // write to a designated "append cell" (index -1) so dependence
      // profiling sees append-append and append-read conflicts.
      trace_write(element_cell(*lv, -1));
      return Value();
    }
    case Builtin::Work: {
      const std::int64_t n = arg(0).as_int();
      if (n < 0) error(c.range, "work() with negative cost");
      burn_work(static_cast<std::uint64_t>(n));
      if (tracer_) tracer_->on_work(static_cast<std::uint64_t>(n));
      // work() is the natural yield point of a long-running program: honor
      // the ambient stop token here so a deadline or shutdown can cancel a
      // sequential interpreter run mid-execution (the service layer relies
      // on this; parallel regions already check at split points).
      if (rt::stop_requested()) throw rt::OperationCancelled("work()");
      return Value::of_int(n);
    }
    case Builtin::Sqrt: return Value::of_double(std::sqrt(arg(0).to_double()));
    case Builtin::Abs: {
      Value v = arg(0);
      if (v.is_int()) return Value::of_int(std::abs(v.as_int()));
      return Value::of_double(std::fabs(v.to_double()));
    }
    case Builtin::MinOf: {
      Value a = arg(0), b2 = arg(1);
      if (a.is_int() && b2.is_int())
        return Value::of_int(std::min(a.as_int(), b2.as_int()));
      return Value::of_double(std::min(a.to_double(), b2.to_double()));
    }
    case Builtin::MaxOf: {
      Value a = arg(0), b2 = arg(1);
      if (a.is_int() && b2.is_int())
        return Value::of_int(std::max(a.as_int(), b2.as_int()));
      return Value::of_double(std::max(a.to_double(), b2.to_double()));
    }
    case Builtin::Floor:
      return Value::of_int(static_cast<std::int64_t>(std::floor(arg(0).to_double())));
    case Builtin::ToStr: return Value::of_string(arg(0).str());
    case Builtin::Clamp: {
      const std::int64_t v = arg(0).as_int();
      const std::int64_t lo = arg(1).as_int();
      const std::int64_t hi = arg(2).as_int();
      return Value::of_int(std::max(lo, std::min(hi, v)));
    }
    case Builtin::None: break;
  }
  fatal("unknown builtin in interpreter");
}

}  // namespace patty::analysis
