#include "analysis/effects.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "support/diagnostics.hpp"

namespace patty::analysis {

using lang::ExprKind;
using lang::StmtKind;
using lang::Symbol;

namespace {

/// Rank of each kind in the legacy key order: "E:" < "F:" < "IO" < "L:" < "S:".
int kind_rank(AbsLoc::Kind k) {
  switch (k) {
    case AbsLoc::Kind::Elements: return 0;
    case AbsLoc::Kind::Field: return 1;
    case AbsLoc::Kind::Io: return 2;
    case AbsLoc::Kind::Local: return 3;
    case AbsLoc::Kind::ListShape: return 4;
  }
  return 5;
}

/// Compare ints by their decimal spelling ("10" < "2", "-1" < "0"),
/// matching how the legacy string keys ordered numeric components.
int cmp_int_lex(int a, int b) {
  if (a == b) return 0;
  char ba[16];
  char bb[16];
  const std::ptrdiff_t la = std::to_chars(ba, ba + sizeof(ba), a).ptr - ba;
  const std::ptrdiff_t lb = std::to_chars(bb, bb + sizeof(bb), b).ptr - bb;
  const int c = std::memcmp(ba, bb, static_cast<std::size_t>(std::min(la, lb)));
  if (c != 0) return c;
  return la < lb ? -1 : 1;
}

int cmp_text(Symbol a, Symbol b) {
  if (a == b) return 0;
  return a.view().compare(b.view());
}

/// Compare "cls:field" the way the legacy key string did, without building
/// it: when one class name is a prefix of the other, the shorter one is
/// followed by ':' in the key, which sorts before any identifier character
/// that is >= ':' and after digits.
int cmp_field_key(const AbsLoc& a, const AbsLoc& b) {
  const std::string_view sa = a.cls.view();
  const std::string_view sb = b.cls.view();
  const std::size_t common = std::min(sa.size(), sb.size());
  const int c = std::memcmp(sa.data(), sb.data(), common);
  if (c != 0) return c;
  if (sa.size() == sb.size()) return cmp_int_lex(a.field, b.field);
  if (sa.size() < sb.size()) return ':' < sb[common] ? -1 : 1;
  return sa[common] < ':' ? -1 : 1;
}

}  // namespace

int AbsLoc::cmp(const AbsLoc& other) const {
  const int ra = kind_rank(kind);
  const int rb = kind_rank(other.kind);
  if (ra != rb) return ra - rb;
  switch (kind) {
    case Kind::Local: return cmp_int_lex(slot, other.slot);
    case Kind::Field: return cmp_field_key(*this, other);
    case Kind::Elements:
    case Kind::ListShape: return cmp_text(type_sig, other.type_sig);
    case Kind::Io: return 0;
  }
  return 0;
}

std::string AbsLoc::key() const {
  switch (kind) {
    case Kind::Local: return "L:" + std::to_string(slot);
    case Kind::Field: return "F:" + cls + ":" + std::to_string(field);
    case Kind::Elements: return "E:" + type_sig;
    case Kind::ListShape: return "S:" + type_sig;
    case Kind::Io: return "IO";
  }
  return "?";
}

std::string AbsLoc::pretty(const lang::MethodDecl* context) const {
  switch (kind) {
    case Kind::Local: {
      if (context && slot >= 0 &&
          slot < static_cast<int>(context->slot_names.size()) &&
          !context->slot_names[static_cast<std::size_t>(slot)].empty())
        return "local " + context->slot_names[static_cast<std::size_t>(slot)];
      return "local #" + std::to_string(slot);
    }
    case Kind::Field: return "field " + cls + "#" + std::to_string(field);
    case Kind::Elements: return "elements of " + type_sig;
    case Kind::ListShape: return "shape of " + type_sig;
    case Kind::Io: return "output stream";
  }
  return "?";
}

AbsLoc AbsLoc::local(int slot) {
  AbsLoc l;
  l.kind = Kind::Local;
  l.slot = slot;
  return l;
}
AbsLoc AbsLoc::field_loc(Symbol cls, int index) {
  AbsLoc l;
  l.kind = Kind::Field;
  l.cls = cls;
  l.field = index;
  return l;
}
AbsLoc AbsLoc::field_loc(const std::string& cls, int index) {
  return field_loc(Symbol::intern(cls), index);
}
AbsLoc AbsLoc::elements(Symbol type_sig) {
  AbsLoc l;
  l.kind = Kind::Elements;
  l.type_sig = type_sig;
  return l;
}
AbsLoc AbsLoc::elements(const std::string& type_sig) {
  return elements(Symbol::intern(type_sig));
}
AbsLoc AbsLoc::list_shape(Symbol type_sig) {
  AbsLoc l;
  l.kind = Kind::ListShape;
  l.type_sig = type_sig;
  return l;
}
AbsLoc AbsLoc::list_shape(const std::string& type_sig) {
  return list_shape(Symbol::intern(type_sig));
}
AbsLoc AbsLoc::io() {
  AbsLoc l;
  l.kind = Kind::Io;
  return l;
}

void EffectSet::merge(const EffectSet& other) {
  reads.insert(other.reads.begin(), other.reads.end());
  writes.insert(other.writes.begin(), other.writes.end());
}

namespace {
bool intersects(const std::set<AbsLoc>& a, const std::set<AbsLoc>& b) {
  // Sets are ordered by key; linear merge scan.
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) ++ia;
    else ++ib;
  }
  return false;
}
}  // namespace

bool EffectSet::writes_intersect_reads(const EffectSet& other) const {
  return intersects(writes, other.reads);
}

bool EffectSet::writes_intersect_writes(const EffectSet& other) const {
  return intersects(writes, other.writes);
}

std::set<AbsLoc> EffectSet::write_read_overlap(const EffectSet& other) const {
  std::set<AbsLoc> out;
  std::set_intersection(writes.begin(), writes.end(), other.reads.begin(),
                        other.reads.end(), std::inserter(out, out.begin()));
  return out;
}

EffectAnalysis::EffectAnalysis(const lang::Program& program,
                               const CallGraph& cg)
    : program_(program), cg_(cg) {
  compute_summaries();
}

const EffectSet& EffectAnalysis::method_summary(
    const lang::MethodDecl* m) const {
  auto it = summaries_.find(m);
  if (it == summaries_.end()) fatal("no effect summary for method");
  return it->second;
}

std::size_t EffectAnalysis::memory_footprint() const {
  constexpr std::size_t kNode = 32;  // red-black node links and colour
  std::size_t bytes = 0;
  for (const auto& [method, summary] : summaries_) {
    (void)method;
    bytes += sizeof(std::pair<const lang::MethodDecl* const, EffectSet>) +
             kNode +
             (summary.reads.size() + summary.writes.size()) *
                 (sizeof(AbsLoc) + kNode);
  }
  return bytes;
}

void EffectAnalysis::compute_summaries() {
  // Initialize empty, iterate to fixed point (terminates: sets only grow and
  // the abstract location universe is finite).
  for (const lang::MethodDecl* m : cg_.methods) summaries_[m];
  bool changed = true;
  while (changed) {
    changed = false;
    for (const lang::MethodDecl* m : cg_.methods) {
      EffectSet fresh;
      collect_stmt(*m->body, fresh, /*include_locals=*/false);
      EffectSet& current = summaries_[m];
      const std::size_t before = current.reads.size() + current.writes.size();
      current.merge(fresh);
      if (current.reads.size() + current.writes.size() != before)
        changed = true;
    }
  }
}

EffectSet EffectAnalysis::stmt_effects(const lang::Stmt& st) const {
  EffectSet out;
  collect_stmt(st, out, /*include_locals=*/true);
  return out;
}

EffectSet EffectAnalysis::expr_effects(const lang::Expr& e) const {
  EffectSet out;
  collect_expr(e, out, /*include_locals=*/true);
  return out;
}

void EffectAnalysis::collect_stmt(const lang::Stmt& st, EffectSet& out,
                                  bool include_locals) const {
  switch (st.kind) {
    case StmtKind::Block:
      for (const auto& s : st.as<lang::Block>().stmts)
        collect_stmt(*s, out, include_locals);
      break;
    case StmtKind::VarDecl: {
      const auto& d = st.as<lang::VarDecl>();
      if (d.init) collect_expr(*d.init, out, include_locals);
      if (include_locals) out.writes.insert(AbsLoc::local(d.slot));
      break;
    }
    case StmtKind::Assign: {
      const auto& a = st.as<lang::Assign>();
      collect_expr(*a.value, out, include_locals);
      write_target(*a.target, out, include_locals);
      break;
    }
    case StmtKind::ExprStmt:
      collect_expr(*st.as<lang::ExprStmt>().expr, out, include_locals);
      break;
    case StmtKind::If: {
      const auto& i = st.as<lang::If>();
      collect_expr(*i.cond, out, include_locals);
      collect_stmt(*i.then_branch, out, include_locals);
      if (i.else_branch) collect_stmt(*i.else_branch, out, include_locals);
      break;
    }
    case StmtKind::While: {
      const auto& w = st.as<lang::While>();
      collect_expr(*w.cond, out, include_locals);
      collect_stmt(*w.body, out, include_locals);
      break;
    }
    case StmtKind::For: {
      const auto& f = st.as<lang::For>();
      if (f.init) collect_stmt(*f.init, out, include_locals);
      if (f.cond) collect_expr(*f.cond, out, include_locals);
      if (f.step) collect_stmt(*f.step, out, include_locals);
      collect_stmt(*f.body, out, include_locals);
      break;
    }
    case StmtKind::Foreach: {
      const auto& f = st.as<lang::Foreach>();
      collect_expr(*f.iterable, out, include_locals);
      if (f.iterable->type)
        out.reads.insert(AbsLoc::list_shape(f.iterable->type->sig()));
      if (include_locals) out.writes.insert(AbsLoc::local(f.slot));
      collect_stmt(*f.body, out, include_locals);
      break;
    }
    case StmtKind::Return: {
      const auto& r = st.as<lang::Return>();
      if (r.value) collect_expr(*r.value, out, include_locals);
      break;
    }
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Annotation:
      break;
  }
}

void EffectAnalysis::write_target(const lang::Expr& target, EffectSet& out,
                                  bool include_locals) const {
  switch (target.kind) {
    case ExprKind::VarRef: {
      const auto& ref = target.as<lang::VarRef>();
      if (ref.is_local()) {
        if (include_locals) out.writes.insert(AbsLoc::local(ref.slot));
      } else {
        static const Symbol kUnknown = Symbol::intern("?");
        out.writes.insert(AbsLoc::field_loc(
            ref.owner_class ? ref.owner_class->name : kUnknown,
            ref.field_index));
      }
      break;
    }
    case ExprKind::FieldAccess: {
      const auto& fa = target.as<lang::FieldAccess>();
      collect_expr(*fa.object, out, include_locals);
      static const Symbol kUnknown = Symbol::intern("?");
      const Symbol cls = fa.object->type ? fa.object->type->sig() : kUnknown;
      out.writes.insert(AbsLoc::field_loc(cls, fa.field_index));
      break;
    }
    case ExprKind::IndexAccess: {
      const auto& ix = target.as<lang::IndexAccess>();
      collect_expr(*ix.base, out, include_locals);
      collect_expr(*ix.index, out, include_locals);
      static const Symbol kUnknown = Symbol::intern("?");
      const Symbol sig = ix.base->type ? ix.base->type->sig() : kUnknown;
      out.writes.insert(AbsLoc::elements(sig));
      break;
    }
    default:
      fatal("invalid assignment target in effect analysis");
  }
}

void EffectAnalysis::collect_expr(const lang::Expr& e, EffectSet& out,
                                  bool include_locals) const {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::DoubleLit:
    case ExprKind::BoolLit:
    case ExprKind::StringLit:
    case ExprKind::NullLit:
      break;
    case ExprKind::VarRef: {
      const auto& ref = e.as<lang::VarRef>();
      if (ref.is_local()) {
        if (include_locals) out.reads.insert(AbsLoc::local(ref.slot));
      } else {
        static const Symbol kUnknown = Symbol::intern("?");
        out.reads.insert(AbsLoc::field_loc(
            ref.owner_class ? ref.owner_class->name : kUnknown,
            ref.field_index));
      }
      break;
    }
    case ExprKind::FieldAccess: {
      const auto& fa = e.as<lang::FieldAccess>();
      collect_expr(*fa.object, out, include_locals);
      static const Symbol kUnknown = Symbol::intern("?");
      const Symbol cls = fa.object->type ? fa.object->type->sig() : kUnknown;
      out.reads.insert(AbsLoc::field_loc(cls, fa.field_index));
      break;
    }
    case ExprKind::IndexAccess: {
      const auto& ix = e.as<lang::IndexAccess>();
      collect_expr(*ix.base, out, include_locals);
      collect_expr(*ix.index, out, include_locals);
      static const Symbol kUnknown = Symbol::intern("?");
      const Symbol sig = ix.base->type ? ix.base->type->sig() : kUnknown;
      out.reads.insert(AbsLoc::elements(sig));
      break;
    }
    case ExprKind::Call: {
      const auto& c = e.as<lang::Call>();
      if (c.receiver) collect_expr(*c.receiver, out, include_locals);
      for (const auto& a : c.args) collect_expr(*a, out, include_locals);
      if (c.resolved) {
        auto it = summaries_.find(c.resolved);
        if (it != summaries_.end()) out.merge(it->second);
      } else {
        // Builtin effects.
        switch (c.builtin) {
          case lang::Builtin::Print:
            out.writes.insert(AbsLoc::io());
            break;
          case lang::Builtin::Push: {
            static const Symbol kUnknown = Symbol::intern("?");
            const Symbol sig =
                c.args[0]->type ? c.args[0]->type->sig() : kUnknown;
            out.writes.insert(AbsLoc::list_shape(sig));
            break;
          }
          case lang::Builtin::Len: {
            const lang::TypePtr& t = c.args[0]->type;
            if (t && t->kind == lang::Type::Kind::List)
              out.reads.insert(AbsLoc::list_shape(t->sig()));
            break;
          }
          default:
            break;  // pure builtins
        }
      }
      break;
    }
    case ExprKind::New: {
      const auto& n = e.as<lang::New>();
      for (const auto& a : n.args) collect_expr(*a, out, include_locals);
      if (n.resolved) {
        static const Symbol kInit = Symbol::intern("init");
        if (const lang::MethodDecl* ctor = n.resolved->find_method(kInit)) {
          auto it = summaries_.find(ctor);
          if (it != summaries_.end()) out.merge(it->second);
        }
      }
      break;
    }
    case ExprKind::NewArray: {
      const auto& n = e.as<lang::NewArray>();
      if (n.size) collect_expr(*n.size, out, include_locals);
      break;
    }
    case ExprKind::Binary: {
      const auto& b = e.as<lang::Binary>();
      collect_expr(*b.lhs, out, include_locals);
      collect_expr(*b.rhs, out, include_locals);
      break;
    }
    case ExprKind::Unary:
      collect_expr(*e.as<lang::Unary>().operand, out, include_locals);
      break;
  }
}

void local_slot_effects(const lang::Stmt& st, std::set<int>* reads,
                        std::set<int>* writes) {
  // A local assignment target is written, not read; every other local
  // reference is a read.
  std::vector<const lang::Expr*> targets;
  lang::for_each_stmt(st, [&](const lang::Stmt& s) {
    if (s.kind == StmtKind::VarDecl) {
      writes->insert(s.as<lang::VarDecl>().slot);
    } else if (s.kind == StmtKind::Foreach) {
      writes->insert(s.as<lang::Foreach>().slot);
    } else if (s.kind == StmtKind::Assign) {
      const lang::Expr& target = *s.as<lang::Assign>().target;
      if (target.kind == ExprKind::VarRef &&
          target.as<lang::VarRef>().is_local()) {
        writes->insert(target.as<lang::VarRef>().slot);
        targets.push_back(&target);
      }
    }
  });
  lang::for_each_expr(st, [&](const lang::Expr& e) {
    if (e.kind != ExprKind::VarRef || !e.as<lang::VarRef>().is_local()) return;
    if (std::find(targets.begin(), targets.end(), &e) == targets.end())
      reads->insert(e.as<lang::VarRef>().slot);
  });
}

// ---------------------------------------------------------------------------
// FreshnessAnalysis
// ---------------------------------------------------------------------------

namespace {

/// One reaching definition of a local slot. `value` is null for
/// definitions whose value is not an analyzable expression: parameter
/// bindings and foreach element bindings (never fresh). Uninitialized
/// VarDecls are *not* recorded: they define null, which is no object and
/// cannot alias or escape, so they are neutral for both fact families.
struct SlotDef {
  int slot = -1;
  const lang::Expr* value = nullptr;
};

std::vector<SlotDef> collect_slot_defs(const lang::MethodDecl& m) {
  std::vector<SlotDef> defs;
  for (const lang::Param& p : m.params) defs.push_back({p.slot, nullptr});
  lang::for_each_stmt(*m.body, [&](const lang::Stmt& st) {
    if (st.kind == StmtKind::VarDecl) {
      const auto& d = st.as<lang::VarDecl>();
      if (d.init) defs.push_back({d.slot, d.init.get()});
    } else if (st.kind == StmtKind::Assign) {
      const auto& a = st.as<lang::Assign>();
      if (a.target->kind == ExprKind::VarRef) {
        const auto& ref = a.target->as<lang::VarRef>();
        if (ref.is_local()) defs.push_back({ref.slot, a.value.get()});
      }
    } else if (st.kind == StmtKind::Foreach) {
      defs.push_back({st.as<lang::Foreach>().slot, nullptr});
    }
  });
  return defs;
}

bool is_allocation(const lang::Expr& e) {
  return e.kind == ExprKind::New || e.kind == ExprKind::NewArray;
}

}  // namespace

FreshnessAnalysis::FreshnessAnalysis(const lang::Program& program,
                                     const CallGraph& cg,
                                     const EffectAnalysis& effects)
    : program_(program), cg_(cg), effects_(effects) {
  compute();
}

bool FreshnessAnalysis::expr_is_fresh(const lang::Expr& e,
                                      const MethodFacts& facts) const {
  switch (e.kind) {
    case ExprKind::New:
    case ExprKind::NewArray:
      return true;
    case ExprKind::VarRef: {
      const auto& ref = e.as<lang::VarRef>();
      return ref.is_local() && facts.fresh_slots.count(ref.slot) > 0;
    }
    case ExprKind::Call: {
      const auto& c = e.as<lang::Call>();
      if (!c.resolved) return false;
      auto it = facts_.find(c.resolved);
      return it != facts_.end() && it->second.returns_fresh;
    }
    default:
      return false;
  }
}

void FreshnessAnalysis::compute() {
  // Per-method definition tables, gathered once.
  std::map<const lang::MethodDecl*, std::vector<SlotDef>> defs;
  for (const lang::MethodDecl* m : cg_.methods) defs[m] = collect_slot_defs(*m);

  // Phase 1 — activation freshness, greatest fixpoint. Start every slot
  // with at least one recorded definition as fresh and every value-
  // returning method as fresh-returning, then knock facts out until the
  // optimistic claims are self-supporting. Mutually recursive methods that
  // only ever return each other's results stay "fresh": the claim is
  // vacuous (such a call never returns).
  for (const lang::MethodDecl* m : cg_.methods) {
    MethodFacts& f = facts_[m];
    for (const SlotDef& d : defs[m])
      if (d.value) f.fresh_slots.insert(d.slot);
    // Parameter/foreach bindings disqualify their slot outright.
    for (const SlotDef& d : defs[m])
      if (!d.value) f.fresh_slots.erase(d.slot);
    lang::for_each_stmt(*m->body, [&](const lang::Stmt& st) {
      if (st.kind == StmtKind::Return && st.as<lang::Return>().value)
        f.returns_fresh = true;
    });
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const lang::MethodDecl* m : cg_.methods) {
      MethodFacts& f = facts_[m];
      for (const SlotDef& d : defs[m]) {
        if (d.value && f.fresh_slots.count(d.slot) &&
            !expr_is_fresh(*d.value, f)) {
          f.fresh_slots.erase(d.slot);
          changed = true;
        }
      }
      if (f.returns_fresh) {
        lang::for_each_stmt(*m->body, [&](const lang::Stmt& st) {
          if (st.kind == StmtKind::Return) {
            const auto& r = st.as<lang::Return>();
            if (r.value && f.returns_fresh && !expr_is_fresh(*r.value, f)) {
              f.returns_fresh = false;
              changed = true;
            }
          }
        });
      }
    }
  }

  // Phase 2 — allocation-rooted locals: every recorded definition is a
  // direct allocation expression (parameter/foreach bindings disqualify).
  for (const lang::MethodDecl* m : cg_.methods) {
    MethodFacts& f = facts_[m];
    std::set<int> seen;
    std::set<int> bad;
    for (const SlotDef& d : defs[m]) {
      seen.insert(d.slot);
      if (!d.value || !is_allocation(*d.value)) bad.insert(d.slot);
    }
    for (int s : seen)
      if (!bad.count(s)) f.rooted_slots.insert(s);
  }

  // Phase 3 — allocation-rooted fields: scan every store in the program.
  for (const auto& cls : program_.classes) {
    for (const auto& m : cls->methods) {
      lang::for_each_stmt(*m->body, [&](const lang::Stmt& st) {
        if (st.kind != StmtKind::Assign) return;
        const auto& a = st.as<lang::Assign>();
        if (a.target->kind == ExprKind::VarRef) {
          const auto& ref = a.target->as<lang::VarRef>();
          if (!ref.is_local() && ref.owner_class && !is_allocation(*a.value))
            unrooted_fields_.insert({ref.owner_class->name, ref.field_index});
        } else if (a.target->kind == ExprKind::FieldAccess) {
          const auto& fa = a.target->as<lang::FieldAccess>();
          if (fa.object->type && !is_allocation(*a.value))
            unrooted_fields_.insert({fa.object->type->sig(), fa.field_index});
        }
      });
    }
  }

  // Phase 4 — write freshness, least fixpoint: shared/via_this only grow.
  // Direct stores classify against the (now final) activation-freshness
  // facts; call sites import the callee's classification, rebinding its
  // via_this writes through the receiver expression (fresh receiver =>
  // fresh, implicit this => still via_this, anything else => shared). A
  // `new C()` constructor runs with the brand-new object as receiver, so
  // its via_this writes are fresh at the allocation site.
  changed = true;
  while (changed) {
    changed = false;
    for (const lang::MethodDecl* m : cg_.methods) {
      MethodFacts& f = facts_[m];
      const std::size_t before = f.writes.shared.size() + f.writes.via_this.size();
      auto classify_expr = [&](const lang::Expr& e) {
        if (e.kind == ExprKind::Call) {
          const auto& c = e.as<lang::Call>();
          if (c.builtin == lang::Builtin::Print) {
            f.writes.shared.insert(AbsLoc::io());
          } else if (c.builtin == lang::Builtin::Push) {
            static const Symbol kUnknown = Symbol::intern("?");
            const Symbol sig = c.args[0]->type ? c.args[0]->type->sig() : kUnknown;
            if (!expr_is_fresh(*c.args[0], f))
              f.writes.shared.insert(AbsLoc::list_shape(sig));
          } else if (c.resolved) {
            auto it = facts_.find(c.resolved);
            if (it == facts_.end()) return;
            const WriteFreshness& callee = it->second.writes;
            f.writes.shared.insert(callee.shared.begin(), callee.shared.end());
            for (const AbsLoc& l : callee.via_this) {
              if (c.implicit_this || !c.receiver) {
                f.writes.via_this.insert(l);
              } else if (!expr_is_fresh(*c.receiver, f)) {
                f.writes.shared.insert(l);
              }
            }
          }
        } else if (e.kind == ExprKind::New) {
          const auto& n = e.as<lang::New>();
          if (!n.resolved) return;
          static const Symbol kInit = Symbol::intern("init");
          if (const lang::MethodDecl* ctor = n.resolved->find_method(kInit)) {
            auto it = facts_.find(ctor);
            if (it == facts_.end()) return;
            const WriteFreshness& callee = it->second.writes;
            f.writes.shared.insert(callee.shared.begin(), callee.shared.end());
            // via_this lands on the freshly allocated object: fresh here.
          }
        }
      };
      lang::for_each_stmt(*m->body, [&](const lang::Stmt& st) {
        lang::for_each_expr(st, classify_expr);
        if (st.kind != StmtKind::Assign) return;
        const auto& a = st.as<lang::Assign>();
        static const Symbol kUnknown = Symbol::intern("?");
        if (a.target->kind == ExprKind::VarRef) {
          const auto& ref = a.target->as<lang::VarRef>();
          if (!ref.is_local())
            f.writes.via_this.insert(AbsLoc::field_loc(
                ref.owner_class ? ref.owner_class->name : kUnknown,
                ref.field_index));
        } else if (a.target->kind == ExprKind::FieldAccess) {
          const auto& fa = a.target->as<lang::FieldAccess>();
          const Symbol cls = fa.object->type ? fa.object->type->sig() : kUnknown;
          if (!expr_is_fresh(*fa.object, f))
            f.writes.shared.insert(AbsLoc::field_loc(cls, fa.field_index));
        } else if (a.target->kind == ExprKind::IndexAccess) {
          const auto& ix = a.target->as<lang::IndexAccess>();
          const Symbol sig = ix.base->type ? ix.base->type->sig() : kUnknown;
          if (!expr_is_fresh(*ix.base, f))
            f.writes.shared.insert(AbsLoc::elements(sig));
        }
      });
      if (f.writes.shared.size() + f.writes.via_this.size() != before)
        changed = true;
    }
  }
}

bool FreshnessAnalysis::returns_fresh(const lang::MethodDecl* m) const {
  auto it = facts_.find(m);
  return it != facts_.end() && it->second.returns_fresh;
}

bool FreshnessAnalysis::local_is_fresh(const lang::MethodDecl* m,
                                       int slot) const {
  auto it = facts_.find(m);
  return it != facts_.end() && it->second.fresh_slots.count(slot) > 0;
}

bool FreshnessAnalysis::local_allocation_rooted(const lang::MethodDecl* m,
                                                int slot) const {
  auto it = facts_.find(m);
  return it != facts_.end() && it->second.rooted_slots.count(slot) > 0;
}

bool FreshnessAnalysis::field_allocation_rooted(Symbol cls,
                                                int field_index) const {
  return unrooted_fields_.count({cls, field_index}) == 0;
}

const WriteFreshness& FreshnessAnalysis::write_freshness(
    const lang::MethodDecl* m) const {
  auto it = facts_.find(m);
  if (it == facts_.end()) fatal("no freshness facts for method");
  return it->second.writes;
}

std::set<AbsLoc> FreshnessAnalysis::fresh_writes(
    const lang::MethodDecl* m) const {
  const EffectSet& summary = effects_.method_summary(m);
  const WriteFreshness& wf = write_freshness(m);
  std::set<AbsLoc> out;
  for (const AbsLoc& l : summary.writes) {
    if (l.kind == AbsLoc::Kind::Local) continue;
    if (wf.shared.count(l) || wf.via_this.count(l)) continue;
    out.insert(l);
  }
  return out;
}

}  // namespace patty::analysis
