#pragma once
// Static read/write effect analysis.
//
// Abstract locations approximate runtime memory:
//   Local(slot)            one local variable of the analyzed method
//   Field(Class, index)    any instance of Class, that field (type-based
//                          may-alias: two expressions of the same class type
//                          may reference the same object)
//   Elements(type-string)  any element of any array/list of that type
//   ListShape(type-string) the length/backing of any list of that type
//                          (written by push(), read by len()/foreach)
//   Io                     the output stream (print)
//
// This is the pessimistic half of the paper's model; the optimistic half is
// the dynamic dependence profile. Method effects on non-local state are
// summarized with a fixed point over the call graph, so statement-level
// effect queries see through calls.

#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis/callgraph.hpp"
#include "lang/ast.hpp"

namespace patty::analysis {

struct AbsLoc {
  enum class Kind : std::uint8_t { Local, Field, Elements, ListShape, Io };
  Kind kind = Kind::Local;
  int slot = -1;               // Local
  lang::Symbol cls;            // Field: class name (interned)
  int field = -1;              // Field: index
  lang::Symbol type_sig;       // Elements / ListShape: container type string

  [[nodiscard]] std::string key() const;
  [[nodiscard]] std::string pretty(const lang::MethodDecl* context) const;

  /// Three-way comparison matching the legacy `key() < key()` string order
  /// exactly (kind letters E < F < IO < L < S, numeric components by their
  /// decimal spelling) — but field-wise, without building any strings.
  /// Compares interned text, never symbol ids, so set order is
  /// deterministic across runs and threads.
  [[nodiscard]] int cmp(const AbsLoc& other) const;

  friend bool operator<(const AbsLoc& a, const AbsLoc& b) {
    return a.cmp(b) < 0;
  }
  // Equality delegates to cmp() so it can never disagree with set order:
  // cmp() only inspects the fields its kind actually uses, and comparing
  // interned *text* keeps two locations equal even if a future field (or a
  // second intern table) gave them different raw symbol ids.
  friend bool operator==(const AbsLoc& a, const AbsLoc& b) {
    return a.cmp(b) == 0;
  }

  static AbsLoc local(int slot);
  static AbsLoc field_loc(lang::Symbol cls, int index);
  static AbsLoc field_loc(const std::string& cls, int index);
  static AbsLoc elements(lang::Symbol type_sig);
  static AbsLoc elements(const std::string& type_sig);
  static AbsLoc list_shape(lang::Symbol type_sig);
  static AbsLoc list_shape(const std::string& type_sig);
  static AbsLoc io();
};

struct EffectSet {
  std::set<AbsLoc> reads;
  std::set<AbsLoc> writes;

  void merge(const EffectSet& other);
  [[nodiscard]] bool writes_intersect_reads(const EffectSet& other) const;
  [[nodiscard]] bool writes_intersect_writes(const EffectSet& other) const;
  /// Locations written by this set and read by `other`.
  [[nodiscard]] std::set<AbsLoc> write_read_overlap(const EffectSet& other) const;
};

class EffectAnalysis {
 public:
  EffectAnalysis(const lang::Program& program, const CallGraph& cg);

  /// Effects of executing one statement subtree (locals included).
  EffectSet stmt_effects(const lang::Stmt& st) const;

  /// Effects of evaluating an expression (locals included).
  EffectSet expr_effects(const lang::Expr& e) const;

  /// Non-local summary of a method (fields/elements/io only).
  const EffectSet& method_summary(const lang::MethodDecl* m) const;

  /// Heap bytes held by the method summaries.
  [[nodiscard]] std::size_t memory_footprint() const;

 private:
  void compute_summaries();
  void collect_expr(const lang::Expr& e, EffectSet& out,
                    bool include_locals) const;
  void collect_stmt(const lang::Stmt& st, EffectSet& out,
                    bool include_locals) const;
  void write_target(const lang::Expr& target, EffectSet& out,
                    bool include_locals) const;

  const lang::Program& program_;
  const CallGraph& cg_;
  std::map<const lang::MethodDecl*, EffectSet> summaries_;
};

/// Local slots a statement subtree reads and writes, from its syntax alone.
/// Equals the Local subset of EffectAnalysis::stmt_effects: method
/// summaries carry no locals, so no call adds one.
void local_slot_effects(const lang::Stmt& st, std::set<int>* reads,
                        std::set<int>* writes);

/// Where a method's non-local writes land, relative to its own activation.
/// Locations absent from both sets are written only through objects the
/// activation allocated itself (Fonseca-style freshness) — per-call-private
/// until published, which is what lets the MHP certifier discharge
/// write/write conflicts between concurrent instances of a region node.
struct WriteFreshness {
  /// Some write reaches pre-existing shared state (a field of an object
  /// the activation did not allocate, a non-fresh array/list, or io).
  std::set<AbsLoc> shared;
  /// Some write lands on the method's own receiver (`this`). At a call
  /// site these become fresh when the receiver expression is fresh (the
  /// `new C()` constructor case) and shared otherwise.
  std::set<AbsLoc> via_this;
};

/// Allocation-freshness facts, computed as one whole-program fixpoint over
/// the call graph (greatest fixpoint: start optimistic, knock facts out).
///
/// Two independent fact families:
///  * activation freshness — "this value was allocated during the current
///    call" (returns_fresh, local_is_fresh, write_freshness). Justifies
///    treating writes as instance-private in fork-join regions where each
///    concurrent instance is a separate activation.
///  * allocation rooting — "every store this root ever receives is a
///    syntactic allocation expression" (field_/local_allocation_rooted).
///    An allocation expression produces a brand-new object at exactly one
///    store site, so two distinct allocation-rooted roots can never hold
///    the same object: accesses through them are disjoint regardless of
///    type-based aliasing.
class FreshnessAnalysis {
 public:
  FreshnessAnalysis(const lang::Program& program, const CallGraph& cg,
                    const EffectAnalysis& effects);

  /// Every value the method can return was allocated within the call
  /// (directly, via a fresh local, or by a fresh-returning callee).
  [[nodiscard]] bool returns_fresh(const lang::MethodDecl* m) const;

  /// Every definition of the local is a fresh allocation (New/NewArray, a
  /// fresh-returning call, or a copy of another fresh local). Parameters
  /// and foreach bindings are never fresh.
  [[nodiscard]] bool local_is_fresh(const lang::MethodDecl* m, int slot) const;

  /// Every definition of the local is a direct New/NewArray expression.
  [[nodiscard]] bool local_allocation_rooted(const lang::MethodDecl* m,
                                             int slot) const;

  /// Every store to Field(cls, index) anywhere in the program is a direct
  /// New/NewArray expression (fields never stored are trivially rooted).
  [[nodiscard]] bool field_allocation_rooted(lang::Symbol cls,
                                             int field_index) const;

  /// Shared/via-this classification of m's transitive non-local writes.
  [[nodiscard]] const WriteFreshness& write_freshness(
      const lang::MethodDecl* m) const;

  /// Non-local locations m writes exclusively through objects allocated in
  /// its own activation: summary writes minus shared minus via_this.
  [[nodiscard]] std::set<AbsLoc> fresh_writes(const lang::MethodDecl* m) const;

 private:
  struct MethodFacts {
    bool returns_fresh = false;
    std::set<int> fresh_slots;
    std::set<int> rooted_slots;
    WriteFreshness writes;
  };

  void compute();
  [[nodiscard]] bool expr_is_fresh(const lang::Expr& e,
                                   const MethodFacts& facts) const;

  /// Orders (class name, field index) keys by interned text, then index —
  /// Symbol itself deliberately has no operator< (ids are not stable).
  struct FieldKeyLess {
    bool operator()(const std::pair<lang::Symbol, int>& a,
                    const std::pair<lang::Symbol, int>& b) const {
      if (a.first.view() != b.first.view())
        return a.first.view() < b.first.view();
      return a.second < b.second;
    }
  };

  const lang::Program& program_;
  const CallGraph& cg_;
  const EffectAnalysis& effects_;
  std::map<const lang::MethodDecl*, MethodFacts> facts_;
  /// (class name, field index) pairs with at least one non-allocation store.
  std::set<std::pair<lang::Symbol, int>, FieldKeyLess> unrooted_fields_;
};

}  // namespace patty::analysis
