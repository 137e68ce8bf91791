#include "analysis/profiler.hpp"

#include <algorithm>
#include <climits>

namespace patty::analysis {

namespace {

constexpr int kNone = -1;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = (a ^ (b * 0xc2b2ae3d27d4eb4fULL)) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

/// Open addressing with linear probing over a power-of-two table kept at
/// most half full. Entries are never erased, so a reference stays valid
/// until the next insertion.
template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  explicit FlatMap(Key empty) : empty_(empty), slots_(16, Slot{empty, {}}) {}

  /// The value for `key`, value-initialized on first use.
  Value& operator[](const Key& key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.key == key) return slot.value;
      if (slot.key == empty_) {
        if (2 * (size_ + 1) > slots_.size()) {
          grow();
          return (*this)[key];
        }
        slot.key = key;
        ++size_;
        return slot.value;
      }
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_)
      if (!(slot.key == empty_)) fn(slot.key, slot.value);
  }

  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    Key key;
    Value value;
  };

  void grow() {
    std::vector<Slot> old(2 * slots_.size(), Slot{empty_, {}});
    old.swap(slots_);
    size_ = 0;
    for (Slot& slot : old)
      if (!(slot.key == empty_)) (*this)[slot.key] = slot.value;
  }

  Key empty_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// One (loop, iteration) of the active-loop stack. Immutable once an access
/// or an inner loop refers to it, so accesses share their context instead
/// of copying the stack.
struct LoopNode {
  const lang::Stmt* loop;
  std::int64_t iteration;
  LoopNode* parent;  // enclosing active loop; next free node while pooled
  std::uint32_t refs;
  std::int32_t depth;  // 0 for the outermost active loop
  std::int32_t frame;  // call depth of the frame that runs the loop
};

/// One active call of the call stack, immutable and shared like LoopNode:
/// an access keeps the chain of call sites it ran under.
struct CallNode {
  const lang::Stmt* site;  // null for a call without a site
  CallNode* parent;  // the caller's call; next free node while pooled
  std::uint32_t refs;
  std::int32_t depth;  // 1 for the outermost call
};

int depth_of(const LoopNode* node) { return node ? node->depth : -1; }
int depth_of(const CallNode* node) { return node ? node->depth : 0; }

/// Reference-counted chain nodes, recycled through a free list: a node dies
/// once no access, inner node or the stack refers to it, so the pool stays
/// as large as the contexts still referenced, not the iteration count.
template <typename Node>
class NodePool {
 public:
  /// A node with `value`'s fields and the caller's one reference.
  Node* make(const Node& value) {
    if (!free_) refill();
    Node* node = free_;
    free_ = node->parent;
    *node = value;
    node->refs = 1;
    node->depth = depth_of(value.parent) + 1;
    return node;
  }
  static void retain(Node* node) {
    if (node) ++node->refs;
  }
  void release(Node* node) {
    while (node && --node->refs == 0) {
      Node* parent = node->parent;
      node->parent = free_;
      free_ = node;
      node = parent;
    }
  }
  [[nodiscard]] std::size_t bytes() const {
    return chunks_.size() * kChunk * sizeof(Node);
  }

 private:
  static constexpr std::size_t kChunk = 16;
  void refill() {
    chunks_.push_back(std::make_unique<Node[]>(kChunk));
    for (std::size_t i = 0; i < kChunk; ++i) {
      chunks_.back()[i].parent = free_;
      free_ = &chunks_.back()[i];
    }
  }
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_ = nullptr;
};

struct Access {
  const lang::Stmt* stmt = nullptr;
  LoopNode* context = nullptr;  // one reference held
  CallNode* calls = nullptr;    // one reference held
};

/// The statement that stands for an access to `stmt` under the call chain
/// `chain` in the frame at call depth `frame`: `stmt` itself when it ran in
/// that frame, else the call site by which that frame was left (null for a
/// call without a site). Walks `chain` down to the frame, so the frames of
/// successive calls must not increase.
const lang::Stmt* lift(const CallNode*& chain, int frame,
                       const lang::Stmt* stmt) {
  while (depth_of(chain) > frame + 1) chain = chain->parent;
  return depth_of(chain) == frame + 1 ? chain->site : stmt;
}

/// A cell's slot in the table is its address; `alloc` says which
/// allocation's records the slot holds (see MemLoc).
struct CellKey {
  const void* base;
  std::int64_t index;
  friend bool operator==(const CellKey&, const CellKey&) = default;
};
struct CellHash {
  std::size_t operator()(const CellKey& k) const {
    return mix(reinterpret_cast<std::uintptr_t>(k.base),
               static_cast<std::uint64_t>(k.index));
  }
};
struct Cell {
  std::uint64_t alloc = 0;
  Access reader;
  Access writer;
};

/// (loop, from, to, kind, local slot or -1): the slot supports scalar
/// privatization downstream. Maps to the minimum carried distance, 0 while
/// the dependence was only seen within one iteration.
struct DepKey {
  int loop;
  int from;
  int to;
  int kind;
  std::int64_t slot;
  friend bool operator==(const DepKey&, const DepKey&) = default;
  friend auto operator<=>(const DepKey&, const DepKey&) = default;
};
struct DepKeyHash {
  std::size_t operator()(const DepKey& k) const {
    return mix(mix((static_cast<std::uint64_t>(k.loop) << 32) ^
                       static_cast<std::uint32_t>(k.from),
                   (static_cast<std::uint64_t>(k.to) << 32) ^
                       static_cast<std::uint32_t>(k.kind)),
               static_cast<std::uint64_t>(k.slot));
  }
};

}  // namespace

struct Profiler::Trace {
  struct StmtState {
    int parent;  // compact index, kNone for a method body
    int depth;   // 0 for a method body
    std::uint32_t open = 0;  // chains (current, call sites) holding it open
    int slot = kNone;  // into loop_counts, branch_counts or call_counts
    std::uint64_t opened_at = 0;  // total cost when `open` left 0
    std::uint64_t exec_count = 0;
    std::uint64_t inclusive_cost = 0;  // closed intervals only
  };
  struct LoopCount {
    const lang::Stmt* loop;
    std::uint64_t entries = 0;
    std::uint64_t iterations = 0;
  };
  struct BranchCount {
    const lang::Stmt* if_stmt;
    std::uint64_t taken = 0;
    std::uint64_t not_taken = 0;
  };

  /// Indexes every method's statements once, so the arrays below never
  /// grow while tracing.
  explicit Trace(const lang::Program& program)
      : index_of_id(static_cast<std::size_t>(program.next_node_id), kNone) {
    for (const auto& cls : program.classes)
      for (const auto& m : cls->methods) index_tree(*m->body, kNone);
  }

  std::vector<int> index_of_id;  // stmt id -> compact index, kNone if none
  std::vector<StmtState> stmts;
  std::vector<LoopCount> loop_counts;
  std::vector<BranchCount> branch_counts;
  std::vector<std::uint64_t> call_counts;  // by method body's slot

  int current = kNone;
  std::vector<int> call_sites;
  LoopNode* loop_top = nullptr;
  CallNode* call_top = nullptr;
  NodePool<LoopNode> nodes;
  NodePool<CallNode> calls;
  FlatMap<CellKey, Cell, CellHash> cells{CellKey{nullptr, INT64_MIN}};
  FlatMap<DepKey, std::int64_t, DepKeyHash> deps{
      DepKey{INT_MIN, 0, 0, 0, 0}};

  /// The compact index of a statement, kNone for one outside every method
  /// (or made after construction).
  [[nodiscard]] int index_of(int stmt_id) const {
    return stmt_id >= 0 && stmt_id < static_cast<int>(index_of_id.size())
               ? index_of_id[static_cast<std::size_t>(stmt_id)]
               : kNone;
  }

  /// The statement's inclusive cost at total cost `now`: its closed
  /// intervals plus the one still open.
  [[nodiscard]] static std::uint64_t inclusive(const StmtState& st,
                                               std::uint64_t now) {
    return st.inclusive_cost + (st.open > 0 ? now - st.opened_at : 0);
  }

  int index_tree(const lang::Stmt& st, int parent) {
    const int self = static_cast<int>(stmts.size());
    StmtState state{parent, depth(parent) + 1};
    switch (st.kind) {
      case lang::StmtKind::For:
      case lang::StmtKind::While:
      case lang::StmtKind::Foreach:
        state.slot = static_cast<int>(loop_counts.size());
        loop_counts.push_back({&st});
        break;
      case lang::StmtKind::If:
        state.slot = static_cast<int>(branch_counts.size());
        branch_counts.push_back({&st});
        break;
      default:
        if (parent == kNone) {
          state.slot = static_cast<int>(call_counts.size());
          call_counts.push_back(0);
        }
        break;
    }
    stmts.push_back(state);
    index_of_id[static_cast<std::size_t>(st.id)] = self;
    switch (st.kind) {
      case lang::StmtKind::Block:
        for (const auto& child : st.as<lang::Block>().stmts)
          index_tree(*child, self);
        break;
      case lang::StmtKind::If: {
        const auto& i = st.as<lang::If>();
        index_tree(*i.then_branch, self);
        if (i.else_branch) index_tree(*i.else_branch, self);
        break;
      }
      case lang::StmtKind::While:
        index_tree(*st.as<lang::While>().body, self);
        break;
      case lang::StmtKind::For: {
        const auto& f = st.as<lang::For>();
        if (f.init) index_tree(*f.init, self);
        if (f.step) index_tree(*f.step, self);
        index_tree(*f.body, self);
        break;
      }
      case lang::StmtKind::Foreach:
        index_tree(*st.as<lang::Foreach>().body, self);
        break;
      default:
        break;
    }
    return self;
  }

  void open(int s, std::uint64_t now) {
    if (stmts[s].open++ == 0) stmts[s].opened_at = now;
  }
  void close(int s, std::uint64_t now) {
    StmtState& st = stmts[s];
    if (--st.open == 0) st.inclusive_cost += now - st.opened_at;
  }
  [[nodiscard]] int depth(int s) const {
    return s == kNone ? -1 : stmts[s].depth;
  }

  /// Moves the current statement: closes the old chain and opens the new
  /// one up to their common ancestor.
  void move_current(int to, std::uint64_t now) {
    int from = current;
    current = to;
    while (from != to) {
      if (depth(from) >= depth(to)) {
        close(from, now);
        from = stmts[from].parent;
      } else {
        open(to, now);
        to = stmts[to].parent;
      }
    }
  }

  /// The records of the cell `loc`; empty when the allocation at its
  /// address changed since the last access there.
  Cell& cell(const MemLoc& loc) {
    Cell& c = cells[CellKey{loc.base, loc.index}];
    if (c.alloc != loc.alloc) {
      for (Access* access : {&c.reader, &c.writer}) {
        nodes.release(access->context);
        calls.release(access->calls);
      }
      c = Cell{loc.alloc, {}, {}};
    }
    return c;
  }

  void set(Access& access, const lang::Stmt& stmt) {
    if (access.stmt == &stmt && access.context == loop_top &&
        access.calls == call_top)
      return;
    NodePool<LoopNode>::retain(loop_top);
    NodePool<CallNode>::retain(call_top);
    nodes.release(access.context);
    calls.release(access.calls);
    access = {&stmt, loop_top, call_top};
  }

  /// Records `from` -> `to` for every loop the two accesses share, compared
  /// root-first: the first loop that differs, or that `to` sees at an
  /// earlier iteration than `from` did (another execution of it), ends the
  /// comparison. Each loop sees an access in a callee as the call site in
  /// its own method that led there, so a dependence through a callee's
  /// cells reaches the loop's body statements.
  void record_dep(const Access& from, const lang::Stmt& to, DepKind kind,
                  std::int64_t slot) {
    const LoopNode* now = loop_top;
    const LoopNode* then = from.context;
    if (!now || !then) return;  // no loop in common
    while (depth_of(now) > depth_of(then)) now = now->parent;
    while (depth_of(then) > depth_of(now)) then = then->parent;
    // Shared nodes are equal all the way to the root, so the scan for the
    // shallowest disagreement stops at the first one.
    int stop = depth_of(now) + 1;
    for (const LoopNode *a = now, *b = then; a != b;
         a = a->parent, b = b->parent)
      if (a->loop != b->loop || a->iteration < b->iteration) stop = a->depth;
    const CallNode* now_calls = call_top;
    const CallNode* then_calls = from.calls;
    for (const LoopNode *a = now, *b = then; a;
         a = a->parent, b = b->parent) {
      if (a->depth >= stop) continue;
      const lang::Stmt* source = lift(then_calls, a->frame, from.stmt);
      const lang::Stmt* sink = lift(now_calls, a->frame, &to);
      if (!source || !sink) continue;
      // A lifted access's local belongs to the callee's frame.
      const bool lifted = source != from.stmt || sink != &to;
      std::int64_t& distance =
          deps[DepKey{a->loop->id, source->id, sink->id,
                      static_cast<int>(kind), lifted ? -1 : slot}];
      const std::int64_t delta = a->iteration - b->iteration;
      if (delta > 0 && (distance == 0 || delta < distance)) distance = delta;
    }
  }
};

Profiler::Profiler(const lang::Program& program)
    : trace_(std::make_unique<Trace>(program)) {}

Profiler::~Profiler() = default;

void Profiler::on_stmt(const lang::Stmt& stmt) {
  Trace& t = *trace_;
  const int s = t.index_of(stmt.id);
  if (s != kNone) ++t.stmts[s].exec_count;
  t.move_current(s, total_cost_);
  ++total_cost_;
}

void Profiler::on_work(std::uint64_t cost) { total_cost_ += cost; }

void Profiler::on_read(const MemLoc& loc, const lang::Stmt& stmt) {
  const std::int64_t slot = loc.kind == MemLoc::Kind::Local ? loc.index : -1;
  Trace& t = *trace_;
  Cell& c = t.cell(loc);
  if (c.writer.stmt) t.record_dep(c.writer, stmt, DepKind::True, slot);
  t.set(c.reader, stmt);
}

void Profiler::on_write(const MemLoc& loc, const lang::Stmt& stmt) {
  const std::int64_t slot = loc.kind == MemLoc::Kind::Local ? loc.index : -1;
  Trace& t = *trace_;
  Cell& c = t.cell(loc);
  if (c.reader.stmt && c.reader.stmt != &stmt)
    t.record_dep(c.reader, stmt, DepKind::Anti, slot);
  if (c.writer.stmt) t.record_dep(c.writer, stmt, DepKind::Output, slot);
  t.set(c.writer, stmt);
}

void Profiler::on_loop_enter(const lang::Stmt& loop) {
  Trace& t = *trace_;
  const int s = t.index_of(loop.id);
  if (s != kNone) ++t.loop_counts[t.stmts[s].slot].entries;
  // The new node takes over the stack's reference to its parent.
  t.loop_top =
      t.nodes.make({&loop, -1, t.loop_top, 0, 0, depth_of(t.call_top)});
}

void Profiler::on_loop_iteration(const lang::Stmt& loop, std::int64_t iter) {
  Trace& t = *trace_;
  const int s = t.index_of(loop.id);
  if (s != kNone) ++t.loop_counts[t.stmts[s].slot].iterations;
  LoopNode* top = t.loop_top;
  if (top && top->loop == &loop) {
    if (top->refs == 1) {
      top->iteration = iter;  // nothing else refers to it yet
    } else {
      NodePool<LoopNode>::retain(top->parent);
      t.loop_top =
          t.nodes.make({&loop, iter, top->parent, 0, 0, top->frame});
      t.nodes.release(top);
    }
  }
}

void Profiler::on_loop_exit(const lang::Stmt& loop) {
  Trace& t = *trace_;
  LoopNode* top = t.loop_top;
  if (top && top->loop == &loop) {
    NodePool<LoopNode>::retain(top->parent);
    t.loop_top = top->parent;
    t.nodes.release(top);
  }
}

void Profiler::on_branch(const lang::Stmt& if_stmt, bool taken) {
  Trace& t = *trace_;
  const int s = t.index_of(if_stmt.id);
  if (s == kNone) return;
  Trace::BranchCount& b = t.branch_counts[t.stmts[s].slot];
  if (taken) b.taken += 1;
  else b.not_taken += 1;
}

void Profiler::on_call(const lang::MethodDecl& callee,
                       const lang::Stmt* call_site) {
  Trace& t = *trace_;
  const int body = callee.body ? t.index_of(callee.body->id) : kNone;
  const int site = call_site ? t.index_of(call_site->id) : kNone;
  if (body != kNone) ++t.call_counts[t.stmts[body].slot];
  t.call_sites.push_back(site);
  // The new node takes over the stack's reference to its parent.
  t.call_top = t.calls.make({call_site, t.call_top, 0, 0});
  for (int s = site; s != kNone; s = t.stmts[s].parent)
    t.open(s, total_cost_);
}

void Profiler::on_return(const lang::MethodDecl& callee) {
  (void)callee;
  Trace& t = *trace_;
  if (t.call_sites.empty()) return;
  for (int s = t.call_sites.back(); s != kNone; s = t.stmts[s].parent)
    t.close(s, total_cost_);
  t.call_sites.pop_back();
  if (CallNode* top = t.call_top) {
    NodePool<CallNode>::retain(top->parent);
    t.call_top = top->parent;
    t.calls.release(top);
  }
}

void Profiler::finish() {
  const Trace& t = *trace_;
  for (const Trace::LoopCount& count : t.loop_counts)
    if (count.entries > 0 || count.iterations > 0)
      loops_[count.loop->id] = {count.loop, count.entries, count.iterations,
                                {}};
  std::vector<std::pair<DepKey, std::int64_t>> deps;
  t.deps.for_each([&deps](const DepKey& key, std::int64_t distance) {
    deps.emplace_back(key, distance);
  });
  std::sort(deps.begin(), deps.end());
  for (const auto& [key, distance] : deps) {
    Dep d;
    d.from_id = key.from;
    d.to_id = key.to;
    d.kind = static_cast<DepKind>(key.kind);
    d.carried = distance > 0;
    d.distance = distance;
    if (key.slot >= 0) {
      d.via_local = true;
      d.local_slot = static_cast<int>(key.slot);
    }
    loops_[key.loop].deps.push_back(std::move(d));
  }
  for (auto& [id, p] : loops_) p.deps.shrink_to_fit();
  for (const Trace::BranchCount& b : t.branch_counts)
    if (b.taken + b.not_taken > 0)
      branches_[b.if_stmt->id] = {b.if_stmt, b.taken, b.not_taken};
}

Profiler::StmtProfile Profiler::stmt_profile(int stmt_id) const {
  const int s = trace_->index_of(stmt_id);
  if (s == kNone) return {};
  const Trace::StmtState& st = trace_->stmts[static_cast<std::size_t>(s)];
  return {st.exec_count, Trace::inclusive(st, total_cost_)};
}

double Profiler::runtime_share(int stmt_id) const {
  if (total_cost_ == 0) return 0.0;
  return static_cast<double>(stmt_profile(stmt_id).inclusive_cost) /
         static_cast<double>(total_cost_);
}

const Profiler::LoopProfile* Profiler::loop_profile(int loop_stmt_id) const {
  auto it = loops_.find(loop_stmt_id);
  return it == loops_.end() ? nullptr : &it->second;
}

std::uint64_t Profiler::call_count(const lang::MethodDecl* m) const {
  const int body = m && m->body ? trace_->index_of(m->body->id) : kNone;
  return body == kNone ? 0 : trace_->call_counts[trace_->stmts[body].slot];
}

std::size_t Profiler::memory_footprint() const {
  const Trace& t = *trace_;
  std::size_t bytes = t.index_of_id.capacity() * sizeof(int) +
                      t.stmts.capacity() * sizeof(Trace::StmtState) +
                      t.loop_counts.capacity() * sizeof(Trace::LoopCount) +
                      t.branch_counts.capacity() * sizeof(Trace::BranchCount) +
                      t.call_counts.capacity() * sizeof(std::uint64_t) +
                      t.call_sites.capacity() * sizeof(int) + t.nodes.bytes() +
                      t.calls.bytes() + t.cells.bytes() + t.deps.bytes();
  constexpr std::size_t kMapNode = 32;  // red-black node links and colour
  for (const auto& [id, loop] : loops_)
    bytes += kMapNode + sizeof(id) + sizeof(loop) +
             loop.deps.capacity() * sizeof(Dep);
  bytes += branches_.size() *
           (kMapNode + sizeof(int) + sizeof(BranchProfile));
  return bytes;
}

}  // namespace patty::analysis
