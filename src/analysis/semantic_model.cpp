#include "analysis/semantic_model.hpp"

#include "support/diagnostics.hpp"

namespace patty::analysis {

std::unique_ptr<SemanticModel> SemanticModel::build(
    const lang::Program& program, Options options) {
  auto model = std::unique_ptr<SemanticModel>(new SemanticModel());
  model->program_ = &program;
  model->call_graph_ = build_call_graph(program);
  model->effects_ =
      std::make_unique<EffectAnalysis>(program, model->call_graph_);

  // Index statements and owning methods by node id, which is dense below
  // next_node_id (`at` rejects any id outside it).
  const auto node_ids = static_cast<std::size_t>(program.next_node_id);
  model->stmt_by_id_.assign(node_ids, nullptr);
  model->method_by_stmt_id_.assign(node_ids, nullptr);
  for (const auto& cls : program.classes) {
    for (const auto& m : cls->methods) {
      lang::for_each_stmt(*m->body, [&](const lang::Stmt& st) {
        const auto id = static_cast<std::size_t>(st.id);
        model->stmt_by_id_.at(id) = &st;
        model->method_by_stmt_id_[id] = m.get();
      });
    }
  }
  model->collect_loops();

  if (options.run_dynamic) {
    model->profiler_ = std::make_unique<Profiler>(program);
    Interpreter interp(program, model->profiler_.get());
    interp.run_main();  // throws RuntimeError on failure
    // Fold the loop and branch tables while the model is still ours: from
    // here the profile is immutable, so daemon workers sharing a cached
    // model read it without a lock.
    model->profiler_->finish();
  }
  return model;
}

void SemanticModel::collect_loops() {
  for (const auto& cls : program_->classes) {
    for (const auto& m : cls->methods) {
      // Depth-first walk tracking loop nesting depth.
      struct Walker {
        std::vector<LoopInfo>& out;
        const lang::MethodDecl* method;
        void walk(const lang::Stmt& st, int depth) {
          const bool is_loop = st.kind == lang::StmtKind::For ||
                               st.kind == lang::StmtKind::While ||
                               st.kind == lang::StmtKind::Foreach;
          if (is_loop) out.push_back({&st, method, depth});
          const int next = depth + (is_loop ? 1 : 0);
          switch (st.kind) {
            case lang::StmtKind::Block:
              for (const auto& s : st.as<lang::Block>().stmts)
                walk(*s, depth);
              break;
            case lang::StmtKind::If: {
              const auto& i = st.as<lang::If>();
              walk(*i.then_branch, depth);
              if (i.else_branch) walk(*i.else_branch, depth);
              break;
            }
            case lang::StmtKind::While:
              walk(*st.as<lang::While>().body, next);
              break;
            case lang::StmtKind::For: {
              const auto& f = st.as<lang::For>();
              if (f.init) walk(*f.init, next);
              if (f.step) walk(*f.step, next);
              walk(*f.body, next);
              break;
            }
            case lang::StmtKind::Foreach:
              walk(*st.as<lang::Foreach>().body, next);
              break;
            default:
              break;
          }
        }
      };
      Walker w{loops_, m.get()};
      w.walk(*m->body, 0);
    }
  }
}

const Cfg& SemanticModel::cfg(const lang::MethodDecl& method) const {
  // References stay stable (node-based map); the mutex only guards the
  // lookup/insert so threads sharing one model (the daemon's request
  // workers share cached models) can demand-build safely.
  {
    std::scoped_lock lock(cfg_mutex_);
    auto it = cfg_cache_.find(&method);
    if (it != cfg_cache_.end()) return *it->second;
  }
  Cfg built = build_cfg(method);  // pure; compute outside the lock
  std::scoped_lock lock(cfg_mutex_);
  auto it = cfg_cache_.find(&method);
  if (it != cfg_cache_.end()) return *it->second;  // racing builder won
  return *cfg_cache_
              .emplace(&method, support::make_in<Cfg>(arena_, std::move(built)))
              .first->second;
}

bool SemanticModel::loop_was_profiled(const lang::Stmt& loop) const {
  if (!profiler_) return false;
  const Profiler::LoopProfile* p = profiler_->loop_profile(loop.id);
  return p != nullptr && p->total_iterations > 0;
}

const std::vector<Dep>& SemanticModel::loop_dependences(
    const lang::Stmt& loop, bool optimistic) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(loop.id)) << 1) |
      static_cast<std::uint64_t>(optimistic);
  {
    std::scoped_lock lock(dep_cache_mutex_);
    auto it = dep_cache_.find(key);
    if (it != dep_cache_.end()) return *it->second;
  }
  // Compute outside the lock (deterministic, so a racing duplicate is
  // identical and the first insert wins); values are arena-placed, so the
  // returned reference is stable for the model's lifetime.
  std::vector<Dep> deps = compute_loop_dependences(loop, optimistic);
  std::scoped_lock lock(dep_cache_mutex_);
  auto it = dep_cache_.find(key);
  if (it != dep_cache_.end()) return *it->second;  // racing builder won
  return *dep_cache_
              .emplace(key, support::make_in<std::vector<Dep>>(
                                arena_, std::move(deps)))
              .first->second;
}

std::vector<Dep> SemanticModel::compute_loop_dependences(
    const lang::Stmt& loop, bool optimistic) const {
  const std::vector<const lang::Stmt*> body = loop_body_statements(loop);
  if (optimistic && loop_was_profiled(loop)) {
    // Observed dependences are recorded at the finest statement level;
    // project them onto the top-level body statements. Scalar
    // privatization applies here: carried anti/output dependences through
    // locals declared inside the body are slot-reuse artifacts (each
    // element owns a fresh frame after transformation).
    const std::set<int> privatized = body_declared_slots(body);
    const Profiler::LoopProfile* p = profiler_->loop_profile(loop.id);
    std::vector<Dep> projected;
    std::map<std::tuple<int, int, int, bool>, std::int64_t> dedup;
    for (const Dep& d : p->deps) {
      if (d.carried && d.via_local && d.kind != DepKind::True &&
          privatized.count(d.local_slot))
        continue;
      const int from_top = owning_body_statement(body, d.from_id);
      const int to_top = owning_body_statement(body, d.to_id);
      if (from_top < 0 || to_top < 0) continue;  // outside the body
      auto key = std::make_tuple(from_top, to_top,
                                 static_cast<int>(d.kind), d.carried);
      auto it = dedup.find(key);
      if (it == dedup.end() || (d.distance > 0 && d.distance < it->second))
        dedup[key] = d.distance;
    }
    for (const auto& [key, distance] : dedup) {
      Dep d;
      d.from_id = std::get<0>(key);
      d.to_id = std::get<1>(key);
      d.kind = static_cast<DepKind>(std::get<2>(key));
      d.carried = std::get<3>(key);
      d.distance = distance;
      d.note = "observed";
      projected.push_back(std::move(d));
    }
    return projected;
  }
  const lang::MethodDecl* method = method_of(loop);
  // Induction-subscript refinement: element locations always subscripted
  // with the canonical induction variable cannot carry dependences across
  // iterations, even under type-based array aliasing.
  const std::set<AbsLoc> uniform = induction_uniform_elements(loop, *effects_);
  return static_loop_dependences(body, *effects_, method,
                                 uniform.empty() ? nullptr : &uniform);
}

double SemanticModel::runtime_share(const lang::Stmt& st) const {
  if (!profiler_) return 0.0;
  return profiler_->runtime_share(st.id);
}

namespace {

/// Heap bytes of a node-based hash map: the bucket array and one node per
/// entry (next pointer and cached hash besides the value).
template <typename Map>
std::size_t hash_map_bytes(const Map& map) {
  return map.bucket_count() * sizeof(void*) +
         map.size() * (sizeof(typename Map::value_type) + 16);
}

}  // namespace

std::size_t SemanticModel::memory_footprint() const {
  std::size_t bytes = side_bytes_reserved();
  if (profiler_) bytes += profiler_->memory_footprint();
  if (effects_) bytes += effects_->memory_footprint();
  bytes += call_graph_.methods.capacity() * sizeof(const lang::MethodDecl*) +
           hash_map_bytes(call_graph_.index_of);
  for (const auto* edges : {&call_graph_.callees, &call_graph_.callers}) {
    bytes += edges->capacity() * sizeof(std::vector<int>);
    for (const std::vector<int>& e : *edges) bytes += e.capacity() * sizeof(int);
  }
  bytes += loops_.capacity() * sizeof(LoopInfo) +
           stmt_by_id_.capacity() * sizeof(const lang::Stmt*) +
           method_by_stmt_id_.capacity() * sizeof(const lang::MethodDecl*);
  return bytes;
}

const lang::Stmt* SemanticModel::stmt_by_id(int id) const {
  return stmt_by_id_.at(static_cast<std::size_t>(id));
}

const lang::MethodDecl* SemanticModel::method_of(const lang::Stmt& st) const {
  return method_by_stmt_id_.at(static_cast<std::size_t>(st.id));
}

}  // namespace patty::analysis
