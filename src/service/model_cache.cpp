#include "service/model_cache.hpp"

#include "analysis/semantic_model.hpp"
#include "lang/ast.hpp"
#include "observe/metrics.hpp"
#include "support/failpoint.hpp"

namespace patty::service {

namespace {

/// Cached instrument references (stable for the process lifetime). The
/// cache publishes unconditionally — one relaxed store per mutation — so
/// the daemon's health endpoint works even with telemetry off.
struct CacheMetrics {
  observe::Counter& hits =
      observe::Registry::global().counter("service.cache.hits");
  observe::Counter& misses =
      observe::Registry::global().counter("service.cache.misses");
  observe::Counter& evictions =
      observe::Registry::global().counter("service.cache.evictions");
  observe::Counter& insert_failures =
      observe::Registry::global().counter("service.cache.insert_failures");
  observe::Gauge& bytes =
      observe::Registry::global().gauge("service.cache.bytes");
  observe::Gauge& entries =
      observe::Registry::global().gauge("service.cache.entries");
};

CacheMetrics& metrics() {
  static CacheMetrics* m = new CacheMetrics();  // immortal
  return *m;
}

}  // namespace

std::uint64_t content_hash(std::string_view source) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : source) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::size_t entry_bytes(const corpus::ProgramArtifacts& artifacts,
                        std::size_t source_bytes) {
  std::size_t bytes = source_bytes + artifacts.fingerprint.size();
  if (artifacts.parsed) bytes += artifacts.parsed->arena.bytes_reserved();
  if (artifacts.model) bytes += artifacts.model->memory_footprint();
  return bytes;
}

ModelCache::ModelCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

std::uint64_t ModelCache::key(std::string_view source, bool optimistic) {
  // One flipped bit separates the two detector modes for the same source.
  return content_hash(source) ^ (optimistic ? 0 : 0x9e3779b97f4a7c15ull);
}

std::shared_ptr<const ModelEntry> ModelCache::lookup(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto found = map_.find(key);
  if (found == map_.end()) {
    ++misses_;
    metrics().misses.add();
    return nullptr;
  }
  ++hits_;
  metrics().hits.add();
  lru_.splice(lru_.begin(), lru_, found->second.pos);  // refresh recency
  return found->second.entry;
}

void ModelCache::insert(std::uint64_t key,
                        std::shared_ptr<const ModelEntry> entry) {
  if (!entry) return;
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    PATTY_FAILPOINT("service.cache.insert");
  } catch (const support::failpoint::FailpointError&) {
    // An injected insert fault degrades to "not cached", never to a failed
    // request: the caller already holds the entry it needs.
    ++insert_failures_;
    metrics().insert_failures.add();
    return;
  }
  auto found = map_.find(key);
  if (found != map_.end()) {
    // Replace (same content hash, e.g. re-inserted after a concurrent
    // build): drop the old footprint first.
    bytes_ -= found->second.entry->bytes;
    lru_.erase(found->second.pos);
    map_.erase(found);
  }
  if (entry->bytes > max_bytes_) {
    // Larger than the whole budget: admitting it would break the bound.
    ++evictions_;
    metrics().evictions.add();
    publish_locked();
    return;
  }
  while (bytes_ + entry->bytes > max_bytes_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = map_.find(victim);
    bytes_ -= it->second.entry->bytes;
    map_.erase(it);  // in-flight holders keep their shared_ptr alive
    ++evictions_;
    metrics().evictions.add();
  }
  bytes_ += entry->bytes;
  lru_.push_front(key);
  map_.emplace(key, Slot{std::move(entry), lru_.begin()});
  publish_locked();
}

CacheStats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.insert_failures = insert_failures_;
  s.bytes = bytes_;
  s.entries = map_.size();
  s.max_bytes = max_bytes_;
  return s;
}

void ModelCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
  publish_locked();
}

void ModelCache::publish_locked() {
  metrics().bytes.set(static_cast<std::int64_t>(bytes_));
  metrics().entries.set(static_cast<std::int64_t>(map_.size()));
}

}  // namespace patty::service
