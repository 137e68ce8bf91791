#pragma once
// Content-hash semantic-model cache for the analysis daemon.
//
// The frozen-model rule (DESIGN.md §8) makes this sound: a SemanticModel is
// immutable after build — its memoized dependence cache only ever fills in,
// it never invalidates — so a model keyed by the *content hash* of its
// source (plus the detector-mode bit) can be shared by every request that
// resubmits the same program. A hit skips parse + semantic model + detect
// entirely; detection fingerprints are byte-identical to the uncached path
// (tests/service_test.cpp proves it, including across an eviction).
//
// The cache is LRU-bounded by an estimated byte footprint (entry_bytes:
// the program arena's reserved bytes, exact, plus the model's profile,
// effects, call graph and maps). Entries are handed out
// as shared_ptr<const ...>: an evicted entry stays alive for requests that
// already hold it, eviction only drops the cache's own reference. The
// byte bound is therefore a bound on what the *cache* pins, the honest
// multi-tenant accounting.
//
// Reporting goes through the observe registry — service.cache.hits /
// .misses / .evictions counters, service.cache.bytes / .entries gauges —
// which is the same place the daemon's `health` response and
// observe::memory_summary() read, so all three always agree.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "corpus/corpus.hpp"

namespace patty::service {

/// FNV-1a 64-bit over the source bytes.
std::uint64_t content_hash(std::string_view source);

/// One frozen front-end result. `artifacts.model` references
/// `artifacts.parsed`; both live exactly as long as this entry.
struct ModelEntry {
  corpus::ProgramArtifacts artifacts;
  std::size_t bytes = 0;  // footprint estimate (entry_bytes)
};

/// Estimated resident footprint of an adopted program: source text,
/// fingerprint, the AST arena's reserved bytes and the semantic model's
/// memory_footprint() (side arena, profile, effects, call graph, maps).
std::size_t entry_bytes(const corpus::ProgramArtifacts& artifacts,
                        std::size_t source_bytes);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insert_failures = 0;  // failpoint-injected insert faults
  std::size_t bytes = 0;
  std::size_t entries = 0;
  std::size_t max_bytes = 0;
};

class ModelCache {
 public:
  explicit ModelCache(std::size_t max_bytes);

  /// Key for a request: content hash of the source mixed with the
  /// detector-mode bit (optimistic vs static detection differ in output).
  static std::uint64_t key(std::string_view source, bool optimistic);

  /// nullptr on miss. A hit refreshes the entry's LRU position.
  std::shared_ptr<const ModelEntry> lookup(std::uint64_t key);

  /// Insert-or-replace under the byte bound: least-recently-used entries
  /// are evicted until the new entry fits; an entry larger than the whole
  /// bound is not cached at all (counted as an eviction). The
  /// "service.cache.insert" failpoint fires here — an injected fault is
  /// swallowed and counted (insert_failures): caching is an optimization,
  /// its failure must never fail the request.
  void insert(std::uint64_t key, std::shared_ptr<const ModelEntry> entry);

  [[nodiscard]] CacheStats stats() const;
  void clear();

 private:
  void publish_locked();

  mutable std::mutex mutex_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t insert_failures_ = 0;
  std::list<std::uint64_t> lru_;  // front = most recently used
  struct Slot {
    std::shared_ptr<const ModelEntry> entry;
    std::list<std::uint64_t>::iterator pos;
  };
  std::unordered_map<std::uint64_t, Slot> map_;
};

}  // namespace patty::service
