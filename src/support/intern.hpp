#pragma once
// Global string interning.
//
// A Symbol is a 32-bit handle to a process-wide interned string. Equality
// is one integer compare, hashing is identity, and the spelling is
// recovered in O(1) without a lock — which is what lets the front-end key
// its hot maps (identifier lookup, member resolution, effect locations)
// by integer instead of by std::string.
//
// The table is shared and thread-safe: the corpus pipeline lexes many
// programs concurrently, so interning takes a per-shard mutex (16 shards,
// so parse-stage replicas rarely collide). Lookup by id (`Symbol::str()`)
// is lock-free: each shard stores its strings in append-only blocks whose
// pointers are published with release stores, and an interned string is
// never moved or freed for the life of the process.
//
// Determinism invariant (see DESIGN.md "Memory layout & granularity"):
// symbol *ids* depend on interning order, which varies across threads and
// processes. Ids therefore never feed ordered output — anything sorted or
// printed compares the interned text (Symbol::view()), and fingerprints
// only ever contain spellings, never ids.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace patty::support {

class Interner;

/// Handle to one interned string. Default-constructed == empty string.
class Symbol {
 public:
  constexpr Symbol() = default;

  /// Intern `text` (thread-safe) and return its stable handle.
  static Symbol intern(std::string_view text);

  /// Rebuild a handle from a previously obtained id (e.g. a memo cache).
  static constexpr Symbol from_id(std::uint32_t id) { return Symbol(id); }

  [[nodiscard]] const std::string& str() const;
  [[nodiscard]] std::string_view view() const { return str(); }
  [[nodiscard]] const char* c_str() const { return str().c_str(); }
  [[nodiscard]] bool empty() const { return id_ == 0; }
  [[nodiscard]] std::size_t size() const { return str().size(); }
  [[nodiscard]] std::uint32_t id() const { return id_; }

  /// Implicit view as the interned spelling; keeps string-consuming call
  /// sites (diagnostics, map<string> keys) source-compatible.
  operator const std::string&() const { return str(); }  // NOLINT

  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
  friend bool operator!=(Symbol a, Symbol b) { return a.id_ != b.id_; }
  friend bool operator==(Symbol a, std::string_view b) { return a.view() == b; }
  friend bool operator==(std::string_view a, Symbol b) { return a == b.view(); }
  friend bool operator!=(Symbol a, std::string_view b) { return a.view() != b; }
  friend bool operator!=(std::string_view a, Symbol b) { return a != b.view(); }

  // Non-template concatenation overloads: the std::string operator+ /
  // operator== templates don't deduce through a user-defined conversion,
  // so message-building code like `"class '" + cls.name + "'"` needs
  // these spelled out.
  friend std::string operator+(const char* lhs, Symbol rhs) {
    return lhs + rhs.str();
  }
  friend std::string operator+(Symbol lhs, const char* rhs) {
    return lhs.str() + rhs;
  }
  friend std::string operator+(const std::string& lhs, Symbol rhs) {
    return lhs + rhs.str();
  }
  friend std::string operator+(Symbol lhs, const std::string& rhs) {
    return lhs.str() + rhs;
  }
  friend std::string operator+(std::string&& lhs, Symbol rhs) {
    return std::move(lhs) + rhs.str();
  }

  /// Deterministic text order (never id order — ids vary run to run).
  static bool text_less(Symbol a, Symbol b) {
    return a.id_ != b.id_ && a.view() < b.view();
  }

 private:
  friend class Interner;
  explicit constexpr Symbol(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = 0;
};

/// Identity hash for unordered containers keyed by Symbol. Use only where
/// iteration order does not reach any output (ids are not deterministic).
struct SymbolHash {
  std::size_t operator()(Symbol s) const noexcept { return s.id(); }
};

/// The process-wide intern table backing Symbol.
class Interner {
 public:
  static Interner& global();

  Symbol intern(std::string_view text);
  [[nodiscard]] const std::string& str(std::uint32_t id) const;

  struct Stats {
    std::uint64_t symbols = 0;  // distinct interned strings
    std::uint64_t bytes = 0;    // total interned character data
  };
  [[nodiscard]] Stats stats() const;

 private:
  Interner();
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  static constexpr std::uint32_t kShardBits = 4;
  static constexpr std::uint32_t kShards = 1u << kShardBits;
  static constexpr std::uint32_t kBlockSize = 1024;
  static constexpr std::uint32_t kMaxBlocks = 4096;  // 4M symbols per shard

  // A spelling with its precomputed hash, so a lookup hashes the text once.
  struct Key {
    std::string_view text;
    std::size_t hash;
    bool operator==(const Key& other) const { return text == other.text; }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept { return k.hash; }
  };

  struct Shard {
    mutable std::mutex mutex;
    // Keys view into the block storage below; entries are never removed.
    std::unordered_map<Key, std::uint32_t, KeyHash> map;
    // Append-only storage. Blocks are allocated under the mutex and
    // published with a release store so id->string lookup never locks.
    std::array<std::atomic<std::string*>, kMaxBlocks> blocks{};
    std::uint32_t count = 0;               // guarded by mutex
    std::atomic<std::uint64_t> bytes{0};
  };

  std::array<Shard, kShards> shards_;
};

inline Symbol Symbol::intern(std::string_view text) {
  return Interner::global().intern(text);
}

inline const std::string& Symbol::str() const {
  return Interner::global().str(id_);
}

}  // namespace patty::support
