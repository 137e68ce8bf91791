#include "support/intern.hpp"

#include "support/diagnostics.hpp"

namespace patty::support {

Interner& Interner::global() {
  static Interner instance;
  return instance;
}

Interner::Interner() {
  // Reserve id 0 (shard 0, slot 0) for the empty string so a
  // default-constructed Symbol is valid and prints as "".
  Shard& shard = shards_[0];
  auto* block = new std::string[kBlockSize];
  shard.blocks[0].store(block, std::memory_order_release);
  shard.count = 1;
}

Symbol Interner::intern(std::string_view text) {
  if (text.empty()) return Symbol(0);
  // The one hash of `text`: it picks the shard, and the shard's map reuses it.
  const Key key{text, std::hash<std::string_view>{}(text)};
  const auto shard_index =
      static_cast<std::uint32_t>(key.hash & (kShards - 1));
  Shard& shard = shards_[shard_index];

  std::scoped_lock lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) return Symbol(it->second);

  const std::uint32_t slot = shard.count;
  const std::uint32_t block_index = slot / kBlockSize;
  if (block_index >= kMaxBlocks) fatal("intern table shard overflow");
  std::string* block = shard.blocks[block_index].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new std::string[kBlockSize];
    shard.blocks[block_index].store(block, std::memory_order_release);
  }
  std::string& stored = block[slot % kBlockSize];
  stored.assign(text.data(), text.size());
  ++shard.count;
  shard.bytes.fetch_add(text.size(), std::memory_order_relaxed);

  const std::uint32_t id = (slot << kShardBits) | shard_index;
  shard.map.emplace(Key{stored, key.hash}, id);
  return Symbol(id);
}

const std::string& Interner::str(std::uint32_t id) const {
  const Shard& shard = shards_[id & (kShards - 1)];
  const std::uint32_t slot = id >> kShardBits;
  const std::string* block =
      shard.blocks[slot / kBlockSize].load(std::memory_order_acquire);
  return block[slot % kBlockSize];
}

Interner::Stats Interner::stats() const {
  Stats s;
  for (const Shard& shard : shards_) {
    std::scoped_lock lock(shard.mutex);
    s.symbols += shard.count;
    s.bytes += shard.bytes.load(std::memory_order_relaxed);
  }
  s.symbols -= 1;  // don't count the reserved empty string
  return s;
}

}  // namespace patty::support
