// The keyed state backend: one class over a key/value container, in two
// flavours.
//
//   * MapState (std::unordered_map): the flat hash-map backend — the
//     organization the paper's "hash count" workloads and most NEXMark
//     queries use.
//   * SortedState (std::map): the ordered / log-structured backend.
//     Content lives in key order, so migration chunks are *sorted runs*:
//     contiguous key ranges, smallest key first. Prefer it when keys are
//     small integers (categories, sellers) or when deterministic iteration
//     and cheap bulk ingest matter more than O(1) point lookups.
//
// Migration chunks are runs of (key, value) entries cut at ~max_bytes and
// absorbed by end-hinted insertion, so a receiving worker installs a bin
// incrementally with no end-of-transfer decode spike. For the ordered map
// the hint makes each insert of a sorted run O(1) — appending a sorted run
// to a sorted store is O(run), never a sort — which keeps per-chunk
// install cost flat no matter how large the bin is; the hash map ignores
// the hint.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "state/migratable.hpp"

namespace megaphone {
namespace state {

template <typename RawMap>
class KeyedState {
 public:
  using Raw = RawMap;
  using K = typename Raw::key_type;
  using V = typename Raw::mapped_type;
  using iterator = typename Raw::iterator;
  using const_iterator = typename Raw::const_iterator;

  // Container interface: a drop-in for the map it wraps.
  V& operator[](const K& k) { return map_[k]; }
  iterator find(const K& k) { return map_.find(k); }
  const_iterator find(const K& k) const { return map_.find(k); }
  iterator begin() { return map_.begin(); }
  iterator end() { return map_.end(); }
  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }
  iterator erase(iterator it) { return map_.erase(it); }
  size_t erase(const K& k) { return map_.erase(k); }
  template <typename... Args>
  auto emplace(Args&&... args) {
    return map_.emplace(std::forward<Args>(args)...);
  }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  size_t count(const K& k) const { return map_.count(k); }
  void clear() { map_.clear(); }
  Raw& raw() { return map_; }
  const Raw& raw() const { return map_; }

  friend bool operator==(const KeyedState& a, const KeyedState& b) {
    return a.map_ == b.map_;
  }

  // Serde (checkpoint path): identical to the wrapped map's encoding.
  void Serialize(Writer& w) const { Encode(w, map_); }
  static KeyedState Deserialize(Reader& r) {
    KeyedState s;
    s.map_ = Decode<Raw>(r);
    return s;
  }

  // Migratable-state chunk interface: entry runs out, hinted ingest in.
  using ChunkCursor = EntryRunCursor<KeyedState>;
  void EnumerateChunks(size_t max_bytes, const ChunkEmit& emit) const {
    EnumerateWithCursor(*this, max_bytes, emit);
  }
  void AbsorbChunk(Reader& r) {
    while (!r.AtEnd()) {
      K k = Decode<K>(r);
      V v = Decode<V>(r);
      map_.emplace_hint(map_.end(), std::move(k), std::move(v));
    }
  }
  void FinishAbsorb() {}

 private:
  Raw map_;
};

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
using MapState = KeyedState<std::unordered_map<K, V, Hash, Eq>>;

template <typename K, typename V, typename Cmp = std::less<K>>
using SortedState = KeyedState<std::map<K, V, Cmp>>;

}  // namespace state
}  // namespace megaphone
