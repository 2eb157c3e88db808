// MapState: the flat hash-map state backend — the organization the paper's
// "hash count" workloads and most NEXMark queries use. Migration chunks
// are runs of (key, value) entries cut at ~max_bytes, absorbed by plain
// insertion, so a receiving worker installs a bin incrementally with no
// end-of-transfer decode spike.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "state/migratable.hpp"

namespace megaphone {
namespace state {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class MapState {
 public:
  using Raw = std::unordered_map<K, V, Hash, Eq>;
  using iterator = typename Raw::iterator;
  using const_iterator = typename Raw::const_iterator;

  // Container interface: a drop-in for the unordered_map it wraps.
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

  friend bool operator==(const MapState& a, const MapState& b) {
    return a.map_ == b.map_;
  }

  // Serde (checkpoint path): identical to the wrapped map's encoding.
  void Serialize(Writer& w) const { Encode(w, map_); }
  static MapState Deserialize(Reader& r) {
    MapState s;
    s.map_ = Decode<Raw>(r);
    return s;
  }

  // Migratable-state chunk interface.
  using ChunkCursor = EntryRunCursor<MapState>;
  void EnumerateChunks(size_t max_bytes, const ChunkEmit& emit) const {
    EnumerateWithCursor(*this, max_bytes, emit);
  }
  void AbsorbChunk(Reader& r) {
    while (!r.AtEnd()) {
      K k = Decode<K>(r);
      V v = Decode<V>(r);
      map_.emplace(std::move(k), std::move(v));
    }
  }
  void FinishAbsorb() {}

 private:
  Raw map_;
};

}  // namespace state
}  // namespace megaphone
