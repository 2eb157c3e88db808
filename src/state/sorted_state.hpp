// SortedState: the ordered / log-structured state backend. Content lives
// in key order, so migration chunks are *sorted runs*: contiguous key
// ranges cut at ~max_bytes, emitted smallest key first. The receiver
// absorbs each run with an end-hinted insert — the log-structured ingest
// path: appending a sorted run to a sorted store is O(run), never a
// rehash or a sort — which keeps per-chunk install cost flat no matter
// how large the bin is. Prefer it over MapState when keys are small
// integers (categories, sellers) or when deterministic iteration and
// cheap bulk ingest matter more than O(1) point lookups.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "state/migratable.hpp"

namespace megaphone {
namespace state {

template <typename K, typename V, typename Cmp = std::less<K>>
class SortedState {
 public:
  using Raw = std::map<K, V, Cmp>;
  using iterator = typename Raw::iterator;
  using const_iterator = typename Raw::const_iterator;

  // Container interface: a drop-in for the ordered map it wraps.
  V& operator[](const K& k) { return map_[k]; }
  iterator find(const K& k) { return map_.find(k); }
  const_iterator find(const K& k) const { return map_.find(k); }
  iterator begin() { return map_.begin(); }
  iterator end() { return map_.end(); }
  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }
  iterator erase(iterator it) { return map_.erase(it); }
  size_t erase(const K& k) { return map_.erase(k); }
  iterator lower_bound(const K& k) { return map_.lower_bound(k); }
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

  friend bool operator==(const SortedState& a, const SortedState& b) {
    return a.map_ == b.map_;
  }

  // Serde (checkpoint path): identical to the wrapped map's encoding.
  void Serialize(Writer& w) const { Encode(w, map_); }
  static SortedState Deserialize(Reader& r) {
    SortedState s;
    s.map_ = Decode<Raw>(r);
    return s;
  }

  // Migratable-state chunk interface: sorted runs out, hinted ingest in.
  using ChunkCursor = EntryRunCursor<SortedState>;
  void EnumerateChunks(size_t max_bytes, const ChunkEmit& emit) const {
    EnumerateWithCursor(*this, max_bytes, emit);
  }
  void AbsorbChunk(Reader& r) {
    while (!r.AtEnd()) {
      K k = Decode<K>(r);
      V v = Decode<V>(r);
      // Runs arrive in key order, so the end hint makes each insert O(1).
      map_.emplace_hint(map_.end(), std::move(k), std::move(v));
    }
  }
  void FinishAbsorb() {}

 private:
  Raw map_;
};

}  // namespace state
}  // namespace megaphone
