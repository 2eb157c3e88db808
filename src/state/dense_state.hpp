// DenseState: the dense-vector state backend behind the paper's "key
// count" workloads — per-slot values indexed by the key's low bits.
// Migration chunks are offset-tagged slices ([u64 offset][values...]), so
// a multi-megabyte bin ships as many bounded frames and the receiver
// reassembles in place with no decode spike at the end. For raw-bytes
// value types (the counts) both directions are a memcpy per chunk.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "state/migratable.hpp"

namespace megaphone {
namespace state {

template <typename V>
class DenseState {
 public:
  using Raw = std::vector<V>;

  // Container interface: a drop-in for the vector it wraps. operator[]
  // stays a bare indexed load — this backend sits on the key-count hot
  // path.
  V& operator[](size_t i) { return values_[i]; }
  const V& operator[](size_t i) const { return values_[i]; }
  void resize(size_t n) { values_.resize(n); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  V* data() { return values_.data(); }
  const V* data() const { return values_.data(); }
  void clear() { values_.clear(); }
  Raw& raw() { return values_; }
  const Raw& raw() const { return values_; }

  friend bool operator==(const DenseState& a, const DenseState& b) {
    return a.values_ == b.values_;
  }

  // Serde (checkpoint path): identical to the wrapped vector's encoding.
  void Serialize(Writer& w) const { Encode(w, values_); }
  static DenseState Deserialize(Reader& r) {
    DenseState s;
    s.values_ = Decode<Raw>(r);
    return s;
  }

  // Migratable-state chunk interface: [u64 offset][values...]. When V
  // encodes as its raw bytes, a chunk is the offset plus one memcpy of a
  // run of values, and absorb is one bounds-checked memcpy back; the run
  // is cut where the per-element rule ("stop once the payload reaches the
  // bound") cuts it, so both paths produce the same bytes.
  class ChunkCursor {
   public:
    explicit ChunkCursor(const DenseState& s) : v_(&s.values_) {}

    bool done() const { return off_ >= v_->size(); }

    void Next(size_t max_bytes, Writer& w) {
      const size_t start = w.size();
      const uint64_t off64 = off_;
      if constexpr (kBulk) {
        size_t n = v_->size() - off_;
        if (max_bytes != 0) n = std::min(n, RunLength(max_bytes));
        w.Reserve(start + sizeof(off64) + n * sizeof(V));
        w.WriteBytes(&off64, sizeof(off64));
        w.WriteBytes(v_->data() + off_, n * sizeof(V));
        off_ += n;
      } else {
        w.WriteBytes(&off64, sizeof(off64));
        while (off_ < v_->size()) {
          Encode(w, (*v_)[off_]);
          ++off_;
          if (max_bytes != 0 && w.size() - start >= max_bytes) break;
        }
      }
    }

   private:
    const Raw* v_;
    size_t off_ = 0;
  };

  void EnumerateChunks(size_t max_bytes, const ChunkEmit& emit) const {
    EnumerateWithCursor(*this, max_bytes, emit);
  }

  void AbsorbChunk(Reader& r) {
    uint64_t off;
    r.ReadBytes(&off, sizeof(off));
    // Chunks arrive in offset order; a gap means a corrupt frame.
    if (off > values_.size()) {
      throw SerdeError("dense state chunk leaves a gap");
    }
    size_t idx = static_cast<size_t>(off);
    if constexpr (kBulk) {
      const size_t bytes = r.remaining();
      if (bytes % sizeof(V) != 0) {
        throw SerdeError("dense state chunk ends mid-value");
      }
      const size_t end = idx + bytes / sizeof(V);
      if (end > values_.size()) {
        // Power-of-two capacity, as element-wise push_back would leave
        // it; resize alone would overshoot to twice the final size.
        if (end > values_.capacity()) values_.reserve(std::bit_ceil(end));
        values_.resize(end);
      }
      r.ReadBytes(values_.data() + idx, bytes);
    } else {
      while (!r.AtEnd()) {
        V v = Decode<V>(r);
        if (idx < values_.size()) {
          values_[idx] = std::move(v);
        } else {
          values_.push_back(std::move(v));  // geometric growth amortizes
        }
        ++idx;
      }
    }
  }
  void FinishAbsorb() {}

 private:
  // std::vector<bool> has no contiguous value storage to copy.
  static constexpr bool kBulk = RawBytesSerde<V> && !std::is_same_v<V, bool>;

  /// Values per chunk under a nonzero bound: the smallest run whose
  /// payload ([u64 offset] + values) reaches `max_bytes`, at least one.
  static size_t RunLength(size_t max_bytes) {
    constexpr size_t kHead = sizeof(uint64_t);
    if (max_bytes <= kHead + sizeof(V)) return 1;
    return (max_bytes - kHead + sizeof(V) - 1) / sizeof(V);
  }

  Raw values_;
};

}  // namespace state
}  // namespace megaphone
