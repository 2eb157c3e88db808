// DenseState: the dense-vector state backend behind the paper's "key
// count" workloads — per-slot values indexed by the key's low bits.
// Migration chunks are offset-tagged slices that also carry the bin's
// value count ([u64 offset][u64 total][values...]), so a multi-megabyte
// bin ships as many bounded frames and the receiver sizes the bin once at
// its first chunk, then appends each chunk's values in place: one
// allocation and one write per byte, with no decode spike at the end.
// For raw-bytes value types (the counts) extraction is a memcpy per chunk
// and absorb a single copy out of the frame.
#pragma once

#include <algorithm>
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

  // Migratable-state chunk interface: [u64 offset][u64 total][values...],
  // where `total` is the bin's value count, repeated in every chunk so
  // each one validates on its own. When V encodes as its raw bytes, a
  // chunk is the header plus one memcpy of a run of values; the run is
  // cut where the per-element rule ("stop once the payload reaches the
  // bound") cuts it, so both paths produce the same bytes.
  class ChunkCursor {
   public:
    explicit ChunkCursor(const DenseState& s) : v_(&s.values_) {}

    bool done() const { return off_ >= v_->size(); }

    void Next(size_t max_bytes, Writer& w) {
      const size_t start = w.size();
      const uint64_t head[2] = {off_, v_->size()};
      if constexpr (kBulk) {
        size_t n = v_->size() - off_;
        if (max_bytes != 0) n = std::min(n, RunLength(max_bytes));
        w.Reserve(start + sizeof(head) + n * sizeof(V));
        w.WriteBytes(head, sizeof(head));
        w.WriteBytes(v_->data() + off_, n * sizeof(V));
        off_ += n;
      } else {
        w.WriteBytes(head, sizeof(head));
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

  /// The most a chunk's total may reserve before the values arrive, which
  /// bounds what a corrupt total costs. An honest bin above it grows
  /// geometrically, capped at its total, as its values arrive, so its
  /// capacity still ends at the total.
  static constexpr size_t kMaxReserveBytes = size_t{16} << 20;

  /// Appends one chunk to a state that started empty. Chunks must arrive
  /// in offset order, each starting exactly where the absorbed values
  /// end, carrying at least one value and the same total, and none past
  /// that total; anything else is a corrupt frame (SerdeError). The
  /// first chunk reserves the total, clamped to kMaxReserveBytes.
  void AbsorbChunk(Reader& r) {
    uint64_t head[2];  // offset, total
    r.ReadBytes(head, sizeof(head));
    const uint64_t off = head[0], total = head[1];
    if (off != values_.size()) {
      throw SerdeError(off > values_.size()
                           ? "dense state chunk leaves a gap"
                           : "dense state chunk overlaps absorbed values");
    }
    if (r.AtEnd()) throw SerdeError("dense state chunk carries no values");
    if (off == 0) {
      total_ = total;
      values_.reserve(std::min<uint64_t>(total, kMaxReserveBytes / sizeof(V)));
    } else if (total != total_) {
      throw SerdeError("dense state chunk disagrees on the bin's total");
    }
    if constexpr (kBulk) {
      const size_t bytes = r.remaining();
      if (bytes % sizeof(V) != 0) {
        throw SerdeError("dense state chunk ends mid-value");
      }
      const size_t n = bytes / sizeof(V);
      MakeRoom(n);
      const uint8_t* p = r.ReadView(bytes);
      values_.insert(values_.end(), UnalignedIter<V>(p),
                     UnalignedIter<V>(p + bytes));
    } else {
      while (!r.AtEnd()) {
        MakeRoom(1);
        values_.push_back(Decode<V>(r));
      }
    }
  }

  /// Called after the last chunk: a bin shorter than its total lost
  /// chunks on the way.
  void FinishAbsorb() {
    if (values_.size() < total_) {
      throw SerdeError("dense state bin is shorter than its total");
    }
  }

 private:
  // std::vector<bool> has no contiguous value storage to copy.
  static constexpr bool kBulk = RawBytesSerde<V> && !std::is_same_v<V, bool>;

  /// Values per chunk under a nonzero bound: the smallest run whose
  /// payload ([u64 offset][u64 total] + values) reaches `max_bytes`, at
  /// least one.
  static size_t RunLength(size_t max_bytes) {
    constexpr size_t kHead = 2 * sizeof(uint64_t);
    if (max_bytes <= kHead + sizeof(V)) return 1;
    return (max_bytes - kHead + sizeof(V) - 1) / sizeof(V);
  }

  /// Checks that `n` more values stay within the total and makes room for
  /// them without growing capacity past the total.
  void MakeRoom(size_t n) {
    const size_t end = values_.size() + n;
    if (end > total_) {
      throw SerdeError("dense state chunk overruns the bin's total");
    }
    if (end > values_.capacity()) {
      values_.reserve(std::min<uint64_t>(
          total_, std::max(end, 2 * values_.capacity())));
    }
  }

  Raw values_;
  uint64_t total_ = 0;  // the absorbed bin's value count, from its chunks
};

}  // namespace state
}  // namespace megaphone
