// The migratable-state layer: what a bin's user state must provide so the
// runtime can move it latency-consciously.
//
// Megaphone's migration unit is the bin (paper §4.2), but the *cost* of
// moving a bin is set by how its state serializes: a monolithic blob
// stalls the worker and the wire for the whole bin size (the fig. 15
// large-state spike). A MigratableState instead exposes its content as a
// stream of size-bounded, independently absorbable chunks, produced on
// demand by a resumable cursor, so operator F can encode and ship a bin a
// few chunks per worker step, interleaved with data processing, and
// operator S can install it incrementally.
//
// A state backend provides:
//
//   class ChunkCursor { explicit ChunkCursor(const S&); bool done() const;
//                       void Next(size_t max_bytes, Writer& w); }
//       — the extraction position over a state that outlives it. Next
//         appends the next chunk payload (~max_bytes, cut only at entry
//         boundaries, so a chunk exceeds the bound by at most one entry;
//         0 = everything left) to `w`; done() is true once nothing is left.
//         Migration moves the bin out of the worker and keeps the cursor
//         next to it until the last chunk has been sent;
//   void AbsorbChunk(Reader& r)
//       — install one previously emitted payload (chunks of one
//         extraction arrive exactly once, in emission order);
//   void FinishAbsorb()
//       — called after the last chunk; backends that buffer (BlobState)
//         decode here, DenseState rejects a bin short of the total its
//         chunks carry, LogState may compact, KeyedState does nothing;
//   void EnumerateChunks(size_t max_bytes, const ChunkEmit& emit) const
//       — the cursor run to completion, one payload per chunk (a wrapper
//         for tests and the per-layer benchmark);
//   void Serialize(Writer&) const / static S Deserialize(Reader&)
//       — whole-value serde, used by checkpoints and by tests comparing
//         backends. Migration never uses it.
//
// Backends shipped here: KeyedState, one keyed backend over two
// containers — MapState (flat hash map, the current default) and
// SortedState (ordered map migrating as sorted runs); DenseState (dense
// vector migrating as offset- and total-tagged slices, copied in bulk
// when the value type is raw bytes); LogState (spill-to-disk, streamed from its
// segments); and BlobState (adapter giving any serde-able type the chunk
// interface by slicing its encoding). BackendFor<S> picks the backend for
// a user-declared state type S, so existing operators over
// std::unordered_map / std::map / std::vector become chunk-aware without
// source changes.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"

namespace megaphone {
namespace state {

/// Receives one chunk payload during EnumerateChunks.
using ChunkEmit = std::function<void(std::vector<uint8_t>&&)>;

/// A state type the runtime can migrate chunk by chunk.
template <typename S>
concept ChunkableState =
    Serializable<S> && std::default_initializable<S> &&
    requires(const S cs, S s, typename S::ChunkCursor c, size_t n, Writer& w,
             Reader& r) {
      { typename S::ChunkCursor(cs) };
      { std::as_const(c).done() } -> std::convertible_to<bool>;
      { c.Next(n, w) };
      { s.AbsorbChunk(r) };
      { s.FinishAbsorb() };
    };

/// Runs `s`'s cursor to completion, emitting one payload per chunk: the
/// body of every backend's EnumerateChunks.
template <typename S>
void EnumerateWithCursor(const S& s, size_t max_bytes, const ChunkEmit& emit) {
  typename S::ChunkCursor c(s);
  while (!c.done()) {
    Writer w;
    c.Next(max_bytes, w);
    emit(w.Take());
  }
}

/// Cursor over a keyed container's (key, value) entries in iteration
/// order, cut at ~max_bytes: MapState's entry runs and SortedState's
/// sorted runs. `S::raw()` must outlive the cursor and stay unmodified.
template <typename S>
class EntryRunCursor {
 public:
  explicit EntryRunCursor(const S& s)
      : it_(s.raw().begin()), end_(s.raw().end()) {}

  bool done() const { return it_ == end_; }

  void Next(size_t max_bytes, Writer& w) {
    const size_t start = w.size();
    while (it_ != end_) {
      Encode(w, it_->first);
      Encode(w, it_->second);
      ++it_;
      if (max_bytes != 0 && w.size() - start >= max_bytes) break;
    }
  }

 private:
  typename S::Raw::const_iterator it_, end_;
};

/// Size of a section header inside a migration frame:
/// [u8 tag][u64 len] before `len` payload bytes.
constexpr size_t kSectionHeader = 1 + sizeof(uint64_t);

/// Appends one section whose payload `fill(w)` writes in place; the length
/// is patched in afterwards. Returns the payload length.
template <typename Fill>
size_t AppendSection(Writer& w, uint8_t tag, Fill&& fill) {
  w.WriteBytes(&tag, 1);
  const size_t len_at = w.size();
  uint64_t len = 0;
  w.WriteBytes(&len, sizeof(len));
  fill(w);
  len = w.size() - len_at - sizeof(len);
  w.Overwrite(len_at, &len, sizeof(len));
  return static_cast<size_t>(len);
}

/// Reads the section stream of one frame payload: calls
/// `on_section(tag, sub_reader)` per section, where the sub-reader covers
/// exactly that section's bytes.
template <typename Fn>
void ForEachSection(Reader& r, Fn on_section) {
  while (!r.AtEnd()) {
    uint8_t tag;
    r.ReadBytes(&tag, 1);
    uint64_t len = r.ReadCount(1);
    Reader sec = r.Sub(static_cast<size_t>(len));
    on_section(tag, sec);
  }
}

/// Adapter giving any serde-able S the chunk interface: chunks are slices
/// of the whole-value encoding, buffered on the receiver and decoded once
/// the last chunk has arrived. Wire frames stay size-bounded (the flow
///-control property), but installation is deferred — entry-granular
/// backends are strictly better when the type allows one.
template <typename S>
struct BlobState {
  S value{};

  void Serialize(Writer& w) const { Encode(w, value); }
  static BlobState Deserialize(Reader& r) {
    BlobState b;
    b.value = Decode<S>(r);
    return b;
  }

  /// Slices of the whole-value encoding, which is taken at the first
  /// Next (so a queued cursor has done no work yet).
  class ChunkCursor {
   public:
    explicit ChunkCursor(const BlobState& b) : b_(&b) {}

    bool done() const { return started_ && off_ >= bytes_.size(); }

    void Next(size_t max_bytes, Writer& w) {
      if (!started_) {
        bytes_ = EncodeToBytes(b_->value);
        started_ = true;
      }
      size_t left = bytes_.size() - off_;
      size_t take = max_bytes == 0 ? left : std::min(left, max_bytes);
      w.WriteBytes(bytes_.data() + off_, take);
      off_ += take;
    }

   private:
    const BlobState* b_;
    std::vector<uint8_t> bytes_;
    size_t off_ = 0;
    bool started_ = false;
  };

  void EnumerateChunks(size_t max_bytes, const ChunkEmit& emit) const {
    EnumerateWithCursor(*this, max_bytes, emit);
  }
  void AbsorbChunk(Reader& r) {
    size_t n = r.remaining();
    size_t old = absorb_buf_.size();
    absorb_buf_.resize(old + n);
    r.ReadBytes(absorb_buf_.data() + old, n);
  }
  void FinishAbsorb() {
    if (!absorb_buf_.empty()) {
      value = DecodeFromBytes<S>(absorb_buf_);
      absorb_buf_.clear();
      absorb_buf_.shrink_to_fit();
    }
  }

 private:
  std::vector<uint8_t> absorb_buf_;  // chunk bytes awaiting the last chunk
};

}  // namespace state
}  // namespace megaphone
