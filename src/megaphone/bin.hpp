// Bins: the unit of state migration.
//
// Megaphone groups keys into a fixed power-of-two number of bins
// (paper §4.2); a bin holds the user state for its keys plus all pending
// post-dated records ("the list of pending (val, time) records produced by
// the operator for future times", §3.4), so that a migration moves both.
// One bin type serves operators of any number of data inputs: StateBin
// keeps one pending map per input, and Bin is its one-input form.
//
// The user state inside a bin sits on the migratable-state layer
// (src/state/): a backend exposing whole-value serde (checkpoints) *and* a
// resumable chunk cursor. A migrating bin is moved out of its worker into
// a BinCursor, which encodes the bin's sections only when F's flow control
// asks for them, filling at most the room the current frame has left. F
// packs consecutive bins into shared BinChunk frames (control.hpp), so a
// small bin is one segment of a frame and a large one spans frames; the
// destination absorbs segments incrementally.
//
// The F and S operator instances on the same worker share the bin
// container through a shared pointer — they run on the same thread, so no
// synchronization is needed, exactly as the paper describes.
#pragma once

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "megaphone/control.hpp"
#include "state/state.hpp"

namespace megaphone {

namespace detail {

/// Section tags inside one bin's segment of a BinChunk (tag 0 is retired:
/// it carried a whole-bin encoding before monolithic migration became an
/// unbounded cursor; kSecSegment in control.hpp frames further segments).
constexpr uint8_t kSecState = 1;     // one backend state chunk
constexpr uint8_t kSecPending0 = 2;  // pending map i at tag kSecPending0+i

}  // namespace detail

/// State and pending records of one bin of an operator whose data inputs
/// carry records of types Ds... (one pending map per input, in input
/// order).
template <typename S, typename T, typename... Ds>
struct StateBin {
  static_assert(sizeof...(Ds) > 0, "a bin serves at least one input");
  using Backend = state::BackendFor<S>;

  Backend state{};
  /// Post-dated records by time; map i holds input i's records.
  std::tuple<std::map<T, std::vector<Ds>>...> pending;

  /// The state reference the operator logic sees: the declared type S.
  S& user_state() { return state::BackendSel<S>::user(state); }

  template <typename Fn>
  void ForEachPendingTime(Fn fn) const {
    auto times = [&](const auto& m) {
      for (const auto& [t, _] : m) fn(t);
    };
    std::apply([&](const auto&... m) { (times(m), ...); }, pending);
  }

  /// Cheap size estimate for load statistics: state entries (when the
  /// backend exposes a count) plus pending records, scaled by the mean
  /// record size of the inputs. Relative weight only — the adaptive
  /// controller compares bins against each other, it never bills exact
  /// bytes.
  uint64_t ApproxBytes() const {
    uint64_t n = 0;
    if constexpr (requires { state.size(); }) n = state.size();
    auto records = [&](const auto& m) {
      for (const auto& [t, v] : m) n += v.size();
    };
    std::apply([&](const auto&... m) { (records(m), ...); }, pending);
    return n * ((sizeof(Ds) + ...) / sizeof...(Ds));
  }

  /// Whole-value serde: the state backend followed by each pending map,
  /// in input order.
  void Serialize(Writer& w) const {
    Encode(w, state);
    std::apply([&](const auto&... m) { (Encode(w, m), ...); }, pending);
  }
  static StateBin Deserialize(Reader& r) {
    StateBin b;
    b.state = Decode<Backend>(r);
    std::apply(
        [&](auto&... m) {
          ((m = Decode<std::remove_reference_t<decltype(m)>>(r)), ...);
        },
        b.pending);
    return b;
  }

  /// Incremental absorption of one segment's sections. Pending-map
  /// sections accumulate into one buffer per map until the bin's last
  /// segment, whose arrival finalizes the backend and decodes the maps.
  void AbsorbChunk(Reader& r, bool last) {
    state::ForEachSection(r, [&](uint8_t tag, Reader& sec) {
      if (tag == detail::kSecState) {
        state.AbsorbChunk(sec);
        // Malformed wire input surfaces as SerdeError, never UB or abort.
        if (!sec.AtEnd()) {
          throw SerdeError("bin chunk: state section not fully absorbed");
        }
      } else {
        size_t i = tag - detail::kSecPending0;
        if (i >= sizeof...(Ds)) {
          throw SerdeError("bin chunk: unknown section tag");
        }
        size_t n = sec.remaining();
        size_t old = absorb_bufs_[i].size();
        absorb_bufs_[i].resize(old + n);
        sec.ReadBytes(absorb_bufs_[i].data() + old, n);
      }
    });
    if (!last) return;
    state.FinishAbsorb();
    size_t i = 0;
    auto finish_pending = [&](auto& m) {
      auto& buf = absorb_bufs_[i++];
      if (buf.empty()) return;
      m = DecodeFromBytes<std::remove_reference_t<decltype(m)>>(buf);
      buf.clear();
      buf.shrink_to_fit();
    };
    std::apply([&](auto&... m) { (finish_pending(m), ...); }, pending);
  }

 private:
  std::array<std::vector<uint8_t>, sizeof...(Ds)> absorb_bufs_;
};

/// The bin of a one-input operator: records of type D, times T.
template <typename S, typename D, typename T>
using Bin = StateBin<S, T, D>;

/// The per-worker bin container shared between co-located F and S
/// instances. `bins[b] == nullptr` means bin b is not (or not yet)
/// resident on this worker; S creates bins lazily on first use.
///
/// `pending_bins` indexes, per time, the resident bins holding pending
/// records at that time — the "extended notificator" of §4.3, kept as an
/// ordered map so S can replay pending times in order and F can unregister
/// the times of a bin it extracts for migration.
template <typename BinT, typename T>
struct BinsShared {
  explicit BinsShared(uint32_t n) : bins(n) {}

  std::vector<std::unique_ptr<BinT>> bins;
  std::map<T, std::set<BinId>> pending_bins;
  /// Checkpoint-restore staging: (bin, whole-value bytes) deposited by
  /// StatefulOutput::restore_bins before stepping begins; S installs
  /// them (deserializing and re-registering pending times under its
  /// capability hold) at its first schedule, then clears this.
  std::vector<std::pair<BinId, std::vector<uint8_t>>> restore_staging;

  /// Registers that `bin` has pending records at time `t`. Returns true if
  /// `t` is newly pending for this worker (caller retains a capability).
  bool RegisterPending(const T& t, BinId bin) {
    auto [it, inserted] = pending_bins.emplace(t, std::set<BinId>{});
    it->second.insert(bin);
    return inserted;
  }

  /// Makes `b` resident as `bin`: registers its pending times, calling
  /// `hold(t)` on each (S's capability hold), then installs it. The one
  /// install path of migrated and checkpoint-restored bins.
  template <typename HoldFn>
  void Install(BinId bin, std::unique_ptr<BinT> b, HoldFn hold) {
    b->ForEachPendingTime([&](const T& t) {
      RegisterPending(t, bin);
      hold(t);
    });
    bins[bin] = std::move(b);
  }

  /// Number of resident bins (for tests and load introspection).
  size_t ResidentBins() const {
    size_t n = 0;
    for (const auto& b : bins) {
      if (b) n++;
    }
    return n;
  }
};

/// Per-time stash of incoming records grouped by destination bin: a flat
/// vector indexed by BinId — the per-time bin queues of §4.3 without any
/// per-(time, bin) hashing. The record path is a single indexed push;
/// occupancy is recovered by scanning the (small, cache-resident) bin
/// index at apply time. Slots keep their capacity when cleared, and whole
/// stashes are recycled through BinStashPool, so the steady state
/// allocates nothing per (time, bin).
template <typename D>
struct BinStash {
  std::vector<std::vector<D>> by_bin;

  void EnsureBins(uint32_t n) {
    if (by_bin.size() < n) by_bin.resize(n);
  }

  bool Has(BinId b) const { return !by_bin[b].empty(); }

  /// Record vector of `b`.
  std::vector<D>& SlotRef(BinId b) { return by_bin[b]; }

  /// Appends every nonempty bin id to `out`, in increasing order.
  void AppendOccupied(std::vector<BinId>& out) const {
    for (BinId b = 0; b < by_bin.size(); ++b) {
      if (!by_bin[b].empty()) out.push_back(b);
    }
  }

  /// Clears every slot (keeping capacity).
  void Reset() {
    for (auto& v : by_bin) {
      if (!v.empty()) v.clear();
    }
  }
};

/// Free list of BinStash instances. Single-threaded: each S operator owns
/// one pool, and F/S co-located on a worker run on that worker's thread.
template <typename D>
class BinStashPool {
 public:
  BinStash<D> Acquire(uint32_t num_bins) {
    if (free_.empty()) {
      BinStash<D> s;
      s.EnsureBins(num_bins);
      return s;
    }
    BinStash<D> s = std::move(free_.back());
    free_.pop_back();
    s.EnsureBins(num_bins);
    return s;
  }

  void Recycle(BinStash<D>&& s) {
    s.Reset();
    free_.push_back(std::move(s));
  }

  size_t size() const { return free_.size(); }

 private:
  std::vector<BinStash<D>> free_;
};

namespace detail {

/// The section cursor of one migrating bin. It owns the bin, moved out of
/// the worker's container: from the migration time on, routing sends the
/// bin's records to the new owner, so nothing else touches it. Each
/// NextFrame call appends one segment's sections, filling at most the room
/// it is given (0 = the whole bin):
///
///   * the segment starts with the next state section, a chunk from the
///     backend's cursor bounded by the room; a section that fills the
///     room or is not the backend's last ends the segment;
///   * after the state, each nonempty pending map's encoding follows in
///     slices cut to the room that is left;
///   * an empty bin is one segment without sections, so residency
///     transfers.
template <typename BinT>
class BinCursor final : public FrameCursor {
 public:
  explicit BinCursor(std::unique_ptr<BinT> bin)
      : bin_(std::move(bin)), state_(bin_->state) {}

  bool done() const override { return done_; }

  size_t NextFrame(Writer& w, size_t max_bytes) override {
    MEGA_DCHECK(!done_) << "frame requested past the last one";
    const size_t room =
        max_bytes == 0 ? std::numeric_limits<size_t>::max() : max_bytes;
    size_t payload = 0;
    if (!state_.done()) {
      payload += state::AppendSection(
          w, kSecState, [&](Writer& fw) { state_.Next(max_bytes, fw); });
      if (!state_.done() || payload >= room) return Finish(payload);
    }
    LoadPending();
    while (next_ < pending_.size() && payload < room) {
      const auto& [tag, bytes] = pending_[next_];
      size_t n = std::min(bytes.size() - off_, room - payload);
      payload += state::AppendSection(
          w, tag, [&](Writer& fw) { fw.WriteBytes(bytes.data() + off_, n); });
      off_ += n;
      if (off_ == bytes.size()) {
        ++next_;
        off_ = 0;
      }
    }
    return Finish(payload);
  }

 private:
  // The segment was the bin's last once the state and every pending
  // section have been sent.
  size_t Finish(size_t payload) {
    if (state_.done()) LoadPending();
    done_ = state_.done() && next_ == pending_.size();
    return payload;
  }

  // Encodes the nonempty pending maps, whose sections follow the state.
  void LoadPending() {
    if (pending_loaded_) return;
    pending_loaded_ = true;
    uint8_t tag = kSecPending0;
    std::apply(
        [&](const auto&... m) {
          ((m.empty() ? void()
                      : (void)pending_.emplace_back(tag, EncodeToBytes(m)),
            ++tag),
           ...);
        },
        bin_->pending);
  }

  std::unique_ptr<BinT> bin_;
  typename BinT::Backend::ChunkCursor state_;
  // (tag, encoding) of each nonempty pending map, sent in order from
  // pending_[next_] at byte off_.
  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> pending_;
  size_t next_ = 0;
  size_t off_ = 0;
  bool pending_loaded_ = false;
  bool done_ = false;
};

/// Extracts `bin` from the shared container for migration: unregisters its
/// pending times, moves the bin out of its slot and returns the cursor
/// that will encode it into frames (the frame bound lives in
/// ControlState::FlushChunks). Nothing is encoded yet. Returns null for
/// non-resident bins — there is nothing to move; the target creates the
/// bin lazily.
template <typename BinT, typename T>
std::unique_ptr<FrameCursor> ExtractBin(BinsShared<BinT, T>& shared,
                                        BinId bin) {
  auto& slot = shared.bins[bin];
  if (!slot) return nullptr;
  slot->ForEachPendingTime([&](const T& t) {
    auto it = shared.pending_bins.find(t);
    if (it != shared.pending_bins.end()) it->second.erase(bin);
    // Empty sets are left for S to erase and release its capability.
  });
  return std::make_unique<BinCursor<BinT>>(std::move(slot));
}

}  // namespace detail

}  // namespace megaphone
