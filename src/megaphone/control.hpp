// Configuration updates, the time-versioned routing table, and operator F's
// control-plane bookkeeping.
//
// Megaphone drives migration with a stream of configuration updates
// (paper §3.3): each update (time, bin, worker) declares that from `time`
// on, `bin` lives on `worker`. Updates are ordinary timestamped data; the
// control stream's frontier tells F when the configuration at a time can no
// longer change, and therefore when records at that time may be routed and
// migrations initiated.
//
// It also defines the state channel's frame (BinChunk): the one home of
// the packed-segment format that F's FlushChunks writes and S's
// AbsorbChunkFrame (stateful.hpp) reads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "state/migratable.hpp"
#include "timely/antichain.hpp"
#include "timely/operator.hpp"

namespace megaphone {

using BinId = uint32_t;

/// A state frame in flight on the state channel: a size-bounded run of
/// migrating bin content for one destination, tagged with its position in
/// each bin's chunk sequence. Every frame travels at its migration time t
/// (the frontier argument is unchanged: S cannot apply records at ≥ t
/// until F releases t, which happens only with the frame that carries the
/// last segment at t).
///
/// A frame holds one or more *segments*, each a consecutive piece of one
/// bin. The five fields describe the first segment, whose sections open
/// the payload; each further bin follows as one kSecSegment section (see
/// AppendSegment / ForEachSegment below). Packing lets many small bins
/// share a frame, so a migration costs per byte, not per bin. No frame
/// mixes times or targets.
///
/// A segment is a section stream ([u8 tag][u64 len][bytes]...; tags in
/// bin.hpp): state sections feed the backend's incremental absorb;
/// pending-map sections are reassembled and decoded at the bin's last
/// segment. With chunking off every bin for one target at t is one frame.
///
/// Member serde lets the state channel itself cross process boundaries:
/// a migration to a worker in another process ships these bytes over the
/// mesh, so state genuinely moves over the wire.
struct BinChunk {
  uint32_t target = 0;
  BinId bin = 0;
  uint32_t seq = 0;  // position within the bin's migration, from 0
  uint8_t last = 1;  // nonzero on the final segment of the bin
  std::vector<uint8_t> bytes;

  /// Encoded size: the four fixed fields plus the length-prefixed bytes.
  size_t WireSize() const {
    return 3 * sizeof(uint32_t) + 1 + sizeof(uint64_t) + bytes.size();
  }

  MEGA_SERDE_FIELDS(BinChunk, target, bin, seq, last, bytes)
};

/// A bin on its way out of this worker: it owns the moved-out bin and
/// encodes its sections on demand, so F does per step only the encoding
/// work that the step's flow-control budget lets it send.
class FrameCursor {
 public:
  FrameCursor() = default;
  FrameCursor(const FrameCursor&) = delete;
  FrameCursor& operator=(const FrameCursor&) = delete;
  virtual ~FrameCursor() = default;
  /// Appends the bin's next sections to `w`, at most `max_bytes` of
  /// section payload (0 = everything left; a backend may overshoot by one
  /// entry), and returns that payload — the bytes the chunk bound
  /// counts, without section and frame headers.
  virtual size_t NextFrame(Writer& w, size_t max_bytes) = 0;
  /// True once the bin's final section has been produced.
  virtual bool done() const = 0;
};

/// Section tag of a further segment in a packed frame, outside the range
/// of the per-bin section tags (bin.hpp).
constexpr uint8_t kSecSegment = 0xff;

/// Appends `cursor`'s next sections (at most `max_bytes` of payload, 0 =
/// all) to the frame in `w` as one further segment:
/// [kSecSegment][u64 len][u32 bin][u32 seq][u8 last][sections]. Returns
/// the section payload, as FrameCursor::NextFrame does.
inline size_t AppendSegment(Writer& w, BinId bin, uint32_t seq,
                            FrameCursor& cursor, size_t max_bytes) {
  size_t payload = 0;
  state::AppendSection(w, kSecSegment, [&](Writer& sw) {
    Encode(sw, bin);
    Encode(sw, seq);
    const size_t last_at = sw.size();
    Encode(sw, uint8_t{0});
    payload = cursor.NextFrame(sw, max_bytes);
    const uint8_t last = cursor.done() ? 1 : 0;
    sw.Overwrite(last_at, &last, 1);
  });
  return payload;
}

/// Calls `fn(bin, seq, last, sections)` for each segment of `c` in order,
/// where `sections` reads that segment's section stream. Malformed input
/// throws SerdeError.
template <typename Fn>
void ForEachSegment(const BinChunk& c, Fn fn) {
  // The first segment's sections run up to the first segment section.
  Reader scan(c.bytes);
  size_t first = 0;
  while (!scan.AtEnd() && c.bytes[first] != kSecSegment) {
    uint8_t tag;
    scan.ReadBytes(&tag, 1);
    scan.Sub(static_cast<size_t>(scan.ReadCount(1)));
    first = c.bytes.size() - scan.remaining();
  }
  Reader head(c.bytes.data(), first);
  fn(c.bin, c.seq, c.last != 0, head);
  Reader rest(c.bytes.data() + first, c.bytes.size() - first);
  state::ForEachSection(rest, [&](uint8_t tag, Reader& seg) {
    if (tag != kSecSegment) {
      throw SerdeError("state frame: bin section after a segment");
    }
    BinId bin = Decode<BinId>(seg);
    uint32_t seq = Decode<uint32_t>(seg);
    uint8_t last = Decode<uint8_t>(seg);
    fn(bin, seq, last != 0, seg);
  });
}

/// One configuration update: bin -> worker, effective at the update's
/// stream timestamp.
struct ControlInst {
  BinId bin = 0;
  uint32_t worker = 0;

  friend bool operator==(const ControlInst&, const ControlInst&) = default;
};

/// Maps the most significant bits of an exchange value to a bin
/// (paper §4.2: high bits, because low bits feed hash containers).
inline BinId BinOf(uint64_t exchange_value, uint32_t num_bins) {
  MEGA_DCHECK((num_bins & (num_bins - 1)) == 0) << "bins must be power of 2";
  if (num_bins == 1) return 0;
  // __builtin_ctz(num_bins) == log2(num_bins) for powers of two.
  return static_cast<BinId>(exchange_value >> (64 - __builtin_ctz(num_bins)));
}

/// The default (initial) assignment: bin i lives on worker i % workers.
inline uint32_t InitialOwner(BinId bin, uint32_t workers) {
  return bin % workers;
}

/// The configuration function `configuration(time, bin) -> worker`
/// (paper §3.2), stored as a per-bin history of (time, worker) versions.
///
/// Versions must be appended in nondecreasing time order per bin, which is
/// guaranteed because F integrates control updates in frontier order.
template <typename T>
class RoutingTable {
 public:
  RoutingTable(uint32_t num_bins, uint32_t workers)
      : workers_(workers), history_(num_bins), flat_(num_bins),
        max_version_time_(timely::TimestampTraits<T>::Minimum()) {
    MEGA_CHECK_GT(num_bins, 0u);
    MEGA_CHECK((num_bins & (num_bins - 1)) == 0)
        << "bin count must be a power of two";
    for (BinId b = 0; b < num_bins; ++b) {
      history_[b].emplace_back(timely::TimestampTraits<T>::Minimum(),
                               InitialOwner(b, workers));
      flat_[b] = InitialOwner(b, workers);
    }
  }

  uint32_t num_bins() const { return static_cast<uint32_t>(history_.size()); }
  uint32_t workers() const { return workers_; }

  /// Replaces the table's time-minimum base version with an explicit
  /// per-bin assignment (checkpoint restore: the run resumes with the
  /// routing the checkpoint was taken under, not bin % workers). Must be
  /// called before any Apply; note that OwnerBefore still falls back to
  /// InitialOwner for updates at the minimum time, so restored schedules
  /// must not migrate at the minimum timestamp — the harness never does.
  void ResetInitial(const std::vector<uint32_t>& owners) {
    MEGA_CHECK_EQ(owners.size(), history_.size())
        << "restored assignment has the wrong bin count";
    for (BinId b = 0; b < history_.size(); ++b) {
      MEGA_CHECK_LT(owners[b], workers_);
      MEGA_CHECK_EQ(history_[b].size(), size_t{1})
          << "ResetInitial after routing updates";
      history_[b].back().second = owners[b];
      flat_[b] = owners[b];
    }
  }

  /// Owner of `bin` for records at time `t`: the latest version with
  /// effective time ≤ t.
  uint32_t WorkerAt(const T& t, BinId bin) const {
    if (flat_valid_ &&
        timely::TimestampTraits<T>::LessEqual(max_version_time_, t)) {
      return flat_[bin];  // t sees every bin's latest version
    }
    const auto& h = history_[bin];
    for (auto it = h.rbegin(); it != h.rend(); ++it) {
      if (timely::TimestampTraits<T>::LessEqual(it->first, t)) {
        return it->second;
      }
    }
    MEGA_CHECK(false) << "no routing version at or before requested time";
    return 0;
  }

  /// Flat per-bin owner array, valid for routing at `t` iff `t` is at or
  /// past every stored version (the steady state between migrations);
  /// nullptr when some bin has a version in advance of `t` — or when
  /// versions at mutually incomparable times have made the single upper
  /// bound meaningless — in which case callers must take the per-record
  /// WorkerAt path.
  const uint32_t* FlatOwnersAt(const T& t) const {
    return flat_valid_ &&
                   timely::TimestampTraits<T>::LessEqual(max_version_time_, t)
               ? flat_.data()
               : nullptr;
  }

  /// Owner of `bin` just before an update at time `t` takes effect: the
  /// latest version with effective time strictly less than t.
  uint32_t OwnerBefore(const T& t, BinId bin) const {
    const auto& h = history_[bin];
    for (auto it = h.rbegin(); it != h.rend(); ++it) {
      if (timely::TimestampTraits<T>::LessEqual(it->first, t) &&
          !(it->first == t)) {
        return it->second;
      }
    }
    // The initial version is at the minimum time; an update at the minimum
    // time replaces it, in which case the initial owner is "before".
    return InitialOwner(bin, workers_);
  }

  /// Appends a version (time must be ≥ the bin's latest version time).
  void Apply(const T& t, BinId bin, uint32_t worker) {
    auto& h = history_[bin];
    MEGA_CHECK(timely::TimestampTraits<T>::LessEqual(h.back().first, t))
        << "routing versions must be appended in time order";
    if (h.back().first == t) {
      h.back().second = worker;  // later update at the same time wins
    } else {
      h.emplace_back(t, worker);
    }
    flat_[bin] = worker;
    if (timely::TimestampTraits<T>::LessEqual(max_version_time_, t)) {
      max_version_time_ = t;
    } else if (!timely::TimestampTraits<T>::LessEqual(t, max_version_time_)) {
      // `t` is incomparable to the running bound (partially ordered T):
      // no stored single time bounds every version any more, so the flat
      // fast path would misroute queries between the two; disable it.
      flat_valid_ = false;
    }
  }

  /// Drops versions that can no longer be consulted: every version
  /// strictly older than the latest version ≤ `t` when both data and
  /// control frontiers have passed `t`.
  void Compact(const T& t) {
    for (auto& h : history_) {
      size_t keep = 0;
      for (size_t i = 0; i < h.size(); ++i) {
        if (timely::TimestampTraits<T>::LessEqual(h[i].first, t)) keep = i;
      }
      if (keep > 0) h.erase(h.begin(), h.begin() + static_cast<long>(keep));
    }
  }

  /// Total number of stored versions (for tests / introspection).
  size_t TotalVersions() const {
    size_t n = 0;
    for (const auto& h : history_) n += h.size();
    return n;
  }

 private:
  uint32_t workers_;
  std::vector<std::vector<std::pair<T, uint32_t>>> history_;
  std::vector<uint32_t> flat_;  // owner at each bin's latest version
  T max_version_time_;     // upper bound on every version time while valid
  bool flat_valid_ = true;  // false once version times became incomparable
};

/// Operator F's control-plane state: buffered (not yet final) updates, the
/// routing table, and the queue of migrations this worker must perform.
/// One per F instance, whatever the operator's number of data inputs.
template <typename T>
class ControlState {
 public:
  ControlState(uint32_t num_bins, uint32_t workers, uint32_t my_worker)
      : routing_(num_bins, workers), me_(my_worker) {}

  RoutingTable<T>& routing() { return routing_; }
  const RoutingTable<T>& routing() const { return routing_; }

  /// Buffers control updates received at time `t`; retains a capability at
  /// `t` the first time it is seen (F must be able to emit state at `t`).
  void Enqueue(timely::OpCtx<T>& ctx, const T& t,
               std::vector<ControlInst>& updates) {
    auto [it, inserted] = pending_.emplace(t, std::vector<ControlInst>{});
    if (inserted) ctx.Retain(t);
    it->second.insert(it->second.end(), updates.begin(), updates.end());
  }

  /// Integrates every buffered update whose time is no longer in advance
  /// of the control frontier: applies it to the routing table and, where
  /// this worker loses a bin, queues a migration. Releases capabilities
  /// for times at which this worker has nothing to migrate.
  void IntegrateFinal(timely::OpCtx<T>& ctx,
                      const timely::Antichain<T>& control_frontier) {
    while (!pending_.empty()) {
      auto it = pending_.begin();
      const T& t = it->first;
      if (control_frontier.LessEqual(t)) break;  // still mutable
      for (const ControlInst& u : it->second) {
        routing_.Apply(t, u.bin, u.worker);
      }
      // A bin updated more than once at t (e.g. batches of two plans
      // flushed at one time) moves once, to the owner its last update at t
      // names — the owner routing uses from t on.
      std::vector<std::pair<BinId, uint32_t>> mine;
      std::vector<bool> seen(routing_.num_bins());
      for (auto u = it->second.rbegin(); u != it->second.rend(); ++u) {
        if (seen[u->bin]) continue;
        seen[u->bin] = true;
        if (routing_.OwnerBefore(t, u->bin) == me_ && u->worker != me_) {
          mine.emplace_back(u->bin, u->worker);
        }
      }
      std::reverse(mine.begin(), mine.end());
      if (mine.empty()) {
        ctx.Release(t);  // nothing for this worker to migrate at t
      } else {
        migrations_.emplace(t, std::move(mine));
      }
      pending_.erase(it);
    }
  }

  /// Migrations whose time has been reached by the S output frontier, in
  /// time order. `ready(t)` decides readiness (probe check); `extract(t,
  /// bin)` uninstalls the bin and returns a cursor over it (null when the
  /// bin is not resident: nothing moves). No frame is encoded here:
  /// FlushChunks pulls frames from the queued cursors under a per-step
  /// byte budget, and the capability at `t` is released only with the
  /// frame that carries the last segment at `t` — so the state frontier
  /// cannot pass `t` while chunks are still in flight, which is what makes
  /// incremental installation at S safe. The bins at `t` queue grouped by
  /// target, so that consecutive bins can share frames.
  template <typename ReadyFn, typename ExtractFn>
  bool RunReadyMigrations(timely::OpCtx<T>& ctx, ReadyFn ready,
                          ExtractFn extract) {
    bool any = false;
    while (!migrations_.empty()) {
      auto it = migrations_.begin();
      const T& t = it->first;
      if (!ready(t)) break;
      std::stable_sort(
          it->second.begin(), it->second.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      size_t before = outgoing_.size();
      for (auto& [bin, target] : it->second) {
        std::unique_ptr<FrameCursor> cursor = extract(t, bin);
        if (cursor) {
          outgoing_.push_back(
              Outgoing{t, target, bin, 0, std::move(cursor), false});
        }
      }
      if (outgoing_.size() == before) {
        ctx.Release(t);  // every bin at t was non-resident: nothing moves
      } else {
        outgoing_.back().release_after = true;
      }
      migrations_.erase(it);
      any = true;
    }
    return any;
  }

  /// Encodes and emits frames from the queued cursors in FIFO order until
  /// this call has sent `budget_bytes` of section payload (0 =
  /// unbounded). A frame holds at most `chunk_bytes` of section payload
  /// (0 = unbounded; a backend may overshoot by one entry) and packs
  /// consecutive bins for the same target at the same time: once a bin's
  /// last segment is in, the next bin continues in the frame's remaining
  /// room. The budget decides whether a new frame starts, and a started
  /// frame is filled up to the bound, so a budget of k x chunk_bytes
  /// sends k full frames — and at least one frame goes out whenever any is
  /// queued. Called once per worker step, this is the flow control that
  /// interleaves state movement with data processing; no encoded frame is
  /// ever held back between calls.
  template <typename SendFn>
  bool FlushChunks(timely::OpCtx<T>& ctx, uint64_t chunk_bytes,
                   uint64_t budget_bytes, SendFn send) {
    const size_t bound = chunk_bytes == 0
                             ? std::numeric_limits<size_t>::max()
                             : static_cast<size_t>(chunk_bytes);
    bool any = false;
    uint64_t sent = 0;
    while (!outgoing_.empty() && (budget_bytes == 0 || sent < budget_bytes)) {
      Outgoing* o = &outgoing_.front();
      const T t = o->t;
      BinChunk frame;
      frame.target = o->target;
      frame.bin = o->bin;
      frame.seq = o->next_seq++;
      Writer w;
      size_t payload = o->cursor->NextFrame(w, chunk_bytes);
      frame.last = o->cursor->done() ? 1 : 0;
      bool release = false;
      bool packed = false;
      while (o->cursor->done()) {
        release = o->release_after;
        outgoing_.pop_front();
        if (release || outgoing_.empty() || payload >= bound) break;
        o = &outgoing_.front();
        MEGA_DCHECK(o->t == t) << "bins at one time queue together";
        if (o->target != frame.target) break;
        if (!packed && chunk_bytes != 0) {
          // Sized once for the whole frame, headers included: per-segment
          // reservations would reallocate and copy it on every added bin.
          w.Reserve(bound + bound / 16);
        }
        packed = true;
        payload += AppendSegment(w, o->bin, o->next_seq++, *o->cursor,
                                 chunk_bytes == 0 ? 0 : bound - payload);
      }
      frame.bytes = w.Take();
      sent += payload;
      send(t, std::move(frame));
      any = true;
      if (release) ctx.Release(t);
    }
    return any;
  }

  /// Bins whose frames are not all sent yet.
  size_t queued_bins() const { return outgoing_.size(); }

 private:
  /// A bin migrating at time t to `target`; `release_after` marks the
  /// last bin migrating at t. `next_seq` numbers the bin's segments.
  struct Outgoing {
    T t;
    uint32_t target;
    BinId bin;
    uint32_t next_seq;
    std::unique_ptr<FrameCursor> cursor;
    bool release_after;
  };

  RoutingTable<T> routing_;
  uint32_t me_;
  std::map<T, std::vector<ControlInst>> pending_;
  std::map<T, std::vector<std::pair<BinId, uint32_t>>> migrations_;
  std::deque<Outgoing> outgoing_;
};

}  // namespace megaphone
