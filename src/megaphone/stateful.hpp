// Megaphone's migratable stateful operators (paper §3.4, §4).
//
// Each stateful operator L is realized as a pair of dataflow operators,
// built by one core (detail::Stateful) for any number of data inputs;
// Unary, Binary and StateMachine are thin adapters over it. All inputs
// share one routing table, one bin container and one state channel, so
// "the migration mechanism acts on both inputs at the same time" (§3.4).
//
//   * F takes the control stream of configuration updates plus the data
//     streams. It routes records to the worker owning their bin *at the
//     record's timestamp*, buffering records whose time is still in
//     advance of the control frontier (the configuration there could still
//     change). F also initiates migrations: a configuration update at time
//     t is executed once the S output frontier reaches t — at that point
//     every record before t has been applied — by uninstalling the bin
//     from the co-located S and shipping it at time t on the state
//     channel. The bin moves into a cursor that encodes its content
//     only as it is sent, packed with the other bins for the same target
//     at t into shared BinChunk frames; with Config::chunk_bytes set the
//     frames are size-bounded and metered out kChunkFramesPerStep per
//     worker step (flow control), interleaved with data processing.
//     F keeps its capability at t until the frame carrying the last
//     segment at t has gone out, so the frontier argument is unchanged.
//
//   * S hosts the bins. It installs received state immediately — chunked
//     state incrementally, frame by frame, through the migratable-state
//     layer (src/state/) — stashes incoming records per (input, time,
//     bin), and applies them in timestamp order once the time is in
//     advance of neither any data-input frontier nor the state-input
//     frontier. Post-dated records scheduled by the user logic live inside
//     the bin and migrate with it.
//
// Per-input work (routing, stashing, applying) expands at compile time
// over the input index, so the one-input record path carries no
// indirection a hand-written unary operator would not.
//
// Capability discipline: F retains a capability at every buffered control
// or data time (so S frontiers cannot outrun a planned migration), and S
// retains one per distinct pending time (so its own output frontier cannot
// outrun unapplied records). Migration correctness then follows from the
// frontier conditions alone — there are no locks and no pauses, which is
// the paper's central claim.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "megaphone/bin.hpp"
#include "megaphone/control.hpp"
#include "timely/operator.hpp"
#include "timely/probe.hpp"
#include "timely/stream.hpp"

namespace megaphone {

/// Full chunk frames F may send per worker step.
constexpr uint64_t kChunkFramesPerStep = 4;

/// Configuration of a Megaphone stateful operator.
struct Config {
  /// Number of bins; must be a power of two, fixed at construction
  /// (paper §4.2). 2^12 is the paper's sweet spot.
  uint32_t num_bins = 256;
  /// Byte throttle on the state channel, modelling network bandwidth
  /// (0 = unthrottled). See DESIGN.md substitutions.
  uint64_t state_bytes_per_sec = 0;
  /// Maximum section payload bytes per state chunk frame. F packs
  /// consecutive bins for the same target at the same time into shared
  /// frames, and a bin larger than the room left spans frames, so a
  /// migration costs per byte, not per bin. 0 = monolithic: every bin
  /// for one target at t ships in one frame. With a bound, S installs the
  /// frames incrementally (src/state/), so the per-frame stall on worker
  /// and wire is bounded by the chunk size, not the bin size.
  uint64_t chunk_bytes = 0;
  /// Operator name (diagnostics).
  std::string name = "Stateful";
  /// Checkpoint restore: per-bin initial owner overriding the default
  /// `bin % workers` assignment. Must be empty or exactly `num_bins`
  /// entries, and may only be set on a routing table that has seen no
  /// updates yet — restored runs resume with the checkpointed assignment
  /// and must not migrate at the minimum timestamp.
  std::vector<uint32_t> initial_owner;

  /// Per-worker-step budget on chunk payload bytes leaving F — the flow
  /// control that interleaves state movement with data processing:
  /// kChunkFramesPerStep full frames per step (0, unbounded, when
  /// chunking is off).
  uint64_t ChunkStepBudget() const {
    return kChunkFramesPerStep * chunk_bytes;
  }
};

/// Process-wide counters of state-chunk frames emitted by every F
/// instance; the bench harness snapshots them around migration windows to
/// report per-migration chunk traffic.
struct ChunkCounters {
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> bytes{0};
};
inline ChunkCounters& chunk_counters() {
  static ChunkCounters c;
  return c;
}

/// A record in flight from F to S, tagged with its destination worker and
/// bin. Carrying the bin id saves S from recomputing the key function on
/// every record. Member serde (usable whenever D itself is serializable)
/// lets the F→S channel span processes, so routed records reach bins
/// hosted by workers of other processes.
template <typename D>
struct Routed {
  uint32_t target = 0;
  BinId bin = 0;
  D payload{};

  // Gated so a non-serializable D keeps Routed<D> out of Serde entirely:
  // single-process dataflows over such types still compile, and only a
  // remote push trips the runtime "cannot cross process boundaries" check.
  void Serialize(Writer& w) const
    requires Serializable<D>
  {
    Encode(w, target);
    Encode(w, bin);
    Encode(w, payload);
  }
  static Routed Deserialize(Reader& r)
    requires Serializable<D>
  {
    Routed out;
    out.target = Decode<uint32_t>(r);
    out.bin = Decode<BinId>(r);
    out.payload = Decode<D>(r);
    return out;
  }
};

/// Same-thread F→S handoff for self-routed records. Co-located F and S
/// run on one worker thread (paper §3.4: they share the bin container
/// without synchronization), so bundles routed to the own worker skip the
/// channel, and their produced/consumed progress deltas — which would net
/// to zero inside the worker step's consolidated batch — are never staged
/// at all. S notes the input time instead, which grants the same
/// capability basis as a channel delivery.
template <typename D, typename T>
struct SelfInbox {
  std::vector<std::pair<T, std::vector<Routed<D>>>> bundles;
  std::vector<std::vector<Routed<D>>> pool;  // recycled group buffers

  std::vector<Routed<D>> TakeBuffer() {
    if (pool.empty()) return {};
    std::vector<Routed<D>> v = std::move(pool.back());
    pool.pop_back();
    return v;
  }
};

/// Per-bin load statistics snapshot taken from one worker's S instance:
/// the raw input to the adaptive migration controller (see adaptive.hpp).
/// `records` counts records applied per bin since the previous snapshot
/// (and resets on take); `state_bytes` and `resident` describe the bins
/// currently hosted by this worker.
struct BinStats {
  std::vector<uint64_t> records;      // applied per bin since last take
  std::vector<uint64_t> state_bytes;  // approx bytes per resident bin
  std::vector<uint8_t> resident;      // 1 if the bin is hosted here
};

/// Result of constructing a stateful operator: its output stream plus a
/// probe on the S output frontier. The probe is what controllers use to
/// await migration completion ("the migration at time t has completed once
/// the frontier has passed t").
template <typename R, typename T>
struct StatefulOutput {
  timely::Stream<R, T> stream;
  timely::ProbeHandle<T> probe;

  /// Snapshots this worker's per-bin load statistics into `out` and resets
  /// the applied-record counters. Call from the worker's own driver loop
  /// (same thread as S, like the checkpoint hooks below).
  std::function<void(BinStats&)> take_bin_stats;

  /// Checkpoint hooks over this worker's bin container. `capture_bins`
  /// appends every resident bin as (bin id, whole-value serialization) —
  /// call it only at a frontier-aligned quiescent point (no stashed
  /// records, no in-flight migration). `restore_bins` stages such pairs
  /// for installation at S's next schedule, before any data is ingested;
  /// see BinsShared::restore_staging.
  std::function<void(std::vector<std::pair<uint32_t, std::vector<uint8_t>>>&)>
      capture_bins;
  std::function<void(std::vector<std::pair<uint32_t, std::vector<uint8_t>>>)>
      restore_bins;
};


namespace detail {

/// Calls `fn(std::integral_constant<size_t, I>{})` for I = 0..N-1, in
/// order, expanded at compile time.
template <size_t N, typename Fn>
void ForEachInput(Fn&& fn) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    (fn(std::integral_constant<size_t, I>{}), ...);
  }(std::make_index_sequence<N>{});
}

/// Schedules post-dated records for the bin currently being applied; they
/// are stored in the bin (and therefore migrate with it). `Schedule<I>`
/// post-dates a record of input I; `ScheduleAt` (one input) and
/// `Schedule1`/`Schedule2` (two inputs) are its spellings in the paper's
/// `unary` and `binary` interfaces.
template <typename S, typename T, typename... Ds>
class Scheduler {
  using BinT = StateBin<S, T, Ds...>;
  using First = std::tuple_element_t<0, std::tuple<Ds...>>;
  using Last = std::tuple_element_t<sizeof...(Ds) - 1, std::tuple<Ds...>>;

 public:
  Scheduler(BinsShared<BinT, T>* shared, BinT* bin, BinId bin_id,
            const T* now, timely::OpCtx<T>* ctx, std::set<T>* held)
      : shared_(shared), bin_(bin), bin_id_(bin_id), now_(now), ctx_(ctx),
        held_(held) {}

  /// Presents `rec` to input I again at time `t`, which must be strictly
  /// in the future.
  template <size_t I>
  void Schedule(const T& t, std::tuple_element_t<I, std::tuple<Ds...>> rec) {
    MEGA_CHECK(timely::InAdvanceOf(t, *now_) && !(t == *now_))
        << "post-dated records must be strictly in the future";
    std::get<I>(bin_->pending)[t].push_back(std::move(rec));
    shared_->RegisterPending(t, bin_id_);
    if (!held_->count(t)) {
      ctx_->Retain(t);
      held_->insert(t);
    }
  }

  void ScheduleAt(const T& t, First rec)
    requires(sizeof...(Ds) == 1)
  {
    Schedule<0>(t, std::move(rec));
  }
  void Schedule1(const T& t, First rec)
    requires(sizeof...(Ds) == 2)
  {
    Schedule<0>(t, std::move(rec));
  }
  void Schedule2(const T& t, Last rec)
    requires(sizeof...(Ds) == 2)
  {
    Schedule<1>(t, std::move(rec));
  }

 private:
  BinsShared<BinT, T>* shared_;
  BinT* bin_;
  BinId bin_id_;
  const T* now_;
  timely::OpCtx<T>* ctx_;
  std::set<T>* held_;
};

/// Picks the compaction horizon: the least of the frontier minima, if
/// every frontier is nonempty (totally ordered timestamps assumed for
/// routing-table compaction, which holds for every dataflow in this
/// repository).
template <typename T, typename... Rest>
std::optional<T> CompactionHorizon(const timely::Antichain<T>& first,
                                   const Rest&... rest) {
  if (first.empty() || (rest.empty() || ...)) return std::nullopt;
  T horizon = first.elements().front();
  auto lower = [&](const timely::Antichain<T>& a) {
    const T& ta = a.elements().front();
    if (!timely::TimestampTraits<T>::LessEqual(horizon, ta)) horizon = ta;
  };
  (lower(rest), ...);
  return horizon;
}

/// One bin mid-absorption at S: the partially installed bin plus the next
/// expected segment sequence number (segments of one migration arrive in
/// order on the FIFO state channel).
template <typename BinT>
struct AbsorbingBin {
  std::unique_ptr<BinT> bin;
  uint32_t next_seq = 0;
};

/// Installs every bin segment of one received frame, in order, into the
/// partial-bin set, finalizing residency — and registering the bin's
/// pending times through `hold` — at each bin's last segment. A bin that
/// arrives whole (one segment with seq 0 and last set) installs directly.
/// The frame is wire input: any inconsistency throws SerdeError.
template <typename BinT, typename T, typename HoldFn>
void AbsorbChunkFrame(BinsShared<BinT, T>& shared,
                      std::map<BinId, AbsorbingBin<BinT>>& absorbing,
                      const BinChunk& m, uint32_t worker, HoldFn hold) {
  if (m.target != worker) throw SerdeError("state frame: wrong target");
  ForEachSegment(m, [&](BinId bin, uint32_t seq, bool last, Reader& r) {
    if (bin >= shared.bins.size()) {
      throw SerdeError("state frame: bin id out of range");
    }
    if (shared.bins[bin]) {
      throw SerdeError("state frame: state for an already-resident bin");
    }
    auto it = absorbing.find(bin);
    if (seq != (it == absorbing.end() ? 0u : it->second.next_seq)) {
      throw SerdeError("state frame: segment out of order");
    }
    std::unique_ptr<BinT> whole;
    if (it == absorbing.end() && last) {
      whole = std::make_unique<BinT>();
      whole->AbsorbChunk(r, true);
    } else {
      if (it == absorbing.end()) {
        it = absorbing.emplace(bin, AbsorbingBin<BinT>{}).first;
        it->second.bin = std::make_unique<BinT>();
      }
      it->second.next_seq++;
      it->second.bin->AbsorbChunk(r, last);
      if (!last) return;
      whole = std::move(it->second.bin);
      absorbing.erase(it);
    }
    shared.Install(bin, std::move(whole), hold);
  });
}

/// Encodes and emits F's queued frames under the per-step flow-control
/// budget, counting them into the process-wide chunk counters.
template <typename T>
void FlushStateChunks(ControlState<T>& cs, timely::OpCtx<T>& ctx,
                      const Config& cfg,
                      timely::OutputHandle<BinChunk, T>* state_out) {
  cs.FlushChunks(ctx, cfg.chunk_bytes, cfg.ChunkStepBudget(),
                 [&](const T& t, BinChunk&& frame) {
                   chunk_counters().frames.fetch_add(
                       1, std::memory_order_relaxed);
                   chunk_counters().bytes.fetch_add(
                       frame.WireSize(), std::memory_order_relaxed);
                   state_out->Send(t, std::move(frame));
                 });
}

/// S's stash of one data input: per-time flat stashes (pooled) plus the
/// record vector of bins that have only post-dated records at a time.
template <typename D, typename T>
struct InputStash {
  std::map<T, BinStash<D>> queue;
  BinStashPool<D> pool;
  std::vector<D> scratch;

  /// The stash at `t`, or null if no record of this input arrived at `t`.
  BinStash<D>* At(const T& t) {
    auto it = queue.find(t);
    return it != queue.end() ? &it->second : nullptr;
  }
};

/// The records one input applies to bin `b` at `t`: the stashed input
/// records (or the emptied scratch vector), followed by the bin's
/// post-dated records at `t`, which leave the bin.
template <typename D, typename T>
std::vector<D>* TakeRecords(BinStash<D>* stash, std::vector<D>& scratch,
                            std::map<T, std::vector<D>>& pending, BinId b,
                            const T& t) {
  std::vector<D>* recs = &scratch;
  if (stash && stash->Has(b)) {
    recs = &stash->SlotRef(b);
  } else {
    recs->clear();
  }
  auto pf = pending.find(t);
  if (pf != pending.end()) {
    recs->insert(recs->end(), std::make_move_iterator(pf->second.begin()),
                 std::make_move_iterator(pf->second.end()));
    pending.erase(pf);
  }
  return recs;
}

/// The F/S core behind every stateful operator: data inputs of record
/// types Ds..., routed by the matching key functions, folded per
/// (time, bin) by `fold(time, state, records_0, ..., records_{N-1}, emit,
/// scheduler)`. F has the control input then the data inputs, and the
/// routed outputs then the state output; S has the routed inputs then the
/// state input, and one output.
template <typename S, typename R, typename T, typename Fold, typename... Ds,
          typename... KeyFns>
StatefulOutput<R, T> Stateful(timely::Stream<ControlInst, T> control,
                              std::tuple<timely::Stream<Ds, T>...> data,
                              std::tuple<KeyFns...> key_fns, Fold fold,
                              const Config& cfg) {
  static_assert(sizeof...(Ds) == sizeof...(KeyFns));
  constexpr size_t N = sizeof...(Ds);
  using BinT = StateBin<S, T, Ds...>;
  using Inputs = std::index_sequence_for<Ds...>;
  using timely::OpCtx;
  using timely::OperatorBuilder;
  using timely::Pact;

  timely::Scope<T>& scope = *std::get<0>(data).scope();
  const uint32_t num_bins = cfg.num_bins;
  MEGA_CHECK((num_bins & (num_bins - 1)) == 0 && num_bins > 0)
      << "num_bins must be a power of two";

  auto shared = std::make_shared<BinsShared<BinT, T>>(num_bins);
  auto probe_slot = std::make_shared<timely::ProbeHandle<T>>();
  auto inboxes = std::make_shared<std::tuple<SelfInbox<Ds, T>...>>();
  auto to_target = [](const auto& m) { return m.target; };

  // ------------------------------------------------------------------ F
  // Braced initializers keep the port order: inputs and outputs are
  // added left to right.
  OperatorBuilder<T> fb(scope, cfg.name + "_F");
  auto* ctrl_in = fb.AddInput(control, Pact<ControlInst>::Broadcast());
  auto data_in = [&]<size_t... I>(std::index_sequence<I...>) {
    return std::tuple{fb.AddInput(std::get<I>(data), Pact<Ds>::Pipeline())...};
  }(Inputs{});
  std::tuple<std::pair<timely::OutputHandle<Routed<Ds>, T>*,
                       timely::Stream<Routed<Ds>, T>>...>
      routed{fb.template AddOutput<Routed<Ds>>()...};
  auto [state_out, state_stream] = fb.template AddOutput<BinChunk>();
  if (cfg.state_bytes_per_sec != 0) {
    state_out->SetThrottle(cfg.state_bytes_per_sec,
                           [](const BinChunk& m) { return m.WireSize(); });
  }

  struct FState {
    FState(uint32_t bins, uint32_t workers, uint32_t me)
        : cs(bins, workers, me),
          route_scratch(std::vector<std::vector<Routed<Ds>>>(workers)...) {}
    ControlState<T> cs;
    std::map<T, std::tuple<std::vector<Ds>...>> stash;
    // Per input, per target worker.
    std::tuple<std::vector<std::vector<Routed<Ds>>>...> route_scratch;
    uint64_t steps = 0;
  };
  auto fs = std::make_shared<FState>(num_bins, scope.peers(), scope.worker());
  if (!cfg.initial_owner.empty()) {
    fs->cs.routing().ResetInitial(cfg.initial_owner);
  }

  fb.Build([=](OpCtx<T>& ctx) {
    // Routes a whole batch of input i: records are grouped per
    // destination worker in pooled scratch buffers, then each group
    // leaves as one zero-copy bundle. In the steady state between
    // migrations the owner lookup is a flat array load per record.
    auto route_batch = [&](auto i, const T& t, auto& recs) {
      using D = std::tuple_element_t<i, std::tuple<Ds...>>;
      const auto& key_fn = std::get<i>(key_fns);
      auto& per_target = std::get<i>(fs->route_scratch);
      const auto& routing = fs->cs.routing();
      if (const uint32_t* owners = routing.FlatOwnersAt(t)) {
        auto* groups = per_target.data();
        for (auto& r : recs) {
          BinId b = BinOf(key_fn(r), num_bins);
          uint32_t w = owners[b];
          groups[w].push_back(Routed<D>{w, b, std::move(r)});
        }
      } else {
        for (auto& r : recs) {
          BinId b = BinOf(key_fn(r), num_bins);
          uint32_t w = routing.WorkerAt(t, b);
          per_target[w].push_back(Routed<D>{w, b, std::move(r)});
        }
      }
      const uint32_t me = ctx.worker();
      auto& inbox = std::get<i>(*inboxes);
      for (uint32_t w = 0; w < per_target.size(); ++w) {
        if (per_target[w].empty()) continue;
        if (w == me) {
          // Same-thread handoff: S (scheduled after F in this very step)
          // drains the inbox; no channel, no progress counts.
          inbox.bundles.emplace_back(t, std::move(per_target[w]));
          per_target[w] = inbox.TakeBuffer();
        } else {
          std::get<i>(routed).first->SendBundle(t, w, per_target[w]);
        }
      }
    };

    // 1. Ingest configuration updates (retain a capability per time: F
    //    must be able to emit state at that time later).
    ctrl_in->ForEach([&](const T& t, std::vector<ControlInst>& us) {
      fs->cs.Enqueue(ctx, t, us);
    });

    // 2. Updates not in advance of the control frontier are final:
    //    integrate them into the routing table and queue migrations.
    fs->cs.IntegrateFinal(ctx, ctrl_in->frontier());

    // 3. Route each input's data; buffer records whose time is in advance
    //    of the control frontier (their configuration is not yet certain).
    ForEachInput<N>([&](auto i) {
      std::get<i>(data_in)->ForEach([&](const T& t, auto& recs) {
        if (ctrl_in->frontier().LessEqual(t)) {
          auto [it, inserted] = fs->stash.try_emplace(t);
          if (inserted) ctx.Retain(t);
          auto& vec = std::get<i>(it->second);
          vec.insert(vec.end(), std::make_move_iterator(recs.begin()),
                     std::make_move_iterator(recs.end()));
        } else {
          route_batch(i, t, recs);
        }
      });
    });

    // 4. Flush buffered records whose configuration has become final.
    while (!fs->stash.empty()) {
      auto it = fs->stash.begin();
      if (ctrl_in->frontier().LessEqual(it->first)) break;
      ForEachInput<N>(
          [&](auto i) { route_batch(i, it->first, std::get<i>(it->second)); });
      ctx.Release(it->first);
      fs->stash.erase(it);
    }

    // 5. Initiate migrations whose time has been reached by the S output
    //    frontier: every record before that time has been applied. The
    //    extracted bins become queued cursors; the flush below encodes
    //    their frames onto the state channel under the per-step byte
    //    budget, so a large bin never stalls a worker step for its full
    //    size.
    fs->cs.RunReadyMigrations(
        ctx,
        [&](const T& t) {
          MEGA_CHECK(probe_slot->valid());
          return !probe_slot->LessThan(t);
        },
        [&](const T&, BinId b) { return ExtractBin(*shared, b); });
    FlushStateChunks(fs->cs, ctx, cfg, state_out);

    // 6. Periodically drop routing-table versions behind every frontier.
    if ((++fs->steps & 63) == 0) {
      auto horizon = std::apply(
          [&](auto*... in) {
            return CompactionHorizon(ctrl_in->frontier(), in->frontier()...);
          },
          data_in);
      if (horizon) fs->cs.routing().Compact(*horizon);
    }
  });

  // ------------------------------------------------------------------ S
  OperatorBuilder<T> sb(scope, cfg.name + "_S");
  auto s_data_in = [&]<size_t... I>(std::index_sequence<I...>) {
    return std::tuple{sb.AddInput(std::get<I>(routed).second,
                                  Pact<Routed<Ds>>::Route(to_target))...};
  }(Inputs{});
  auto* s_state_in =
      sb.AddInput(state_stream, Pact<BinChunk>::Route(to_target));
  auto [out, out_stream] = sb.template AddOutput<R>();

  struct SState {
    std::tuple<InputStash<Ds, T>...> inputs;
    std::set<T> held;
    std::vector<BinId> bins_scratch;
    std::map<BinId, AbsorbingBin<BinT>> absorbing;
    std::vector<uint64_t> records_applied;  // per bin, since last stats take
  };
  auto ss = std::make_shared<SState>();
  ss->records_applied.assign(num_bins, 0);

  sb.Build([=](OpCtx<T>& ctx) {
    auto hold = [&](const T& t) {
      if (!ss->held.count(t)) {
        ctx.Retain(t);
        ss->held.insert(t);
      }
    };

    // 0. Install checkpoint-restored bins staged before stepping began:
    //    deserialize each whole-value payload and re-register its pending
    //    times under a capability hold — exactly as if the bin had just
    //    migrated in. Runs on S's first schedule, before any input.
    if (!shared->restore_staging.empty()) {
      for (auto& [rb, rbytes] : shared->restore_staging) {
        MEGA_CHECK(!shared->bins[rb]) << "restore into resident bin " << rb;
        Reader rr(rbytes);
        shared->Install(rb, std::make_unique<BinT>(BinT::Deserialize(rr)),
                        hold);
      }
      shared->restore_staging.clear();
      shared->restore_staging.shrink_to_fit();
    }

    // 1. Install migrated state immediately (paper §3.4: "S immediately
    //    installs any received state") — chunk by chunk: each frame is
    //    absorbed on arrival, and the bin becomes resident (its pending
    //    times registered) at the final frame. Safe because records for
    //    the bin at ≥ t stay stashed until the state frontier passes t,
    //    which cannot happen before F releases t after the last frame.
    s_state_in->ForEach([&](const T&, std::vector<BinChunk>& ms) {
      for (auto& m : ms) {
        AbsorbChunkFrame(*shared, ss->absorbing, m, ctx.worker(), hold);
      }
    });

    // 2. Stash incoming records per input and time, flat by bin (F
    //    already computed each record's bin): first bundles handed over
    //    by the co-located F this very step, then channel deliveries from
    //    remote workers.
    auto stash_records = [&](auto i, const T& t, auto& recs) {
      hold(t);
      auto& in = std::get<i>(ss->inputs);
      auto it = in.queue.find(t);
      if (it == in.queue.end()) {
        it = in.queue.emplace(t, in.pool.Acquire(num_bins)).first;
      }
      auto* slots = it->second.by_bin.data();
      for (auto& r : recs) {
        MEGA_DCHECK(r.target == ctx.worker()) << "misrouted record";
        slots[r.bin].push_back(std::move(r.payload));
      }
    };
    ForEachInput<N>([&](auto i) {
      auto& inbox = std::get<i>(*inboxes);
      if (inbox.bundles.empty()) return;
      for (auto& [t, recs] : inbox.bundles) {
        ctx.NoteInputTime(t);
        stash_records(i, t, recs);
        recs.clear();
        inbox.pool.push_back(std::move(recs));
      }
      inbox.bundles.clear();
    });
    ForEachInput<N>([&](auto i) {
      std::get<i>(s_data_in)->ForEach(
          [&](const T& t, auto& recs) { stash_records(i, t, recs); });
    });

    // 3. Apply, in timestamp order, every time in advance of neither any
    //    data-input frontier nor the state-input frontier.
    while (true) {
      std::optional<T> t;
      auto consider = [&](const T& cand) {
        if (!t || cand < *t) t = cand;
      };
      ForEachInput<N>([&](auto i) {
        const auto& queue = std::get<i>(ss->inputs).queue;
        if (!queue.empty()) consider(queue.begin()->first);
      });
      if (!shared->pending_bins.empty()) {
        consider(shared->pending_bins.begin()->first);
      }
      if (!t) break;
      const bool blocked = std::apply(
          [&](auto*... in) { return (in->frontier().LessEqual(*t) || ...); },
          s_data_in);
      if (blocked || s_state_in->frontier().LessEqual(*t)) break;

      // Bins with work at *t: each input's stashed records (its occupancy
      // list, increasing) and/or pending post-dated records (a set,
      // increasing); merged and deduplicated only when more than one
      // source contributed, for a deterministic application order.
      auto stashes = std::apply(
          [&](auto&... in) { return std::tuple{in.At(*t)...}; }, ss->inputs);
      auto& bins_at_t = ss->bins_scratch;
      bins_at_t.clear();
      int sources = 0;
      ForEachInput<N>([&](auto i) {
        if (auto* stash = std::get<i>(stashes)) {
          const size_t before = bins_at_t.size();
          stash->AppendOccupied(bins_at_t);
          sources += bins_at_t.size() != before;
        }
      });
      auto pit = shared->pending_bins.find(*t);
      if (pit != shared->pending_bins.end() && !pit->second.empty()) {
        bins_at_t.insert(bins_at_t.end(), pit->second.begin(),
                         pit->second.end());
        ++sources;
      }
      if (sources > 1) {
        std::sort(bins_at_t.begin(), bins_at_t.end());
        bins_at_t.erase(std::unique(bins_at_t.begin(), bins_at_t.end()),
                        bins_at_t.end());
      }
      for (BinId b : bins_at_t) {
        auto& slot = shared->bins[b];
        if (!slot) slot = std::make_unique<BinT>();  // first touch
        auto recs = [&]<size_t... I>(std::index_sequence<I...>) {
          return std::tuple{TakeRecords(std::get<I>(stashes),
                                        std::get<I>(ss->inputs).scratch,
                                        std::get<I>(slot->pending), b,
                                        *t)...};
        }(Inputs{});
        Scheduler<S, T, Ds...> sched(shared.get(), slot.get(), b, &*t, &ctx,
                                     &ss->held);
        std::apply(
            [&](auto*... r) {
              ss->records_applied[b] += (r->size() + ...);
              fold(*t, slot->user_state(), *r...,
                   [&](R rec) { out->Send(*t, std::move(rec)); }, sched);
              (r->clear(), ...);  // slot capacity stays with the pool
            },
            recs);
      }
      ForEachInput<N>([&](auto i) {
        auto& in = std::get<i>(ss->inputs);
        if (auto* stash = std::get<i>(stashes)) {
          in.pool.Recycle(std::move(*stash));
          in.queue.erase(*t);
        }
      });
      pit = shared->pending_bins.find(*t);
      if (pit != shared->pending_bins.end()) shared->pending_bins.erase(pit);
      if (ss->held.count(*t)) {
        ctx.Release(*t);
        ss->held.erase(*t);
      }
    }

    // 4. Release capabilities whose pending work vanished because F
    //    extracted the bins holding it (the records migrated away).
    for (auto it = ss->held.begin(); it != ss->held.end();) {
      const T& t = *it;
      const bool has_queue = std::apply(
          [&](const auto&... in) { return ((in.queue.count(t) > 0) || ...); },
          ss->inputs);
      auto pit = shared->pending_bins.find(t);
      bool has_pending =
          pit != shared->pending_bins.end() && !pit->second.empty();
      if (pit != shared->pending_bins.end() && pit->second.empty()) {
        shared->pending_bins.erase(pit);
      }
      if (!has_queue && !has_pending) {
        ctx.Release(t);
        it = ss->held.erase(it);
      } else {
        ++it;
      }
    }
  });

  auto probe = timely::Probe(out_stream);
  *probe_slot = probe;
  StatefulOutput<R, T> result;
  result.stream = out_stream;
  result.probe = probe;
  result.take_bin_stats = [shared, ss, num_bins](BinStats& out) {
    out.records = std::move(ss->records_applied);
    ss->records_applied.assign(num_bins, 0);
    out.state_bytes.assign(num_bins, 0);
    out.resident.assign(num_bins, 0);
    for (BinId b = 0; b < shared->bins.size(); ++b) {
      if (!shared->bins[b]) continue;
      out.resident[b] = 1;
      out.state_bytes[b] = shared->bins[b]->ApproxBytes();
    }
  };
  result.capture_bins =
      [shared](std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& out) {
        for (BinId b = 0; b < shared->bins.size(); ++b) {
          if (!shared->bins[b]) continue;
          Writer w;
          shared->bins[b]->Serialize(w);
          out.emplace_back(b, w.Take());
        }
      };
  result.restore_bins =
      [shared](std::vector<std::pair<uint32_t, std::vector<uint8_t>>> staged) {
        shared->restore_staging = std::move(staged);
      };
  return result;
}

}  // namespace detail

/// Builds a migratable unary stateful operator (paper Listing 1, `unary`).
///
///   * `S` — per-bin user state; default-constructible and serde-able.
///   * `R` — output record type.
///   * `control` — stream of configuration updates; broadcast to all
///     workers. Its frontier must be advanced by every worker for routing
///     to proceed (see MigrationController).
///   * `key_fn(const D&) -> uint64_t` — the exchange function; the bin is
///     its most significant bits.
///   * `fold(time, state, records, emit, scheduler)` — the operator logic,
///     invoked per (time, bin) with all records for that bin at that time
///     (input records first, then post-dated records), an `emit(R)`
///     callable, and a scheduler whose `ScheduleAt(t, rec)` post-dates a
///     record.
///
/// Migration is transparent to `fold`.
template <typename S, typename R, typename D, typename T, typename KeyFn,
          typename Fold>
StatefulOutput<R, T> Unary(timely::Stream<ControlInst, T> control,
                           timely::Stream<D, T> data, KeyFn key_fn, Fold fold,
                           const Config& cfg) {
  return detail::Stateful<S, R>(control, std::make_tuple(data),
                                std::make_tuple(key_fn), fold, cfg);
}

/// Builds a migratable binary stateful operator (paper Listing 1,
/// `binary`): two data inputs share one binned state, and the migration
/// mechanism acts on both inputs at the same time (paper §3.4).
///
/// `fold(time, state, records1, records2, emit, scheduler)` receives both
/// inputs' records for the (time, bin) pair; `scheduler.Schedule1/2`
/// post-date records for either input.
template <typename S, typename R, typename D1, typename D2, typename T,
          typename KeyFn1, typename KeyFn2, typename Fold>
StatefulOutput<R, T> Binary(timely::Stream<ControlInst, T> control,
                            timely::Stream<D1, T> data1,
                            timely::Stream<D2, T> data2, KeyFn1 key_fn1,
                            KeyFn2 key_fn2, Fold fold, const Config& cfg) {
  return detail::Stateful<S, R>(control, std::make_tuple(data1, data2),
                                std::make_tuple(key_fn1, key_fn2), fold, cfg);
}

/// Builds the simplest Megaphone interface (paper Listing 1,
/// `state_machine`): input pairs (key, val), per-key state, and
/// `fold(key, val, per_key_state, emit)` applied per record. The bin state
/// is a hash map from key to per-key state, as in the paper's "hash count"
/// workloads.
template <typename PerKey, typename R, typename K, typename V, typename T,
          typename KeyHash, typename Fold>
StatefulOutput<R, T> StateMachine(timely::Stream<ControlInst, T> control,
                                  timely::Stream<std::pair<K, V>, T> data,
                                  KeyHash key_hash, Fold fold,
                                  const Config& cfg) {
  using KV = std::pair<K, V>;
  using BinState = std::unordered_map<K, PerKey>;
  return Unary<BinState, R>(
      control, data, [key_hash](const KV& kv) { return key_hash(kv.first); },
      [fold](const T&, BinState& state, std::vector<KV>& recs, auto emit,
             auto&) {
        for (auto& [k, v] : recs) {
          fold(k, std::move(v), state[k], emit);
        }
      },
      cfg);
}

}  // namespace megaphone
