// Megaphone's migratable stateful operators (paper §3.4, §4).
//
// Each stateful operator L is realized as a pair of dataflow operators:
//
//   * F takes the data stream plus the control stream of configuration
//     updates. It routes records to the worker owning their bin *at the
//     record's timestamp*, buffering records whose time is still in
//     advance of the control frontier (the configuration there could still
//     change). F also initiates migrations: a configuration update at time
//     t is executed once the S output frontier reaches t — at that point
//     every record before t has been applied — by uninstalling the bin
//     from the co-located S and shipping it at time t on the state
//     channel. The bin moves into a cursor that encodes its content
//     only as it is sent, packed with the other bins for the same target
//     at t into shared BinChunk frames; with Config::chunk_bytes set the
//     frames are size-bounded and metered out across worker steps under
//     Config::chunk_bytes_per_step (flow control), interleaved with data
//     processing. F keeps its capability at t until the frame carrying
//     the last segment at t has gone out, so the frontier argument is
//     unchanged.
//
//   * S hosts the bins. It installs received state immediately — chunked
//     state incrementally, frame by frame, through the migratable-state
//     layer (src/state/) — stashes incoming records per (time, bin), and
//     applies them in timestamp order once the time is in advance of
//     neither the data-input nor the state-input frontier. Post-dated
//     records scheduled by the user logic live inside the bin and migrate
//     with it.
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

#ifdef MEGA_PROF_HOT
struct HotProf {
  std::atomic<uint64_t> f_route{0}, s_ingest{0}, s_apply{0};
};
inline HotProf& hot_prof() {
  static HotProf p;
  return p;
}
#define MEGA_PROF_BEGIN(v) uint64_t prof_##v = NowNanos()
#define MEGA_PROF_END(v) hot_prof().v += NowNanos() - prof_##v
#else
#define MEGA_PROF_BEGIN(v)
#define MEGA_PROF_END(v)
#endif

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
  /// Per-worker-step budget on chunk payload bytes leaving F — the flow
  /// control that interleaves state movement with data processing,
  /// counted like chunk_bytes, so k * chunk_bytes sends k full frames per
  /// step. 0 = default 4 * chunk_bytes (unbounded when chunking is off).
  uint64_t chunk_bytes_per_step = 0;
  /// Operator name (diagnostics).
  std::string name = "Stateful";
  /// Checkpoint restore: per-bin initial owner overriding the default
  /// `bin % workers` assignment. Must be empty or exactly `num_bins`
  /// entries, and may only be set on a routing table that has seen no
  /// updates yet — restored runs resume with the checkpointed assignment
  /// and must not migrate at the minimum timestamp.
  std::vector<uint32_t> initial_owner;
  /// Spill-to-disk knobs for operators whose declared state is a
  /// LogState (state/log_state.hpp). Bin backends are default-constructed
  /// deep inside the dataflow, so ApplySpillConfig() publishes these into
  /// the process-global LogStateOptions — call it (or let the harness
  /// entry points call it) on the driving thread before workers start.
  /// `state_dir` is the segment-file root (empty = LogState's default);
  /// `spill_memtable_bytes`/`spill_segment_bytes` override the memtable
  /// flush threshold and segment cap when nonzero.
  std::string state_dir;
  uint64_t spill_memtable_bytes = 0;
  uint64_t spill_segment_bytes = 0;

  /// Publishes the spill knobs above into GlobalLogStateOptions().
  void ApplySpillConfig() const {
    state::LogStateOptions& o = state::GlobalLogStateOptions();
    if (!state_dir.empty()) o.dir = state_dir;
    if (spill_memtable_bytes != 0) o.memtable_bytes = spill_memtable_bytes;
    if (spill_segment_bytes != 0) o.segment_bytes = spill_segment_bytes;
  }

  uint64_t ChunkStepBudget() const {
    if (chunk_bytes_per_step != 0) return chunk_bytes_per_step;
    return chunk_bytes == 0 ? 0 : 4 * chunk_bytes;
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

/// Schedules post-dated records for the bin currently being applied; they
/// are stored in the bin (and therefore migrate with it).
template <typename BinT, typename D, typename T,
          std::map<T, std::vector<D>> BinT::* PendingField>
class SchedulerImpl {
 public:
  SchedulerImpl(BinsShared<BinT, T>* shared, BinT* bin, BinId bin_id,
                const T* now, timely::OpCtx<T>* ctx, std::set<T>* held)
      : shared_(shared), bin_(bin), bin_id_(bin_id), now_(now), ctx_(ctx),
        held_(held) {}

  /// Presents `rec` to the operator again at time `t`, which must be
  /// strictly in the future.
  void ScheduleAt(const T& t, D rec) {
    MEGA_CHECK(timely::InAdvanceOf(t, *now_) && !(t == *now_))
        << "post-dated records must be strictly in the future";
    ((*bin_).*PendingField)[t].push_back(std::move(rec));
    shared_->RegisterPending(t, bin_id_);
    if (!held_->count(t)) {
      ctx_->Retain(t);
      held_->insert(t);
    }
  }

 private:
  BinsShared<BinT, T>* shared_;
  BinT* bin_;
  BinId bin_id_;
  const T* now_;
  timely::OpCtx<T>* ctx_;
  std::set<T>* held_;
};

/// Picks the compaction horizon: the smaller of two frontier minima, if
/// both are nonempty (totally ordered timestamps assumed for routing-table
/// compaction, which holds for every dataflow in this repository).
template <typename T>
std::optional<T> CompactionHorizon(const timely::Antichain<T>& a,
                                   const timely::Antichain<T>& b) {
  if (a.empty() || b.empty()) return std::nullopt;
  const T& ta = a.elements().front();
  const T& tb = b.elements().front();
  return timely::TimestampTraits<T>::LessEqual(ta, tb) ? ta : tb;
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
/// The frame is wire input: any inconsistency throws SerdeError. Shared by
/// the unary and binary S.
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
    whole->ForEachPendingTime([&](const T& tp) {
      shared.RegisterPending(tp, bin);
      hold(tp);
    });
    shared.bins[bin] = std::move(whole);
  });
}

/// Encodes and emits F's queued frames under the per-step flow-control
/// budget, counting them into the process-wide chunk counters. Shared by the
/// unary and binary F.
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
///     callable, and a scheduler for post-dated records.
///
/// Migration is transparent to `fold`.
template <typename S, typename R, typename D, typename T, typename KeyFn,
          typename Fold>
StatefulOutput<R, T> Unary(timely::Stream<ControlInst, T> control,
                           timely::Stream<D, T> data, KeyFn key_fn, Fold fold,
                           const Config& cfg) {
  using BinT = Bin<S, D, T>;
  using timely::OpCtx;
  using timely::OperatorBuilder;
  using timely::Pact;

  timely::Scope<T>& scope = *data.scope();
  const uint32_t num_bins = cfg.num_bins;
  MEGA_CHECK((num_bins & (num_bins - 1)) == 0 && num_bins > 0)
      << "num_bins must be a power of two";

  auto shared = std::make_shared<BinsShared<BinT, T>>(num_bins);
  auto probe_slot = std::make_shared<timely::ProbeHandle<T>>();
  auto inbox = std::make_shared<SelfInbox<D, T>>();

  // ------------------------------------------------------------------ F
  OperatorBuilder<T> fb(scope, cfg.name + "_F");
  auto* ctrl_in = fb.AddInput(control, Pact<ControlInst>::Broadcast());
  auto* data_in = fb.AddInput(data, Pact<D>::Pipeline());
  auto [routed_out, routed_stream] = fb.template AddOutput<Routed<D>>();
  auto [state_out, state_stream] = fb.template AddOutput<BinChunk>();
  if (cfg.state_bytes_per_sec != 0) {
    state_out->SetThrottle(cfg.state_bytes_per_sec,
                           [](const BinChunk& m) { return m.WireSize(); });
  }

  struct FState {
    FState(uint32_t bins, uint32_t workers, uint32_t me)
        : cs(bins, workers, me), route_scratch(workers) {}
    ControlState<T> cs;
    std::map<T, std::vector<D>> stash;
    std::vector<std::vector<Routed<D>>> route_scratch;  // per target worker
    uint64_t steps = 0;
  };
  auto fs = std::make_shared<FState>(num_bins, scope.peers(), scope.worker());
  if (!cfg.initial_owner.empty()) {
    fs->cs.routing().ResetInitial(cfg.initial_owner);
  }

  fb.Build([=](OpCtx<T>& ctx) {
    // Routes a whole batch: records are grouped per destination worker in
    // pooled scratch buffers, then each group leaves as one zero-copy
    // bundle. In the steady state between migrations the owner lookup is
    // a flat array load per record.
    auto route_batch = [&](const T& t, std::vector<D>& recs) {
      MEGA_PROF_BEGIN(f_route);
      auto& per_target = fs->route_scratch;
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
      for (uint32_t w = 0; w < per_target.size(); ++w) {
        if (per_target[w].empty()) continue;
        if (w == me) {
          // Same-thread handoff: S (scheduled after F in this very step)
          // drains the inbox; no channel, no progress counts.
          inbox->bundles.emplace_back(t, std::move(per_target[w]));
          per_target[w] = inbox->TakeBuffer();
        } else {
          routed_out->SendBundle(t, w, per_target[w]);
        }
      }
      MEGA_PROF_END(f_route);
    };

    // 1. Ingest configuration updates (retain a capability per time: F
    //    must be able to emit state at that time later).
    ctrl_in->ForEach([&](const T& t, std::vector<ControlInst>& us) {
      fs->cs.Enqueue(ctx, t, us);
    });

    // 2. Updates not in advance of the control frontier are final:
    //    integrate them into the routing table and queue migrations.
    fs->cs.IntegrateFinal(ctx, ctrl_in->frontier());

    // 3. Route data; buffer records whose time is in advance of the
    //    control frontier (their configuration is not yet certain).
    data_in->ForEach([&](const T& t, std::vector<D>& recs) {
      if (ctrl_in->frontier().LessEqual(t)) {
        auto [it, inserted] = fs->stash.emplace(t, std::vector<D>{});
        if (inserted) ctx.Retain(t);
        auto& vec = it->second;
        vec.insert(vec.end(), std::make_move_iterator(recs.begin()),
                   std::make_move_iterator(recs.end()));
      } else {
        route_batch(t, recs);
      }
    });

    // 4. Flush buffered records whose configuration has become final.
    while (!fs->stash.empty()) {
      auto it = fs->stash.begin();
      if (ctrl_in->frontier().LessEqual(it->first)) break;
      route_batch(it->first, it->second);
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
        [&](const T&, BinId b) {
          return detail::ExtractBin(*shared, b);
        });
    detail::FlushStateChunks(fs->cs, ctx, cfg, state_out);

    // 6. Periodically drop routing-table versions behind both frontiers.
    if ((++fs->steps & 63) == 0) {
      auto horizon = detail::CompactionHorizon(ctrl_in->frontier(),
                                               data_in->frontier());
      if (horizon) fs->cs.routing().Compact(*horizon);
    }
  });

  // ------------------------------------------------------------------ S
  OperatorBuilder<T> sb(scope, cfg.name + "_S");
  auto* s_data_in = sb.AddInput(
      routed_stream,
      Pact<Routed<D>>::Route([](const Routed<D>& r) { return r.target; }));
  auto* s_state_in = sb.AddInput(
      state_stream,
      Pact<BinChunk>::Route([](const BinChunk& m) { return m.target; }));
  auto [out, out_stream] = sb.template AddOutput<R>();

  struct SState {
    std::map<T, BinStash<D>> queue;  // per-time flat stash, pooled
    BinStashPool<D> pool;
    std::set<T> held;
    std::vector<BinId> bins_scratch;
    std::vector<D> recs_scratch;  // bins with only post-dated records
    std::map<BinId, detail::AbsorbingBin<BinT>> absorbing;
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
        auto rbin = std::make_unique<BinT>(BinT::Deserialize(rr));
        rbin->ForEachPendingTime([&](const T& t) {
          shared->RegisterPending(t, rb);
          hold(t);
        });
        shared->bins[rb] = std::move(rbin);
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
        detail::AbsorbChunkFrame(*shared, ss->absorbing, m, ctx.worker(),
                                 hold);
      }
    });

    // 2. Stash incoming records per time, flat by bin (F already computed
    //    each record's bin): first bundles handed over by the co-located
    //    F this very step, then channel deliveries from remote workers.
    auto stash_records = [&](const T& t, std::vector<Routed<D>>& recs) {
      MEGA_PROF_BEGIN(s_ingest);
      hold(t);
      auto it = ss->queue.find(t);
      if (it == ss->queue.end()) {
        it = ss->queue.emplace(t, ss->pool.Acquire(num_bins)).first;
      }
      auto* slots = it->second.by_bin.data();
      for (auto& r : recs) {
        MEGA_DCHECK(r.target == ctx.worker()) << "misrouted record";
        slots[r.bin].push_back(std::move(r.payload));
      }
      MEGA_PROF_END(s_ingest);
    };
    if (!inbox->bundles.empty()) {
      for (auto& [t, recs] : inbox->bundles) {
        ctx.NoteInputTime(t);
        stash_records(t, recs);
        recs.clear();
        inbox->pool.push_back(std::move(recs));
      }
      inbox->bundles.clear();
    }
    s_data_in->ForEach(stash_records);

    // 3. Apply, in timestamp order, every time in advance of neither the
    //    data-input nor the state-input frontier.
    MEGA_PROF_BEGIN(s_apply);
    const auto& f_data = s_data_in->frontier();
    const auto& f_state = s_state_in->frontier();
    while (true) {
      std::optional<T> t;
      if (!ss->queue.empty()) t = ss->queue.begin()->first;
      if (!shared->pending_bins.empty()) {
        const T& tp = shared->pending_bins.begin()->first;
        if (!t || tp < *t) t = tp;
      }
      if (!t || f_data.LessEqual(*t) || f_state.LessEqual(*t)) break;

      // Bins with work at *t: stashed input records (the occupancy list)
      // and/or pending post-dated records; sorted for deterministic
      // application order.
      auto qit = ss->queue.find(*t);
      BinStash<D>* stash = qit != ss->queue.end() ? &qit->second : nullptr;
      auto& bins_at_t = ss->bins_scratch;
      bins_at_t.clear();
      if (stash) stash->AppendOccupied(bins_at_t);  // increasing order
      size_t sorted_prefix = bins_at_t.size();
      auto pit = shared->pending_bins.find(*t);
      if (pit != shared->pending_bins.end()) {
        for (BinId b : pit->second) {
          if (!stash || !stash->Has(b)) bins_at_t.push_back(b);
        }
      }
      if (bins_at_t.size() != sorted_prefix) {
        std::sort(bins_at_t.begin(), bins_at_t.end());
      }
      for (BinId b : bins_at_t) {
        auto& slot = shared->bins[b];
        if (!slot) slot = std::make_unique<BinT>();  // first touch
        std::vector<D>* recs = &ss->recs_scratch;
        if (stash && stash->Has(b)) {
          recs = &stash->SlotRef(b);
        } else {
          recs->clear();
        }
        auto pf = slot->pending.find(*t);
        if (pf != slot->pending.end()) {
          recs->insert(recs->end(),
                       std::make_move_iterator(pf->second.begin()),
                       std::make_move_iterator(pf->second.end()));
          slot->pending.erase(pf);
        }
        ss->records_applied[b] += recs->size();
        detail::SchedulerImpl<BinT, D, T, &BinT::pending> sched(
            shared.get(), slot.get(), b, &*t, &ctx, &ss->held);
        fold(*t, slot->user_state(), *recs,
             [&](R r) { out->Send(*t, std::move(r)); }, sched);
        recs->clear();  // slot capacity stays with the pooled stash
      }
      if (qit != ss->queue.end()) {
        ss->pool.Recycle(std::move(qit->second));
        ss->queue.erase(qit);
      }
      pit = shared->pending_bins.find(*t);
      if (pit != shared->pending_bins.end()) shared->pending_bins.erase(pit);
      if (ss->held.count(*t)) {
        ctx.Release(*t);
        ss->held.erase(*t);
      }
    }
    MEGA_PROF_END(s_apply);

    // 4. Release capabilities whose pending work vanished because F
    //    extracted the bins holding it (the records migrated away).
    for (auto it = ss->held.begin(); it != ss->held.end();) {
      const T& t = *it;
      bool has_queue = ss->queue.count(t) > 0;
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
  using BinT = BinaryBin<S, D1, D2, T>;
  using timely::OpCtx;
  using timely::OperatorBuilder;
  using timely::Pact;

  timely::Scope<T>& scope = *data1.scope();
  const uint32_t num_bins = cfg.num_bins;
  MEGA_CHECK((num_bins & (num_bins - 1)) == 0 && num_bins > 0)
      << "num_bins must be a power of two";

  auto shared = std::make_shared<BinsShared<BinT, T>>(num_bins);
  auto probe_slot = std::make_shared<timely::ProbeHandle<T>>();
  auto inbox1 = std::make_shared<SelfInbox<D1, T>>();
  auto inbox2 = std::make_shared<SelfInbox<D2, T>>();

  // ------------------------------------------------------------------ F
  OperatorBuilder<T> fb(scope, cfg.name + "_F");
  auto* ctrl_in = fb.AddInput(control, Pact<ControlInst>::Broadcast());
  auto* data1_in = fb.AddInput(data1, Pact<D1>::Pipeline());
  auto* data2_in = fb.AddInput(data2, Pact<D2>::Pipeline());
  auto [routed1_out, routed1_stream] = fb.template AddOutput<Routed<D1>>();
  auto [routed2_out, routed2_stream] = fb.template AddOutput<Routed<D2>>();
  auto [state_out, state_stream] = fb.template AddOutput<BinChunk>();
  if (cfg.state_bytes_per_sec != 0) {
    state_out->SetThrottle(cfg.state_bytes_per_sec,
                           [](const BinChunk& m) { return m.WireSize(); });
  }

  struct FState {
    FState(uint32_t bins, uint32_t workers, uint32_t me)
        : cs(bins, workers, me), scratch1(workers), scratch2(workers) {}
    ControlState<T> cs;
    std::map<T, std::pair<std::vector<D1>, std::vector<D2>>> stash;
    std::vector<std::vector<Routed<D1>>> scratch1;  // per target worker
    std::vector<std::vector<Routed<D2>>> scratch2;
    uint64_t steps = 0;
  };
  auto fs = std::make_shared<FState>(num_bins, scope.peers(), scope.worker());
  if (!cfg.initial_owner.empty()) {
    fs->cs.routing().ResetInitial(cfg.initial_owner);
  }

  fb.Build([=](OpCtx<T>& ctx) {
    // Per-target grouping with flat owner lookups and the same-thread
    // inbox handoff, as in the unary F.
    auto route_any = [&](const T& t, auto& recs, auto key, auto& per_target,
                         auto* routed_out_handle, auto& self_inbox) {
      const auto& routing = fs->cs.routing();
      using RecT = typename std::decay_t<decltype(recs)>::value_type;
      if (const uint32_t* owners = routing.FlatOwnersAt(t)) {
        for (auto& r : recs) {
          BinId b = BinOf(key(r), num_bins);
          uint32_t w = owners[b];
          per_target[w].push_back(Routed<RecT>{w, b, std::move(r)});
        }
      } else {
        for (auto& r : recs) {
          BinId b = BinOf(key(r), num_bins);
          uint32_t w = routing.WorkerAt(t, b);
          per_target[w].push_back(Routed<RecT>{w, b, std::move(r)});
        }
      }
      const uint32_t me = ctx.worker();
      for (uint32_t w = 0; w < per_target.size(); ++w) {
        if (per_target[w].empty()) continue;
        if (w == me) {
          self_inbox.bundles.emplace_back(t, std::move(per_target[w]));
          per_target[w] = self_inbox.TakeBuffer();
        } else {
          routed_out_handle->SendBundle(t, w, per_target[w]);
        }
      }
    };
    auto route1 = [&](const T& t, std::vector<D1>& recs) {
      route_any(t, recs, key_fn1, fs->scratch1, routed1_out, *inbox1);
    };
    auto route2 = [&](const T& t, std::vector<D2>& recs) {
      route_any(t, recs, key_fn2, fs->scratch2, routed2_out, *inbox2);
    };
    auto stash_at = [&](const T& t)
        -> std::pair<std::vector<D1>, std::vector<D2>>& {
      auto [it, inserted] = fs->stash.emplace(
          t, std::pair<std::vector<D1>, std::vector<D2>>{});
      if (inserted) ctx.Retain(t);
      return it->second;
    };

    ctrl_in->ForEach([&](const T& t, std::vector<ControlInst>& us) {
      fs->cs.Enqueue(ctx, t, us);
    });
    fs->cs.IntegrateFinal(ctx, ctrl_in->frontier());

    data1_in->ForEach([&](const T& t, std::vector<D1>& recs) {
      if (ctrl_in->frontier().LessEqual(t)) {
        auto& slot = stash_at(t).first;
        slot.insert(slot.end(), std::make_move_iterator(recs.begin()),
                    std::make_move_iterator(recs.end()));
      } else {
        route1(t, recs);
      }
    });
    data2_in->ForEach([&](const T& t, std::vector<D2>& recs) {
      if (ctrl_in->frontier().LessEqual(t)) {
        auto& slot = stash_at(t).second;
        slot.insert(slot.end(), std::make_move_iterator(recs.begin()),
                    std::make_move_iterator(recs.end()));
      } else {
        route2(t, recs);
      }
    });

    while (!fs->stash.empty()) {
      auto it = fs->stash.begin();
      if (ctrl_in->frontier().LessEqual(it->first)) break;
      route1(it->first, it->second.first);
      route2(it->first, it->second.second);
      ctx.Release(it->first);
      fs->stash.erase(it);
    }

    fs->cs.RunReadyMigrations(
        ctx,
        [&](const T& t) {
          MEGA_CHECK(probe_slot->valid());
          return !probe_slot->LessThan(t);
        },
        [&](const T&, BinId b) {
          return detail::ExtractBin(*shared, b);
        });
    detail::FlushStateChunks(fs->cs, ctx, cfg, state_out);

    if ((++fs->steps & 63) == 0) {
      auto horizon = detail::CompactionHorizon(ctrl_in->frontier(),
                                               data1_in->frontier());
      if (horizon) {
        horizon = detail::CompactionHorizon(
            timely::Antichain<T>({*horizon}), data2_in->frontier());
      }
      if (horizon) fs->cs.routing().Compact(*horizon);
    }
  });

  // ------------------------------------------------------------------ S
  OperatorBuilder<T> sb(scope, cfg.name + "_S");
  auto* s1_in = sb.AddInput(
      routed1_stream,
      Pact<Routed<D1>>::Route([](const Routed<D1>& r) { return r.target; }));
  auto* s2_in = sb.AddInput(
      routed2_stream,
      Pact<Routed<D2>>::Route([](const Routed<D2>& r) { return r.target; }));
  auto* s_state_in = sb.AddInput(
      state_stream,
      Pact<BinChunk>::Route([](const BinChunk& m) { return m.target; }));
  auto [out, out_stream] = sb.template AddOutput<R>();

  struct SState {
    std::map<T, BinStash<D1>> queue1;
    std::map<T, BinStash<D2>> queue2;
    BinStashPool<D1> pool1;
    BinStashPool<D2> pool2;
    std::set<T> held;
    std::vector<BinId> bins_scratch;
    std::vector<D1> recs1_scratch;
    std::vector<D2> recs2_scratch;
    std::map<BinId, detail::AbsorbingBin<BinT>> absorbing;
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
        auto rbin = std::make_unique<BinT>(BinT::Deserialize(rr));
        rbin->ForEachPendingTime([&](const T& t) {
          shared->RegisterPending(t, rb);
          hold(t);
        });
        shared->bins[rb] = std::move(rbin);
      }
      shared->restore_staging.clear();
      shared->restore_staging.shrink_to_fit();
    }

    // Chunk-by-chunk installation, shared with the unary S.
    s_state_in->ForEach([&](const T&, std::vector<BinChunk>& ms) {
      for (auto& m : ms) {
        detail::AbsorbChunkFrame(*shared, ss->absorbing, m, ctx.worker(),
                                 hold);
      }
    });

    auto stash_into = [&](auto& queue, auto& pool, const auto& t,
                          auto& recs) {
      hold(t);
      auto it = queue.find(t);
      if (it == queue.end()) {
        it = queue.emplace(t, pool.Acquire(num_bins)).first;
      }
      auto* slots = it->second.by_bin.data();
      for (auto& r : recs) {
        MEGA_DCHECK(r.target == ctx.worker()) << "misrouted record";
        slots[r.bin].push_back(std::move(r.payload));
      }
    };
    auto drain_inbox = [&](auto& self_inbox, auto& queue, auto& pool) {
      if (self_inbox.bundles.empty()) return;
      for (auto& [t, recs] : self_inbox.bundles) {
        ctx.NoteInputTime(t);
        stash_into(queue, pool, t, recs);
        recs.clear();
        self_inbox.pool.push_back(std::move(recs));
      }
      self_inbox.bundles.clear();
    };
    drain_inbox(*inbox1, ss->queue1, ss->pool1);
    drain_inbox(*inbox2, ss->queue2, ss->pool2);
    s1_in->ForEach([&](const T& t, std::vector<Routed<D1>>& recs) {
      stash_into(ss->queue1, ss->pool1, t, recs);
    });
    s2_in->ForEach([&](const T& t, std::vector<Routed<D2>>& recs) {
      stash_into(ss->queue2, ss->pool2, t, recs);
    });

    const auto& f1 = s1_in->frontier();
    const auto& f2 = s2_in->frontier();
    const auto& fstate = s_state_in->frontier();
    while (true) {
      std::optional<T> t;
      auto consider = [&](const T& cand) {
        if (!t || cand < *t) t = cand;
      };
      if (!ss->queue1.empty()) consider(ss->queue1.begin()->first);
      if (!ss->queue2.empty()) consider(ss->queue2.begin()->first);
      if (!shared->pending_bins.empty())
        consider(shared->pending_bins.begin()->first);
      if (!t || f1.LessEqual(*t) || f2.LessEqual(*t) || fstate.LessEqual(*t))
        break;

      auto q1 = ss->queue1.find(*t);
      auto q2 = ss->queue2.find(*t);
      BinStash<D1>* stash1 = q1 != ss->queue1.end() ? &q1->second : nullptr;
      BinStash<D2>* stash2 = q2 != ss->queue2.end() ? &q2->second : nullptr;
      auto& bins_at_t = ss->bins_scratch;
      bins_at_t.clear();
      if (stash1) stash1->AppendOccupied(bins_at_t);
      if (stash2) stash2->AppendOccupied(bins_at_t);
      auto pit = shared->pending_bins.find(*t);
      if (pit != shared->pending_bins.end()) {
        bins_at_t.insert(bins_at_t.end(), pit->second.begin(),
                         pit->second.end());
      }
      std::sort(bins_at_t.begin(), bins_at_t.end());
      bins_at_t.erase(std::unique(bins_at_t.begin(), bins_at_t.end()),
                      bins_at_t.end());

      for (BinId b : bins_at_t) {
        auto& slot = shared->bins[b];
        if (!slot) slot = std::make_unique<BinT>();
        std::vector<D1>* recs1 = &ss->recs1_scratch;
        std::vector<D2>* recs2 = &ss->recs2_scratch;
        if (stash1 && stash1->Has(b)) {
          recs1 = &stash1->SlotRef(b);
        } else {
          recs1->clear();
        }
        if (stash2 && stash2->Has(b)) {
          recs2 = &stash2->SlotRef(b);
        } else {
          recs2->clear();
        }
        auto move_pending = [&](auto& pending, auto& recs) {
          auto pf = pending.find(*t);
          if (pf != pending.end()) {
            recs.insert(recs.end(),
                        std::make_move_iterator(pf->second.begin()),
                        std::make_move_iterator(pf->second.end()));
            pending.erase(pf);
          }
        };
        move_pending(slot->pending1, *recs1);
        move_pending(slot->pending2, *recs2);
        ss->records_applied[b] += recs1->size() + recs2->size();
        detail::SchedulerImpl<BinT, D1, T, &BinT::pending1> sched1(
            shared.get(), slot.get(), b, &*t, &ctx, &ss->held);
        detail::SchedulerImpl<BinT, D2, T, &BinT::pending2> sched2(
            shared.get(), slot.get(), b, &*t, &ctx, &ss->held);
        struct BothScheds {
          decltype(sched1)& s1;
          decltype(sched2)& s2;
          void Schedule1(const T& t2, D1 r) { s1.ScheduleAt(t2, std::move(r)); }
          void Schedule2(const T& t2, D2 r) { s2.ScheduleAt(t2, std::move(r)); }
        } scheds{sched1, sched2};
        fold(*t, slot->user_state(), *recs1, *recs2,
             [&](R r) { out->Send(*t, std::move(r)); }, scheds);
        recs1->clear();
        recs2->clear();
      }
      if (q1 != ss->queue1.end()) {
        ss->pool1.Recycle(std::move(q1->second));
        ss->queue1.erase(q1);
      }
      if (q2 != ss->queue2.end()) {
        ss->pool2.Recycle(std::move(q2->second));
        ss->queue2.erase(q2);
      }
      pit = shared->pending_bins.find(*t);
      if (pit != shared->pending_bins.end()) shared->pending_bins.erase(pit);
      if (ss->held.count(*t)) {
        ctx.Release(*t);
        ss->held.erase(*t);
      }
    }

    for (auto it = ss->held.begin(); it != ss->held.end();) {
      const T& t = *it;
      bool has_queue = ss->queue1.count(t) > 0 || ss->queue2.count(t) > 0;
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
